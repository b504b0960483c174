"""Every public name is reached: the package uses it, or the README documents
it.  A public function or method that neither reaches is surface nothing
needs; delete it, or move it to ``tests/helpers.py`` if only tests use it.
Every module also stays under the parser-token budget of one compile step."""

import ast
import re
import tokenize
from pathlib import Path

import fuzzdyn

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "fuzzdyn").glob("*.py"))


def _public_defs():
    """The public top-level functions, and the public methods of top-level
    classes, over every module."""
    functions, methods = set(), set()
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions.add(node.name)
            elif isinstance(node, ast.ClassDef):
                methods.update(sub.name for sub in node.body
                               if isinstance(sub, ast.FunctionDef))
    return ({n for n in functions if not n.startswith("_")},
            {n for n in methods if not n.startswith("_")})


def _unreached(names):
    """The names that the README does not mention, and that no line of the
    package mentions outside ``__init__.py`` (a re-export is not a use) and
    outside the names' own ``def`` and ``class`` lines."""
    readme = (ROOT / "README.md").read_text()
    lines = [line for path in MODULES if path.name != "__init__.py"
             for line in path.read_text().splitlines()]
    out = []
    for name in sorted(names):
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
        if not (word.search(readme) or any(
                word.search(line) and not own.match(line)
                for line in lines)):
            out.append(name)
    return out


def test_every_public_function_is_reached():
    functions, _ = _public_defs()
    assert _unreached(functions | set(fuzzdyn.__all__)) == []


def test_every_public_method_is_reached():
    _, methods = _public_defs()
    assert _unreached(methods) == []


#: CPython 3.11 compiles a module of more parser tokens than this in an
#: extra step, which raises the memory peak of an import that finds no
#: bytecode cache
TOKEN_BUDGET = 8192


def _parser_tokens(path: Path) -> int:
    """The tokens of a module, less comments, NL and ENCODING."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with path.open("rb") as f:
        return sum(tok.type not in skip
                   for tok in tokenize.tokenize(f.readline))


def test_every_module_stays_under_the_token_budget():
    over = {path.name: count for path in MODULES
            if (count := _parser_tokens(path)) >= TOKEN_BUDGET}
    assert not over, (
        f"{over} reach {TOKEN_BUDGET} parser tokens: split the module along "
        "a module boundary, as the oracles were split from the checkers; "
        "never rewrite its code denser to fit")
