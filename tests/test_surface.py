"""Every public name is reached: the package's code uses it, or a README
code span or block names it.  A public function or method that neither
reaches is surface nothing needs; delete it, or move it to
``tests/helpers.py`` if only tests use it.  Every module also stays under
the parser-token budget of one compile step."""

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


def _code_names():
    """The NAME tokens of the package outside ``__init__.py`` (a re-export
    is not a use), less the name that each ``def`` and ``class`` defines.
    Strings and comments are not NAME tokens, so prose is no use."""
    names = set()
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        with path.open("rb") as f:
            previous = None
            for tok in tokenize.tokenize(f.readline):
                if tok.type == tokenize.NAME and previous not in ("def",
                                                                   "class"):
                    names.add(tok.string)
                previous = tok.string
    return names


def _readme_code_names():
    """The identifiers inside README code blocks and code spans."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```.*?^```", text, flags=re.M | re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text,
                                               flags=re.M | re.S))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(blocks + spans)))


def _unreached(names):
    """The names that are neither a code token of the package nor a name
    in a README code span or block."""
    used = _code_names() | _readme_code_names()
    return sorted(set(names) - used)


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


def test_every_theorem_is_rows():
    """``THEOREM_IDS`` are the ``_ROWS`` keys, and ``theorems.py`` defines
    no per-theorem builder: ``_rows_items`` builds every report item."""
    from fuzzdyn import theorems
    assert theorems.THEOREM_IDS == tuple(theorems._ROWS)
    tree = ast.parse((ROOT / "src" / "fuzzdyn" / "theorems.py").read_text())
    names = {node.name for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    names.update(target.id for node in tree.body
                 if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name))
    assert sorted(name for name in names if name.endswith("_items")
                  or name == "_BUILDERS") == ["_rows_items"]


def _report_item_calls(tree) -> int:
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "ReportItem" for node in ast.walk(tree))


def test_the_harness_declares_and_the_checkers_decide():
    """``theorems.py`` imports no ``_``-prefixed name from another fuzzdyn
    module, and builds every report item from a checker's ``Verdict``: it
    calls ``ReportItem`` only inside ``_item_from_verdict``."""
    tree = ast.parse((ROOT / "src" / "fuzzdyn" / "theorems.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("fuzzdyn"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
    wrapper, = (node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "_item_from_verdict")
    assert _report_item_calls(wrapper) == _report_item_calls(tree) == 1


#: the parameter names of a per-call resource cap
CAP_PARAMETERS = ("cap", "state_cap", "bound")


def _parameters(tree):
    """(function, parameter, has a default) for every parameter of every
    function and lambda of a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            name = getattr(node, "name", "<lambda>")
            for arg in positional:
                yield name, arg.arg, arg in defaulted
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                yield name, arg.arg, default is not None


def test_no_function_takes_a_state_cap():
    """Every state space is bounded by ``spaces.STATE_CAP`` alone: no
    function or lambda of the package takes a ``cap`` or ``state_cap``,
    nor a ``bound`` that a caller may leave out.  ``bound`` stays the name
    of a required argument: the length to which a product or
    ``return_time_set`` extends a set past its clock, and the field of
    ``BoundExceeded``."""
    found = [(path.name, name, param)
             for path in MODULES
             for name, param, default in _parameters(
                 ast.parse(path.read_text()))
             if param in CAP_PARAMETERS[:2]
             or (param == "bound" and default)]
    assert found == []


#: each return-time read of the oracles and the shift, with its parameters
READS = {"return_times": ["self", "u", "v"], "rows": ["self", "basis"],
         "return_bits": ["self", "u", "v"]}


def test_no_return_time_read_takes_a_bound():
    """Every oracle answers below its own clock: no ``return_times`` or
    ``rows`` of an oracle, nor ``ShiftSystem.return_bits``, takes a bound,
    and in ``oracles.py`` and ``symbolic.py`` only the product's
    extension past a factor's clock, ``_widen``, takes one."""
    reads, bounded = {}, []
    for name in ("oracles.py", "symbolic.py"):
        tree = ast.parse((ROOT / "src" / "fuzzdyn" / name).read_text())
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                reads.update(((cls.name, f.name), [a.arg for a in f.args.args])
                             for f in cls.body
                             if isinstance(f, ast.FunctionDef)
                             and f.name in READS)
        bounded += sorted({func for func, param, _ in _parameters(tree)
                           if param in ("bound", "horizon")})
    assert {key: READS[key[1]] for key in reads} == reads
    assert {("_Oracle", "rows"), ("TableDyn", "return_times"),
            ("ShiftDyn", "return_times"), ("ProductDyn", "return_times"),
            ("HyperShiftDyn", "return_times"),
            ("ShiftSystem", "return_bits")} <= set(reads)
    assert bounded == ["_widen"]
