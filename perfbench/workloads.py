"""Workload definitions and the seeded input generator.

A workload is a fixed list of ``fuzzdyn verify`` / ``fuzzdyn check``
operations.  Each operation names a base system by a generator spec; the
seed only chooses an *isometric relabeling* of that system, emitted as a
``finite`` document (points and distance table permuted, point ids renamed)
or an ``sft`` document (alphabet permuted and renamed).  Every seed, the
default included, takes this one ingest path, so verdicts and state counts
are the same for every seed while enumeration order and early exits move.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

#: all nine ``fuzzdyn check`` properties, in the CLI's order
ALL_CHECKS = ("transitivity,weak-mixing,mixing,mild-mixing,uniform-rigidity,"
              "equicontinuity,proximality,sensitivity,periodic-density")
#: the checks that accept a symbolic (shift) system
SHIFT_CHECKS = "transitivity,weak-mixing,mixing,mild-mixing"

#: symbols a relabeled shift alphabet is drawn from
SHIFT_SYMBOLS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``verify`` with a theorem, or ``check`` with a
    comma-separated property list."""
    command: str
    target: str
    system: str
    m: int

    @property
    def key(self) -> str:
        return f"{self.command} {self.target} {self.system} m={self.m}"


def _verify(theorem: str, system: str, m: int) -> Op:
    return Op("verify", theorem, system, m)


def _check(props: str, system: str) -> Op:
    return Op("check", props, system, 2)


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # State-space materialization: MetricSpace index dicts over Fraction
    # tuples, product_system, lift_system, fuzzy lift enumeration and step,
    # point labels and opens.  Few distance calls, few membership queries.
    # The last operation hits the product-state bound (6305^2 states).
    "table-lifts": (
        _verify("transitivity", "rotation:5,1", 2),
        _verify("f-mixing", "rotation:5,1", 2),
        _verify("a-transitivity", "gridmap:half,4", 2),
        _verify("transitivity", "multiply:8,2", 1),
        _verify("f-mixing", "multiply:8,2", 1),
        _verify("mixing", "multiply:8,2", 2),
        _verify("mild-mixing", "multiply:8,2", 2),
        _verify("transitivity", "multiply:8,2", 2),
    ),
    # The same kinds of lifted spaces, then O(N^2) distance reads from them:
    # lazy Hausdorff / levelwise kernels, alpha cuts, the g-step and the
    # level transfer.  No membership queries.
    "metric-scans": (
        _verify("equicontinuity", "rotation:6,1", 2),
        _verify("height-invariance", "rotation:6,1", 2),
        _verify("cut-lemma", "multiply:8,2", 2),
        _verify("uniform-rigidity", "rotation:12,1", 2),
        _verify("proximality", "gridmap:half,8", 2),
        _verify("equicontinuity", "multiply:8,2", 1),
        _check(ALL_CHECKS, "rotation:6,1"),
        _check(ALL_CHECKS, "multiply:8,2"),
        _check(ALL_CHECKS, "rotation:12,1"),
        _check(ALL_CHECKS, "gridmap:half,8"),
    ),
    # The symbolic backend: millions of return-time membership queries and
    # family classification; no lifts, no enumeration, no distances.
    "shift-horizon": (
        _verify("mixing", "fullshift:2,3", 1),
        _verify("mild-mixing", "fullshift:2,3", 1),
        _verify("a-transitivity", "fullshift:2,3", 1),
        _verify("f-mixing", "fullshift:2,3", 1),
        _verify("transitivity", "fullshift:2,3", 1),
        _verify("mixing", "goldenmean:4", 1),
        _verify("mild-mixing", "goldenmean:4", 1),
        _check(SHIFT_CHECKS, "fullshift:2,3"),
    ),
}

#: one cheap operation per workload, for the smoke mode
SMOKE: dict[str, tuple[Op, ...]] = {
    "table-lifts": (_verify("transitivity", "rotation:3,1", 1),
                    _verify("transitivity", "multiply:8,2", 2)),
    "metric-scans": (_verify("equicontinuity", "rotation:4,1", 1),),
    "shift-horizon": (_verify("transitivity", "goldenmean:2", 1),),
}


def relabel(system, rng: random.Random) -> dict:
    """An isometric relabeling of ``system`` as an ingestible document."""
    from fuzzdyn.serialize import format_fraction
    from fuzzdyn.symbolic import ShiftSystem

    if isinstance(system, ShiftSystem):
        new = dict(zip(system.alphabet,
                       rng.sample(SHIFT_SYMBOLS, len(system.alphabet))))
        alphabet = list(new.values())
        rng.shuffle(alphabet)
        edges = [[new[a], new[b]] for a in system.alphabet
                 for b in system.alphabet if system.follows(a, b)]
        rng.shuffle(edges)
        return {"kind": "sft", "alphabet": alphabet, "edges": edges,
                "resolution": system.resolution}
    space = system.space
    n = len(space.points)
    order = list(range(n))
    rng.shuffle(order)
    names = [f"x{k}" for k in rng.sample(range(10 * n), n)]
    return {
        "kind": "finite",
        "label": system.label,
        "points": [names[i] for i in order],
        "dist": [[format_fraction(space.d_by_index(i, j)) for j in order]
                 for i in order],
        "map": {names[i]: names[system.table[i]] for i in order},
    }


def op_argv(op: Op, system_doc: dict, out_dir: str) -> list[str]:
    """The ``fuzzdyn`` argv for one operation on a relabeled system."""
    spec = "json:" + json.dumps(system_doc, separators=(",", ":"))
    if op.command == "verify":
        head = ["verify", "--theorem", op.target]
    else:
        head = ["check", "--props", op.target]
    return head + ["--system", spec, "--m", str(op.m), "--out", out_dir]


def plan(ops: tuple[Op, ...], seed: int, out_dir: str) -> list[list[str]]:
    """Argv lists for the operations, each on its own seeded relabeling."""
    from fuzzdyn.cli import parse_system_spec

    rng = random.Random(seed)
    return [op_argv(op, relabel(parse_system_spec(op.system), rng), out_dir)
            for op in ops]
