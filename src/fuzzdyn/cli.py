"""Batch front door: ingest a system description, run checks or a theorem
verification, emit JSON/CSV reports and plot data.

Exit codes: 0 run completed (verdicts may still be "fails"), 2 malformed
input, 3 resource bound exceeded, 4 exact-mode red alert (the report and a
replay file are written first).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys as _sys

from . import __version__
from .analysis import (diam_decay, displacement_curve, equicontinuity_modulus,
                       is_mildly_mixing_bounded, is_mixing,
                       is_periodically_dense, is_proximal, is_sensitive,
                       is_transitive, is_uniformly_rigid, is_weakly_mixing,
                       modulus_curve)
from .catalog import GENERATOR_KINDS, base_catalog
from .errors import BoundExceeded, InputError
from .serialize import (canonical_json, format_fraction,
                        gfunction_from_jsonable, report_csv_rows,
                        report_to_jsonable, system_from_jsonable,
                        system_to_jsonable, verdict_to_jsonable, write_atomic)
from .spaces import SystemMap, as_fraction, make_grid_interval_map, \
    make_multiply, make_rotation, one_point_system
from .symbolic import full_shift, golden_mean_shift
from .theorems import THEOREM_IDS, verify_theorem


def _load_json(path: str, what: str = ""):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {what}{path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON in {path!r}: {exc}") from exc


def parse_system_spec(spec: str):
    """rotation:12,1 | multiply:9,2 | gridmap:half,8[,down] |
    fullshift:2,3 | goldenmean:4 | point | file:path | json:{...}"""
    if spec == "point":
        return one_point_system()
    if ":" not in spec:
        raise InputError(f"bad system spec {spec!r}")
    head, rest = spec.split(":", 1)
    if head == "file":
        return system_from_jsonable(_load_json(rest))
    if head == "json":
        try:
            return system_from_jsonable(json.loads(rest))
        except json.JSONDecodeError as exc:
            raise InputError(f"bad inline JSON: {exc}") from exc
    parts = rest.split(",")
    try:
        if head == "rotation":
            return make_rotation(int(parts[0]), int(parts[1]))
        if head == "multiply":
            return make_multiply(int(parts[0]), int(parts[1]))
        if head == "gridmap":
            snap = parts[2] if len(parts) > 2 else "down"
            return make_grid_interval_map(parts[0], int(parts[1]), snap)
        if head == "fullshift":
            return full_shift(int(parts[0]), int(parts[1]))
        if head == "goldenmean":
            return golden_mean_shift(int(parts[0]))
    except (IndexError, ValueError) as exc:
        raise InputError(f"bad system spec {spec!r}: {exc}") from exc
    raise InputError(f"unknown system kind {head!r}")


#: check name -> checker(system, eps) returning a Verdict
CHECKS = {
    "transitivity": lambda s, eps: is_transitive(s),
    "weak-mixing": lambda s, eps: is_weakly_mixing(s),
    "mixing": lambda s, eps: is_mixing(s),
    "mild-mixing": lambda s, eps: is_mildly_mixing_bounded(s),
    "uniform-rigidity": lambda s, eps: is_uniformly_rigid(s, eps),
    "equicontinuity": lambda s, eps: equicontinuity_modulus(s, eps),
    "proximality": lambda s, eps: is_proximal(s),
    "sensitivity": lambda s, eps: is_sensitive(s, eps),
    "periodic-density": lambda s, eps: is_periodically_dense(s),
}


def _default_eps(system):
    if isinstance(system, SystemMap):
        mp = system.space.min_positive_distance()
        if mp:
            return mp
    return as_fraction("1/2")


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def cmd_check(args) -> int:
    system = parse_system_spec(args.system)
    eps = (_default_eps(system) if args.eps is None
           else as_fraction(args.eps))
    props = [p.strip() for p in args.props.split(",") if p.strip()]
    if not props:
        raise InputError("no checks requested")
    for k, name in enumerate(props):
        if name not in CHECKS:
            raise InputError(f"unknown check {name!r}; "
                             f"known: {', '.join(CHECKS)}")
        if name in props[:k]:
            raise InputError(f"check {name!r} is repeated")
    results = {name: verdict_to_jsonable(CHECKS[name](system, eps))
               for name in props}
    payload = {
        "tool": {"name": "fuzzdyn", "version": __version__},
        "config": {"command": "check", "system": args.system,
                   "props": props, "eps": args.eps, "m": args.m},
        "system": system_to_jsonable(system),
        "results": results,
    }
    text = canonical_json(payload)
    write_atomic(os.path.join(args.out, "check_report.json"), text)
    rows = [["check", "status", "exact", "note"]]
    for name in props:
        r = results[name]
        rows.append([name, r["status"], str(r["exact"]), r.get("note", "")])
    write_atomic(os.path.join(args.out, "check_summary.csv"),
                 _csv_text(rows))
    if args.json:
        _sys.stdout.write(text)
    else:
        for name in props:
            print(f"{name}: {results[name]['status']}")
    return 0


def cmd_verify(args) -> int:
    system = parse_system_spec(args.system)
    eps = None if args.eps is None else as_fraction(args.eps)
    lambdas = None
    if args.lambdas:
        lambdas = [as_fraction(x) for x in args.lambdas.split(",")]
    exponents = None
    if args.a:
        try:
            exponents = [int(x) for x in args.a.split(",")]
        except ValueError as exc:
            raise InputError(f"bad exponent vector {args.a!r}") from exc
    g = None
    if args.g:
        path = args.g[5:] if args.g.startswith("file:") else args.g
        g = gfunction_from_jsonable(_load_json(path, "g from "))
    report = verify_theorem(args.theorem, system, m=args.m, lambdas=lambdas,
                            eps=eps, exponents=exponents, g=g)
    payload = {
        "tool": {"name": "fuzzdyn", "version": __version__},
        "config": {"command": "verify", "system": args.system,
                   "theorem": args.theorem, "m": args.m,
                   "lambdas": args.lambdas, "eps": args.eps,
                   "a": args.a},
        "report": report_to_jsonable(report),
    }
    text = canonical_json(payload)
    write_atomic(os.path.join(args.out, "equivalence_report.json"), text)
    write_atomic(os.path.join(args.out, "equivalence_matrix.csv"),
                 _csv_text(report_csv_rows(report)))
    if args.json:
        _sys.stdout.write(text)
    else:
        for it in report.items:
            print(f"{it.item_id}: {it.status}"
                  f"{' (exact)' if it.exact else ''}")
        print(f"consistent: {report.consistent}")
    if report.red_alert:
        write_atomic(os.path.join(args.out, "red_alert_replay.json"),
                     canonical_json(report.replay))
        print("red alert: exact-mode items disagree; replay written",
              file=_sys.stderr)
        return 4
    return 0


def cmd_plotdata(args) -> int:
    system = parse_system_spec(args.system)
    if not isinstance(system, SystemMap):
        raise InputError("plot data needs a finite table system")
    # the modulus first: a system past its bound exits before any curve is
    # written
    modulus = modulus_curve(system)
    decay = diam_decay(system, args.horizon)
    write_atomic(os.path.join(args.out, "diam_decay.csv"), _csv_text(
        [["n", "diam"]] +
        [[str(n), format_fraction(v)] for n, v in enumerate(decay)]))
    disp = displacement_curve(system, args.horizon)
    write_atomic(os.path.join(args.out, "rigidity.csv"), _csv_text(
        [["n", "max_displacement"]] +
        [[str(n), format_fraction(v)] for n, v in enumerate(disp)]))
    rows = [["eps", "delta"]] + [
        [format_fraction(eps), format_fraction(delta)]
        for eps, delta in modulus]
    write_atomic(os.path.join(args.out, "modulus.csv"), _csv_text(rows))
    if not args.json:
        print(f"wrote diam_decay.csv, rigidity.csv, modulus.csv to {args.out}")
    return 0


def cmd_catalog(args) -> int:
    entries = {
        "generators": list(GENERATOR_KINDS),
        "theorems": list(THEOREM_IDS),
        "checks": list(CHECKS),
        "builtin_systems": [s.label for s in base_catalog()],
    }
    if args.json:
        _sys.stdout.write(canonical_json(entries))
    else:
        for section, values in entries.items():
            print(f"{section}:")
            for v in values:
                print(f"  {v}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: ``parse_args``
    gives each run a fresh namespace and keeps nothing between runs."""
    parser = argparse.ArgumentParser(
        prog="fuzzdyn",
        description="exact checks for induced dynamics on subsets and "
                    "quantized fuzzy states")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the options it reads
    options = {
        "--out": dict(default=".", help="output directory"),
        "--json": dict(action="store_true", help="machine-readable stdout"),
        "--m": dict(type=int, default=2, help="grade grid 1/m"),
        "--eps": dict(default=None, help="epsilon as p/q"),
    }

    def common(p, names=tuple(options)):
        for name in names:
            p.add_argument(name, **options[name])

    p_check = sub.add_parser("check", help="run property checkers")
    p_check.add_argument("--system", required=True)
    p_check.add_argument("--props", required=True,
                         help="comma-separated checker names")
    common(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_verify = sub.add_parser("verify", help="verify an equivalence")
    p_verify.add_argument("--system", required=True)
    p_verify.add_argument("--theorem", required=True)
    p_verify.add_argument("--lambdas", default=None,
                          help="comma-separated heights, e.g. 1/2,1")
    p_verify.add_argument("--a", default=None,
                          help="comma-separated exponent vector")
    p_verify.add_argument("--g", default=None,
                          help="grade distortion, file:path.json")
    common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_plot = sub.add_parser("plotdata", help="emit two-column CSV curves")
    p_plot.add_argument("--system", required=True)
    common(p_plot, ("--out", "--json"))
    p_plot.add_argument("--horizon", type=int, default=None,
                        help="curve length, pre + per + 1 by default")
    p_plot.set_defaults(fn=cmd_plotdata)

    p_cat = sub.add_parser("catalog",
                           help="list generators, checks, theorem ids")
    common(p_cat, ("--json",))
    p_cat.set_defaults(fn=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "horizon", None) is not None and args.horizon < 1:
            raise InputError("--horizon must be a positive integer")
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=_sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
