"""The fuzzdyn benchmark: seeded batches of ``fuzzdyn verify`` / ``check``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload table-lifts --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload shift-horizon --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke         # one cheap op per workload
    python3 perfbench/run.py --selftest      # two seeds give the same golden tuples
    python3 perfbench/run.py --record-golden # rewrite golden.json (default seed)

A measured run is a closed loop with one client: it spawns one fresh child
process per pass (see ``child.py``), and each pass runs every operation of
the workload one after another.  Passes repeat until ``--seconds`` have
elapsed.  Each pass's outcomes are checked against ``golden.json``.  With
``--trace 0`` the last stdout line holds the end-to-end metrics (medians
over passes); with ``--trace 1`` it holds the per-layer metrics of one
traced pass, plus the tracing overhead against one untraced pass.  The line
before it holds the run metadata and the spread over passes.  The exit code
is non-zero on a golden mismatch, a red alert, or a failure to run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
#: scratch space for reports, plans and span files, inside the checkout
WORK = os.path.join(ROOT, ".perfbench")

#: seed used by --record-golden, --smoke and the first --selftest pass
DEFAULT_SEED = 0
#: extra set-up-only children per measured run, for a steadier setup_s
SETUP_PROBES = 7
#: kernel runs before and after each set-up child, to scale its time
PROBE_SAMPLES = 100

#: where a BoundExceeded comes from, by the ``what`` text the CLI prints
BOUND_ORIGINS = {"product system": "spaces",
                 "fuzzy lift": "fuzzy", "fuzzy enumeration": "fuzzy",
                 "hyperspace lift": "hyperspace"}


class BenchError(Exception):
    """The benchmark could not run or its outputs were wrong."""


# -- child processes ----------------------------------------------------------

def run_child(plan_path: str) -> tuple[float, dict, float]:
    """Spawn one pass; returns (setup seconds, child payload, peak RSS MiB)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("FUZZDYN_MAX_POINTS", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, plan_path], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0 or not rest.strip():
        raise BenchError(f"pass process failed (exit {proc.returncode})")
    payload = json.loads(rest.strip().splitlines()[-1])
    return setup, payload, usage.ru_maxrss / 1024


def write_plan(path: str, argvs: list, trace: bool, spans: str = "") -> str:
    with open(path, "w") as handle:
        json.dump({"src": SRC, "argvs": argvs, "trace": trace,
                   "spans": spans}, handle)
    return path


# -- outcomes -----------------------------------------------------------------

def op_failed(outcome: dict) -> bool:
    """A failed operation exits 2, 3 or 4, or leaves no readable report."""
    return outcome["rc"] != 0 or "report" in outcome


def outcome_matches(expected: dict, got: dict) -> bool:
    """Golden comparison on verdict tuples, never on report bytes.  An
    operation recorded as refused by a bound may instead answer, if its
    report is consistent and raises no red alert."""
    if got == expected:
        return True
    return (expected["rc"] == 3 and got["rc"] == 0 and "report" not in got
            and got.get("consistent", True) and not got.get("red_alert"))


def check_pass(keys: list[str], payload: dict, golden: dict) -> dict[str, str]:
    """Operations of one pass that disagree with the golden table or raise
    a red alert, each with one line saying how."""
    bad = {}
    for key, op in zip(keys, payload["ops"]):
        got = op["outcome"]
        expected = golden.get(key)
        if got.get("red_alert"):
            bad[key] = f"red alert: {key}"
        elif expected is None:
            bad[key] = f"no golden entry: {key}"
        elif not outcome_matches(expected, got):
            bad[key] = f"golden mismatch: {key}: got {json.dumps(got)}"
    return bad


def failure_origins(payload: dict) -> dict[str, int]:
    """Failed operations by origin: the layer that raised a BoundExceeded,
    or the exit code / missing report otherwise."""
    origins: dict[str, int] = {}
    for op in payload["ops"]:
        out = op["outcome"]
        if not op_failed(out):
            continue
        if out["rc"] == 3:
            origin = BOUND_ORIGINS.get(out.get("bound", ""), "unknown-bound")
        elif "report" in out:
            origin = "missing-report"
        else:
            origin = f"exit-{out['rc']}"
        origins[origin] = origins.get(origin, 0) + 1
    return origins


# -- metadata -----------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, to attribute numbers outside git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fuzzdyn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return "unknown"


def metadata(workload: str, seed: int, trace: bool) -> dict:
    return {"workload": workload, "seed": seed, "trace": trace,
            "git_commit": git_commit(), "source_digest": source_digest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model()}


def spread(values: list[float]) -> dict:
    """Median, quartiles and count of a list of per-pass values."""
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# -- runs -----------------------------------------------------------------------

def scratch():
    """A fresh directory under WORK, removed when the block ends."""
    os.makedirs(WORK, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK)


def load_golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


def prepare(ops, seed: int, work: str) -> tuple[list[str], list[list[str]]]:
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir, exist_ok=True)
    return [op.key for op in ops], workloads.plan(ops, seed, out_dir)


def scaled_ops(payload: dict) -> list[float]:
    """Operation times of one pass at nominal speed.  Each is scaled by the
    speed samples taken during it; one too short to be sampled by the
    harmonic mean of all the pass's samples."""
    sampled = payload["ops"] + [payload["baseline"]]
    count = sum(op["samples"] for op in sampled)
    pass_kernel = count / sum(op["samples"] / op["kernel_s"]
                              for op in sampled if op["samples"])
    return [speed.scaled(op["seconds"], op["kernel_s"] or pass_kernel)
            for op in payload["ops"]]


def measure(ops, seed: int, seconds: float, work: str, golden: dict) -> dict:
    """Untraced passes until ``seconds`` elapse; end-to-end metrics.  Times
    are scaled to nominal machine speed by the speed samples taken with
    them."""
    keys, argvs = prepare(ops, seed, work)
    plan = write_plan(os.path.join(work, "plan.json"), argvs, False)
    probe = write_plan(os.path.join(work, "probe.json"), [], False)
    setups = []
    kernel = [speed.kernel_seconds(PROBE_SAMPLES)]
    for _ in range(SETUP_PROBES):
        setup = run_child(probe)[0]
        kernel.append(speed.kernel_seconds(PROBE_SAMPLES))
        setups.append(speed.scaled(setup, (kernel[-2] + kernel[-1]) / 2))
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        _, payload, rss = run_child(plan)
        payload["scaled_s"] = scaled_ops(payload)
        passes.append((payload, rss))
    bad = {}
    for payload, _ in passes:
        bad.update(check_pass(keys, payload, golden))
    walls = [sum(p["scaled_s"]) for p, _ in passes]
    slowest = [max(p["scaled_s"]) for p, _ in passes]
    raw_walls = [sum(op["seconds"] for op in p["ops"]) for p, _ in passes]
    rss = [r for _, r in passes]
    first = passes[0][0]
    attempted = len(ops)
    failed = sum(op_failed(op["outcome"]) for op in first["ops"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "slowest_op_s": statistics.median(slowest),
        "peak_rss_mib": statistics.median(rss),
        "answered_share": (attempted - failed) / attempted,
    }
    per_op = [statistics.median(p["scaled_s"][i] for p, _ in passes)
              for i in range(attempted)]
    return {"metrics": metrics, "mismatches": bad, "attempted": attempted,
            "failed": failed, "failed_share": failed / attempted,
            "failed_by_origin": failure_origins(first),
            "spread": {"setup_s": spread(setups), "wall_s": spread(walls),
                       "slowest_op_s": spread(slowest),
                       "peak_rss_mib": spread(rss),
                       "unscaled_wall_s": spread(raw_walls),
                       "probe_kernel_s": spread(kernel)},
            "op_s": dict(zip(keys, per_op))}


def trace(ops, seed: int, work: str, golden: dict, spans_path: str) -> dict:
    """One untraced and one traced pass; per-layer metrics and overhead."""
    keys, argvs = prepare(ops, seed, work)
    plain = write_plan(os.path.join(work, "plan.json"), argvs, False)
    traced = write_plan(os.path.join(work, "traced.json"), argvs, True,
                        spans_path)
    _, base, _ = run_child(plain)
    _, payload, _ = run_child(traced)
    bad = check_pass(keys, base, golden) | check_pass(keys, payload, golden)
    layers = payload["layers"]
    origins = failure_origins(payload)
    for layer in ("spaces", "fuzzy", "hyperspace"):
        layers[f"{layer}.bound_exceeded"] = origins.get(layer, 0)
    # unscaled: the traced pass takes no speed samples
    wall = sum(op["seconds"] for op in payload["ops"])
    base_wall = sum(op["seconds"] for op in base["ops"])
    layers["trace.overhead_s"] = wall - base_wall
    failed = sum(op_failed(op["outcome"]) for op in payload["ops"])
    return {"metrics": layers, "mismatches": bad, "attempted": len(ops),
            "failed": failed, "failed_share": failed / len(ops),
            "failed_by_origin": origins, "traced_wall_s": wall,
            "untraced_wall_s": base_wall}


# -- modes ----------------------------------------------------------------------

def units(trace_mode: bool) -> dict[str, str]:
    """Declared metric names and units of one mode, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    section = config["per_layer"] if trace_mode else config["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def result_line(result: dict, trace_mode: bool) -> dict:
    """The last stdout line: correctness, counts and the declared metrics."""
    unit_of = units(trace_mode)
    missing = set(unit_of) - set(result["metrics"])
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": not result["mismatches"],
        "attempted": result["attempted"],
        # operations whose outcome disagrees with the golden table; the
        # operation the golden table records as refused by a bound is
        # counted in answered_share and failed_share instead
        "failed": len(result["mismatches"]),
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in unit_of.items()},
    }


def emit(result: dict, trace_mode: bool, meta: dict) -> None:
    line = result_line(result, trace_mode)
    for message in result["mismatches"].values():
        print(message, file=sys.stderr)
    detail = {k: v for k, v in result.items()
              if k not in ("metrics", "mismatches")}
    print(json.dumps({"meta": meta, "detail": detail}))
    print(json.dumps(line))


def run_measured(args) -> int:
    ops = workloads.WORKLOADS[args.workload]
    golden = load_golden()
    with scratch() as work:
        if args.trace:
            spans = os.path.join(WORK, f"spans-{args.workload}.jsonl")
            result = trace(ops, args.seed, work, golden, spans)
        else:
            result = measure(ops, args.seed, args.seconds, work, golden)
    emit(result, bool(args.trace), metadata(args.workload, args.seed,
                                            bool(args.trace)))
    return 1 if result["mismatches"] else 0


def collect_outcomes(ops, seed: int, work: str, traced: bool):
    """Outcomes of one pass, plus its per-layer metrics when traced."""
    keys, argvs = prepare(ops, seed, work)
    plan = write_plan(os.path.join(work, "plan.json"), argvs, traced,
                      os.path.join(work, "spans.jsonl"))
    _, payload, _ = run_child(plan)
    return keys, payload


def run_record_golden() -> int:
    """Write golden.json from one pass of every workload and smoke list at
    the default seed.  Refuses to record a red alert."""
    golden = {}
    with scratch() as work:
        for ops in (*workloads.WORKLOADS.values(), *workloads.SMOKE.values()):
            keys, payload = collect_outcomes(ops, DEFAULT_SEED, work, False)
            for key, op in zip(keys, payload["ops"]):
                if op["outcome"].get("red_alert"):
                    raise BenchError(f"red alert while recording: {key}")
                golden[key] = op["outcome"]
    with open(GOLDEN, "w") as handle:
        handle.write("{\n" + ",\n".join(
            f" {json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}"
            for key in sorted(golden)) + "\n}\n")
    print(f"recorded {len(golden)} operations in {GOLDEN}")
    return 0


#: per-layer counters that must not depend on the seed
SEED_INVARIANT = ("spaces.product_states", "hyperspace.lift_states",
                  "fuzzy.lift_states", "fuzzy.enumerated_states",
                  "theorems.items")


def run_selftest(other_seed: int) -> int:
    """Every operation, traced one at a time, at two seeds: the golden
    tuples and the lift and product state counts must agree."""
    golden = load_golden()
    problems = []
    with scratch() as work:
        for name, ops in workloads.WORKLOADS.items():
            for op in ops:
                seen = {}
                for seed in (DEFAULT_SEED, other_seed):
                    keys, payload = collect_outcomes((op,), seed, work, True)
                    problems += check_pass(keys, payload, golden).values()
                    counts = {k: payload["layers"][k] for k in SEED_INVARIANT}
                    seen[seed] = (payload["ops"][0]["outcome"], counts)
                same = seen[DEFAULT_SEED] == seen[other_seed]
                print(f"{'ok ' if same else 'BAD'} {name}: {op.key} "
                      f"{json.dumps(seen[DEFAULT_SEED][1])}")
                if not same:
                    problems.append(f"seed-dependent result: {op.key}")
    for line in problems:
        print(line, file=sys.stderr)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def run_smoke() -> int:
    """One cheap operation per workload, untraced and traced; checks the
    golden table and that every declared metric is produced (with the unit
    BENCHMARK.json gives it)."""
    golden = load_golden()
    problems = []
    with scratch() as work:
        for name, ops in workloads.SMOKE.items():
            for trace_mode in (False, True):
                if trace_mode:
                    result = trace(ops, DEFAULT_SEED, work, golden,
                                   os.path.join(work, "spans.jsonl"))
                else:
                    result = measure(ops, DEFAULT_SEED, 0, work, golden)
                try:
                    line = result_line(result, trace_mode)
                except BenchError as exc:
                    problems.append(f"{name}: {exc}")
                    continue
                problems += result["mismatches"].values()
                print(f"{name} trace={int(trace_mode)}: "
                      f"{len(line['metrics'])} metrics, "
                      f"failed {result['failed']}/{result['attempted']} "
                      f"{result['failed_by_origin']}")
    for line in problems:
        print(line, file=sys.stderr)
    print("smoke " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--selftest", action="store_true")
    mode.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (args.smoke or args.selftest or args.record_golden
            or args.workload):
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "fuzzdyn", "cli.py")):
        print(f"error: no fuzzdyn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)
    try:
        if args.record_golden:
            return run_record_golden()
        if args.selftest:
            return run_selftest(args.seed if args.seed != DEFAULT_SEED else 1)
        if args.smoke:
            return run_smoke()
        return run_measured(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
