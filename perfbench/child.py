"""One benchmark pass: a fresh process that runs its operations in order.

Usage: ``python3 child.py PLAN.json``.  The plan names the source tree, the
argv of every operation, and whether to trace.  The child imports
``fuzzdyn.cli``, prints ``ready`` (the parent times set-up up to that
line), then calls ``fuzzdyn.cli.main`` in-process once per operation, one
after another.  After each operation, outside its timed region, it reads
the report the operation wrote and keeps only the verdict tuples the golden
table compares.  While an untraced operation runs, ``speed.Sampler`` takes
machine-speed samples.  It prints one JSON line with the outcomes at the
end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

import speed

#: kernel runs after the last operation, so every pass has speed samples
BASELINE_SAMPLES = 50

#: report file each command writes into its --out directory
REPORT_FILES = {"verify": "equivalence_report.json",
                "check": "check_report.json"}


def read_outcome(command: str, rc: int, stderr: str, out_dir: str) -> dict:
    """The comparable outcome of one operation: exit code, bound origin,
    and (item, status, exact) tuples from its report."""
    outcome: dict = {"rc": rc}
    if rc == 3:
        # "bound exceeded: <what>: size N exceeds bound B"
        line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        outcome["bound"] = line.removeprefix("bound exceeded: ") \
            .rsplit(": size", 1)[0]
    if rc == 1:
        outcome["error"] = stderr.strip().splitlines()[-1]
    if rc not in (0, 4):
        return outcome
    path = os.path.join(out_dir, REPORT_FILES[command])
    try:
        with open(path) as handle:
            doc = json.load(handle)
        os.unlink(path)
        if command == "verify":
            report = doc["report"]
            outcome["items"] = [[it["id"], it["status"], it["exact"]]
                                for it in report["items"]]
            outcome["consistent"] = report["consistent"]
            outcome["red_alert"] = report["red_alert"]
        else:
            outcome["items"] = [[name, res["status"], res["exact"]]
                                for name, res in doc["results"].items()]
    except (OSError, ValueError, KeyError, TypeError):
        return {"rc": rc, "report": "missing or unreadable"}
    return outcome


def main(plan_path: str) -> int:
    with open(plan_path) as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    from fuzzdyn import cli
    if not cli.__file__.startswith(plan["src"] + os.sep):
        print(f"fuzzdyn imported from {cli.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if plan["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    real_stdout = sys.stdout
    print("ready", flush=True)

    results = []
    sampler = None if tracer is not None else speed.Sampler()
    for index, argv in enumerate(plan["argvs"]):
        out_dir = argv[argv.index("--out") + 1]
        for name in REPORT_FILES.values():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(out_dir, name))
        if tracer is not None:
            tracer.op = index
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            if sampler is not None:
                sampler.start()
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # the installed entry point would exit 1
                traceback.print_exc()
                rc = 1
            seconds = time.perf_counter() - t0
            sampled = sampler.stop() if sampler is not None else {
                "sampling_s": 0.0, "samples": 0, "kernel_s": None}
        outcome = read_outcome(argv[0], rc, err.getvalue(), out_dir)
        results.append({"seconds": seconds - sampled["sampling_s"],
                        "samples": sampled["samples"],
                        "kernel_s": sampled["kernel_s"], "outcome": outcome})

    payload = {"ops": results,
               "baseline": {"samples": BASELINE_SAMPLES,
                            "kernel_s": speed.kernel_seconds(BASELINE_SAMPLES)}}
    if tracer is not None:
        payload["layers"] = tracer.metrics()
        with open(plan["spans"], "w") as handle:
            for record in tracer.span_records():
                handle.write(json.dumps(record) + "\n")
    real_stdout.write(json.dumps(payload) + "\n")
    real_stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
