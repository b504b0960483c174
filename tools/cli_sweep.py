"""Run a fixed list of ``fuzzdyn`` CLI runs against two source trees and
report every byte difference in stdout, stderr, exit code or written files.

    python3 tools/cli_sweep.py OLD_TREE NEW_TREE [--jobs N] [--grep TEXT]

Each tree is a source checkout that holds ``src/fuzzdyn``.  Every run starts
a fresh interpreter with ``PYTHONPATH=<tree>/src``, ``PYTHONHASHSEED=0`` and
no bytecode cache, in an empty directory that is also its ``--out``
directory, and is stopped after ``TIMEOUT`` seconds.  Both trees run each
argv in the same directory path, one after the other, so a path that a
report prints reads the same on both sides.
The written files are compared by relative path and bytes.

The run list covers ``verify`` of every theorem at m=1 and m=2 on six table
systems and at m=1 on three shifts, ``check`` of every property and
``plotdata`` on each system.  One table and one shift are inline ``json:``
documents, the ingest path that every benchmark operation takes.  Each run
is made in text and in ``--json``.  Stdlib only.
The exit status is 0 when every run matches and 1 otherwise.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
import time

THEOREMS = ("transitivity", "mixing", "f-mixing", "mild-mixing",
            "a-transitivity", "equicontinuity", "uniform-rigidity",
            "proximality", "height-invariance", "cut-lemma")
CHECKS = ("transitivity,weak-mixing,mixing,mild-mixing,uniform-rigidity,"
          "equicontinuity,proximality,sensitivity,periodic-density")
#: a three-point map that is not a bijection (b has two preimages, c none)
FINITE_DOC = ('json:{"kind":"finite","points":["a","b","c"],'
              '"dist":[["0","1/2","1"],["1/2","0","1/2"],["1","1/2","0"]],'
              '"map":{"a":"b","b":"b","c":"a"}}')
#: the period-2 shift of finite type of the golden reports
PERIOD_2_SFT = ('json:{"kind":"sft","alphabet":["a","b"],'
                '"edges":[["a","b"],["b","a"]],"resolution":2}')
TABLES = ("rotation:3,1", "rotation:6,2", "gridmap:half,8", "multiply:8,2",
          "point", FINITE_DOC)
SHIFTS = ("fullshift:2,3", "goldenmean:4", PERIOD_2_SFT)

#: seconds allowed for one run
TIMEOUT = 600.0

RUNNER = "import sys; from fuzzdyn.cli import main; sys.exit(main(sys.argv[1:]))"


def runs() -> list[list[str]]:
    """The fixed argv list, in a fixed order."""
    out = []
    for system in TABLES + SHIFTS:
        for m in (1, 2) if system in TABLES else (1,):
            out += [["verify", "--system", system, "--theorem", theorem,
                     "--m", str(m)] for theorem in THEOREMS]
        out.append(["check", "--system", system, "--props", CHECKS])
        out.append(["plotdata", "--system", system])
    return [argv + mode for argv in out for mode in ([], ["--json"])]


def run_once(tree: str, argv: list[str], workdir: str) -> dict:
    """One CLI run of ``tree`` in an emptied ``workdir``: exit code, stdout,
    stderr and every file it wrote."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", RUNNER, *argv,
                               "--out", workdir],
                              cwd=workdir, env=env, capture_output=True,
                              timeout=TIMEOUT)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, stdout, stderr = "timeout", b"", b""
    files = {}
    for root, _, names in os.walk(workdir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, workdir)] = handle.read()
    return {"exit": code, "stdout": stdout, "stderr": stderr, "files": files,
            "seconds": time.perf_counter() - start}


def differences(old: dict, new: dict) -> list[str]:
    """What differs between two runs, as report lines."""
    out = []
    if old["exit"] != new["exit"]:
        out.append(f"  exit code {old['exit']} -> {new['exit']}")
    for stream in ("stdout", "stderr"):
        if old[stream] != new[stream]:
            diff = difflib.unified_diff(
                old[stream].decode(errors="replace").splitlines(),
                new[stream].decode(errors="replace").splitlines(),
                "old", "new", lineterm="", n=1)
            out.append(f"  {stream} differs:")
            out += ["    " + line for line in list(diff)[:20]]
    for name in sorted(set(old["files"]) | set(new["files"])):
        if old["files"].get(name) != new["files"].get(name):
            out.append(f"  file {name} differs or is missing on one side")
    return out


def compare(trees: tuple[str, str], argv: list[str],
            workdir: str) -> tuple[list[str], list[dict]]:
    results = [run_once(tree, argv, workdir) for tree in trees]
    shutil.rmtree(workdir, ignore_errors=True)
    return argv, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="source tree run first")
    parser.add_argument("new", help="source tree compared to it")
    parser.add_argument("--jobs", type=int, default=1,
                        help="runs at once (each starts one interpreter "
                             "at a time)")
    parser.add_argument("--grep", default="",
                        help="keep only the runs whose argv contains this")
    args = parser.parse_args(argv)
    todo = [item for item in runs() if args.grep in " ".join(item)]
    trees = tuple(os.path.abspath(t) for t in (args.old, args.new))
    for tree in trees:
        if not os.path.isdir(os.path.join(tree, "src", "fuzzdyn")):
            parser.error(f"no src/fuzzdyn under {tree}")
    differing, seconds = 0, [0.0, 0.0]
    with tempfile.TemporaryDirectory(prefix="cli-sweep-") as scratch:
        with concurrent.futures.ThreadPoolExecutor(max(1, args.jobs)) as pool:
            jobs = [pool.submit(compare, trees, item,
                                os.path.join(scratch, f"run{k}"))
                    for k, item in enumerate(todo)]
            for job in jobs:
                item, (old, new) = job.result()
                seconds[0] += old["seconds"]
                seconds[1] += new["seconds"]
                lines = differences(old, new)
                if lines:
                    differing += 1
                    print("fuzzdyn " + " ".join(item))
                    print("\n".join(lines))
    print(f"{len(todo)} runs, {differing} differ; run time "
          f"{seconds[0]:.1f} s old, {seconds[1]:.1f} s new")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
