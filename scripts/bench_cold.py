#!/usr/bin/env python3
"""Cold timings of the slow acceptance criteria (c3, c4, c7, c8), the suite
sweep, the gl4 cocycle verify and the three perfbench workloads, appended as
one run to a BENCH_<n>.json file.

Each entry runs REPEATS times and reports the median wall time of one round.
A round runs each of the entry's commands once, each in a fresh process, and
times the whole processes (interpreter start, imports and pytest collection
included).  A perfbench workload's commands are its invocation list from
`perfbench/workloads.py` at seed WORKLOAD_SEED.  Run from the root of the
repository:

    python3 scripts/bench_cold.py --out BENCH_7.json

`--repo PATH` measures another checkout (for example the parent commit) with
this same script.  A process that outlives TIMEOUT_S seconds is stopped; the
entry then records the timeout and a null median, and is not repeated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

REPEATS = 5
TIMEOUT_S = 150.0
WORKLOAD_SEED = 123
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
CRITERIA = "tests/test_acceptance.py::test_criterion_"
DYNRX = [sys.executable, "-m", "dynrx.cli"]
HERE = os.path.dirname(os.path.abspath(__file__))


def workload_entries() -> list:
    """One entry per perfbench workload: its CLI invocations, in order."""
    sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))
    from workloads import WORKLOADS

    return [(name, "cli", [DYNRX + list(inv.args) for inv in make(WORKLOAD_SEED).invocations])
            for name, make in WORKLOADS.items()]


# (name, layer, argvs run in turn from the repository root)
ENTRIES = [
    ("c3", "exchange", [PYTEST + [CRITERIA + "3_two_method_agreement"]]),
    ("c4", "exchange", [PYTEST + [CRITERIA + "4_cocycle_and_qdyb"]]),
    ("c7", "sixj", [PYTEST + [CRITERIA + "7_sixj"]]),
    ("c8", "dynrep", [PYTEST + [CRITERIA + "8_dynamical_representation_relations"]]),
    ("sweep", "cli", [[sys.executable, "scripts/run_verify_all.py"]]),
    ("gl4-cocycle", "cli", [DYNRX + ["verify", "--suites", "cocycle", "--algebra", "gl4",
                                     "--q", "4", "--samples", "5"]]),
] + workload_entries()


def git(repo: str, *args: str) -> str:
    return subprocess.run(["git", "-C", repo, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def time_entry(repo: str, argvs: list) -> dict:
    """times_s holds one wall time per round; returncodes the first nonzero
    exit code of each round's processes, or 0."""
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    times, codes = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        code = 0
        for argv in argvs:
            try:
                r = subprocess.run(argv, cwd=repo, env=env, capture_output=True,
                                   timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return {"median_s": None, "repeats": len(times) + 1, "times_s": times,
                        "returncodes": codes, "timeout_s": TIMEOUT_S}
            code = code or r.returncode
        times.append(round(time.perf_counter() - t0, 3))
        codes.append(code)
    return {"median_s": round(statistics.median(times), 3), "repeats": REPEATS,
            "times_s": times, "returncodes": codes}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repo", default=".", help="checkout to measure (default: here)")
    p.add_argument("--out", required=True, help="BENCH_<n>.json to append the run to")
    args = p.parse_args(argv)
    repo = os.path.abspath(args.repo)
    run = {
        "sha": git(repo, "rev-parse", "HEAD"),
        "dirty": bool(git(repo, "status", "--porcelain", "--", "src", "tests", "scripts")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "entries": [],
    }
    for name, layer, argvs in ENTRIES:
        entry = {"name": name, "layer": layer, **time_entry(repo, argvs)}
        print(json.dumps(entry), flush=True)
        run["entries"].append(entry)
    runs = []
    if os.path.exists(args.out):
        with open(args.out) as fh:
            runs = [r for r in json.load(fh)["runs"] if r["sha"] != run["sha"]]
    with open(args.out, "w") as fh:
        json.dump({"runs": runs + [run]}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
