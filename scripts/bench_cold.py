#!/usr/bin/env python3
"""Cold timings of the slow acceptance criteria (c3, c4, c7, c8), the suite
sweep, the gl4 cocycle verify, the gl4 product and antipode verify by Verma,
the three perfbench workloads, the CLI start-up and a bare interpreter,
appended as one run per measured checkout to a BENCH_<n>.json file.

Each entry runs REPEATS times and reports the median wall time of one round.
A round runs each of the entry's commands once, each in a fresh process, and
times the whole processes (interpreter start, imports and pytest collection
included).  A perfbench workload's commands are its invocation list from
`perfbench/workloads.py` at seed WORKLOAD_SEED.  The `startup` entry runs
perfbench's set-up command (`import dynrx.cli as cli; cli.make_parser()`, the
cold import that its setup_s times) in STARTUP_PROCESSES fresh processes per
round.  The `bare` entry runs `python -c pass` in STARTUP_PROCESSES fresh
processes per round: the floor under every entry that starts processes.
Run from the root of the repository:

    python3 scripts/bench_cold.py --out BENCH_8.json --repo PARENT .

`--repo` names the checkouts to measure with this same script (default: the
current directory).  With several, every repeat of an entry runs one round in
each checkout, and the checkout that goes first moves one place along the list
from repeat to repeat (with two, they alternate), so drift of the host over
the run reads the same on each.  Each checkout is appended as its own run.  A
process that outlives TIMEOUT_S seconds is stopped; that checkout's entry then
records the timeout and a null median, and is not repeated.  Each run also
records `src_lines`, the total line count of the checkout's `src/dynrx/*.py`.
An entry whose commands all run the `dynrx` CLI (the perfbench workloads,
gl4-cocycle and gl4-verma-relations), and the `bare` entry, also record
`stdout_sha256`, the sha256 of each command's stdout in the checkout's first
round, so a run shows whether the checkouts print the same bytes.

Timed processes run without PYTHONDONTWRITEBYTECODE, as perfbench's do: an
installed package runs from byte-compiled modules, so only the first process
of a checkout to import a module compiles it, and every later one reads the
bytecode cache that it wrote.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
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
STARTUP_PROCESSES = 10
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
CRITERIA = "tests/test_acceptance.py::test_criterion_"
DYNRX = [sys.executable, "-m", "dynrx.cli"]
BARE = [sys.executable, "-c", "pass"]
HERE = os.path.dirname(os.path.abspath(__file__))


def perfbench_entries() -> list:
    """One entry per perfbench workload (its CLI invocations, in order), then
    the `startup` entry (perfbench's set-up command, STARTUP_PROCESSES times)."""
    sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))
    from run import SETUP_CODE
    from workloads import WORKLOADS

    return [(name, "cli", [DYNRX + list(inv.args) for inv in make(WORKLOAD_SEED).invocations])
            for name, make in WORKLOADS.items()] + [
        ("startup", "cli", [[sys.executable, "-c", SETUP_CODE]] * STARTUP_PROCESSES)]


# (name, layer, argvs run in turn from the repository root)
ENTRIES = [
    ("c3", "exchange", [PYTEST + [CRITERIA + "3_two_method_agreement"]]),
    ("c4", "exchange", [PYTEST + [CRITERIA + "4_cocycle_and_qdyb"]]),
    ("c7", "sixj", [PYTEST + [CRITERIA + "7_sixj"]]),
    ("c8", "dynrep", [PYTEST + [CRITERIA + "8_dynamical_representation_relations"]]),
    ("sweep", "cli", [[sys.executable, "scripts/run_verify_all.py"]]),
    ("gl4-cocycle", "cli", [DYNRX + ["verify", "--suites", "cocycle", "--algebra", "gl4",
                                     "--q", "4", "--samples", "5"]]),
    ("gl4-verma-relations", "cli", [DYNRX + ["verify", "--algebra", "gl4", "--q", "4", "--suites",
                                             "product", "antipode", "--samples", "5",
                                             "--seed", "0"]]),
] + perfbench_entries() + [("bare", "cli", [BARE] * STARTUP_PROCESSES)]


def git(repo: str, *args: str) -> str:
    return subprocess.run(["git", "-C", repo, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def src_lines(repo: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(repo, "src", "dynrx", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def time_round(repo: str, argvs: list):
    """Wall time of one round, the first nonzero exit code of its processes
    (or 0) and the sha256 of each process's stdout; (None, None, None) if a
    process timed out."""
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    code = 0
    outs = []
    for argv in argvs:
        try:
            r = subprocess.run(argv, cwd=repo, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, None, None
        code = code or r.returncode
        outs.append(r.stdout)
    wall = round(time.perf_counter() - t0, 3)
    return wall, code, [hashlib.sha256(out).hexdigest() for out in outs]


def time_entry(repos: list, argvs: list) -> dict:
    """{repo: entry}: times_s holds one wall time per round, returncodes the
    first nonzero exit code of each round's processes, or 0, and, where every
    command runs the dynrx CLI or is BARE, stdout_sha256 the digests of the
    first round."""
    times = {repo: [] for repo in repos}
    codes = {repo: [] for repo in repos}
    digests = {}
    timed_out = set()
    for k in range(REPEATS):
        for repo in repos[k % len(repos):] + repos[:k % len(repos)]:
            if repo in timed_out:
                continue
            t, code, shas = time_round(repo, argvs)
            if t is None:
                timed_out.add(repo)
                continue
            times[repo].append(t)
            codes[repo].append(code)
            digests.setdefault(repo, shas)
    out = {}
    for repo in repos:
        if repo in timed_out:
            out[repo] = {"median_s": None, "repeats": len(times[repo]) + 1,
                         "times_s": times[repo], "returncodes": codes[repo],
                         "timeout_s": TIMEOUT_S}
        else:
            out[repo] = {"median_s": round(statistics.median(times[repo]), 3),
                         "repeats": REPEATS, "times_s": times[repo], "returncodes": codes[repo]}
        if repo in digests and all(argv[:len(DYNRX)] == DYNRX or argv == BARE
                                   for argv in argvs):
            out[repo]["stdout_sha256"] = digests[repo]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repo", nargs="+", default=["."],
                   help="checkouts to measure, interleaved (default: here)")
    p.add_argument("--out", required=True, help="BENCH_<n>.json to append the runs to")
    args = p.parse_args(argv)
    repos = [os.path.abspath(r) for r in args.repo]
    runs = {}
    for repo in repos:
        runs[repo] = {
            "sha": git(repo, "rev-parse", "HEAD"),
            "dirty": bool(git(repo, "status", "--porcelain", "--", "src", "tests", "scripts")),
            "src_lines": src_lines(repo),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "entries": [],
        }
    for run in runs.values():
        run["interleaved_with"] = [r["sha"] for r in runs.values() if r is not run]
    for name, layer, argvs in ENTRIES:
        for repo, timing in time_entry(repos, argvs).items():
            entry = {"name": name, "layer": layer, **timing}
            print(json.dumps({"sha": runs[repo]["sha"][:7], **entry}), flush=True)
            runs[repo]["entries"].append(entry)
    shas = {run["sha"] for run in runs.values()}
    data = {"runs": []}  # other keys of the file (bench_pairs.py records) are kept
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data["runs"] = [r for r in data["runs"] if r["sha"] not in shas] + list(runs.values())
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
