#!/usr/bin/env python3
"""Alternating pairs of `perfbench/run.py` runs on two checkouts, recorded in a
BENCH_<n>.json file beside the cold timings of `scripts/bench_cold.py`.
Run from anywhere:

    python3 scripts/bench_pairs.py --out BENCH_17.json --workload sixj-symbolic \\
        --seeds 171-180 --seconds 34 PARENT .

Pair k runs the workload at the k-th seed once in each checkout: the first
checkout goes first in even pairs, the second in odd ones, so that drift of
the host reads the same on each.  Then one traced round (`--trace 1`) at
--trace-seed runs in each checkout.  The record is stored under
"pairs" -> workload and holds every run's end-to-end metrics and, per metric,
each checkout's median and quartiles and the number of pairs the second
checkout won (every metric is lower-is-better; ties count for neither).  It
also holds each checkout's traced per-layer metrics.

Each run also records wall_over_setup = wall_s / setup_s, summarised like the
metrics.  A host that drifts slows the cold imports that setup_s times and
the workload alike, so the ratio spreads less than wall_s does.  It is
explanatory only: a speed claim is still read from wall_s, as at least 9
pairs in 10 won and a median gap wider than the baseline's interquartile
range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def git_sha(repo: str) -> str:
    return subprocess.run(["git", "-C", repo, "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()


def perfbench(repo: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one perfbench run in `repo`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(argv, cwd=repo, capture_output=True, text=True, check=True)
    return json.loads(r.stdout.strip().splitlines()[-1])


def values(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()}


def spread(xs: list) -> dict:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": statistics.median(xs), "q1": q1, "q3": q3}


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="BENCH_<n>.json to add the record to")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seed_range, help="one seed per pair: A-B")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace-seed", type=int, default=1)
    p.add_argument("repos", nargs=2, help="the baseline checkout, then the changed one")
    args = p.parse_args(argv)
    repos = [os.path.abspath(r) for r in args.repos]
    shas = [git_sha(r) for r in repos]
    runs = []
    for k, seed in enumerate(args.seeds):
        order = [0, 1] if k % 2 == 0 else [1, 0]
        metrics = {}
        for i in order:
            res = perfbench(repos[i], args.workload, seed, args.seconds, 0)
            vals = values(res)
            metrics[shas[i]] = {"correct": res["correct"], "attempted": res["attempted"],
                                "failed": res["failed"], **vals,
                                "wall_over_setup": vals["wall_s"] / vals["setup_s"]}
        runs.append({"seed": seed, "first": shas[order[0]], "metrics": metrics})
        print(json.dumps(runs[-1]), flush=True)
    summary = {}
    for name in runs[0]["metrics"][shas[0]]:
        if name in ("correct", "attempted", "failed"):
            continue
        base = [r["metrics"][shas[0]][name] for r in runs]
        new = [r["metrics"][shas[1]][name] for r in runs]
        summary[name] = {shas[0]: spread(base), shas[1]: spread(new),
                         "wins": sum(n < b for b, n in zip(base, new)), "pairs": len(runs)}
    summary["wall_over_setup"]["role"] = "explanatory; the claim is read from wall_s"
    traced = {sha: values(perfbench(repo, args.workload, args.trace_seed, 1, 1))
              for repo, sha in zip(repos, shas)}
    record = {"baseline": shas[0], "change": shas[1], "seconds": args.seconds,
              "runs": runs, "summary": summary,
              "traced": {"seed": args.trace_seed, **traced}}
    data = {"runs": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data.setdefault("pairs", {})[args.workload] = record
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"summary": summary, "traced": record["traced"]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
