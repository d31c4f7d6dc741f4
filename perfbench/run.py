#!/usr/bin/env python3
"""Cold-process benchmark of the dynrx CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dynrx checkout.  Each workload (see workloads.py) is a
fixed list of `dynrx` invocations, each in a fresh interpreter, as a user
runs them.  The benchmark repeats whole rounds of that list until the next
round would end after S seconds (at least one round), checks every output,
and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

attempted counts invocations, failed those that exited non-zero.  With
--trace 0 the metrics are the end-to-end ones: wall_s and cpu_s summed over a
round's invocations and peak_rss_mib of the largest single invocation, each
the median over rounds, and setup_s the median of cold imports of
`dynrx.cli` spread over the run.  With --trace 1 one round runs under
cProfile (trace_child.py) and the metrics are the per-layer figures, summed
over the round.

A host-speed probe (a stdlib-only Fraction loop) is timed before and after
the workload and printed on the line before the result, as a reference for
telling host drift from a regression.  Full records go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import trace_child
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_FIRST = 3  # set-up samples before the workload; one more follows each invocation
SETUP_CODE = "import dynrx.cli as cli; cli.make_parser()"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("DYNRX_THREADS", None)  # the default, single-threaded configuration
    # An installed package runs from byte-compiled modules; let the untimed
    # warm-up write them so that no timed process compiles the sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list, env: dict, stdout_path: str, stderr_path: str) -> dict:
    """Run one process to its end; its own wall time, CPU time and peak RSS."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mib": usage.ru_maxrss / 1024}  # ru_maxrss is in KiB on Linux


def host_probe() -> float:
    """Seconds for a fixed stdlib-only Fraction loop (no dynrx code)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 60001):
        acc = (acc + Fraction(k % 97, k % 89 + 1)) * Fraction(1, 2)
        if acc.denominator > 1 << 64:
            acc = Fraction(acc.numerator % 1000003, 7)
    return time.perf_counter() - t0


def time_setup(env: dict, work: str) -> float:
    """Seconds for a cold `import dynrx.cli` plus parser construction."""
    err = os.path.join(work, "setup.err")
    rec = run_child([sys.executable, "-c", SETUP_CODE], env, os.path.join(work, "setup.out"), err)
    if rec["rc"] != 0:
        with open(err, errors="replace") as fh:
            sys.stderr.write(fh.read()[-2000:])
        raise SystemExit(f"perfbench: cannot import dynrx.cli from {SRC}")
    return rec["wall_s"]


def run_round(workload, env: dict, work: str, trace: bool, number: int, setup: list) -> dict:
    """One pass over the workload's invocations.  Untraced, a set-up sample
    follows each invocation, so that the samples spread over the run as the
    workload does and host drift weighs on both alike."""
    records, outputs, layers = [], {}, []
    for inv in workload.invocations:
        stem = os.path.join(work, f"r{number}-{inv.label}")
        if trace:
            argv = [sys.executable, os.path.join(HERE, "trace_child.py"), stem + ".stats",
                    "--", *inv.args]
        else:
            argv = [sys.executable, "-m", "dynrx.cli", *inv.args]
        rec = run_child(argv, env, stem + ".out", stem + ".err")
        rec["label"] = inv.label
        records.append(rec)
        if not trace:
            setup.append(time_setup(env, work))
        if rec["rc"] != 0:
            with open(stem + ".err", errors="replace") as fh:
                sys.stderr.write(f"perfbench: {inv.label} exited {rec['rc']}: "
                                 f"{fh.read()[-1000:]}\n")
            continue
        with open(stem + ".out") as fh:
            try:
                outputs[inv.label] = json.load(fh)
            except ValueError:
                rec["unparsed"] = True
        if trace:
            with open(stem + ".stats") as fh:
                layers.append({"label": inv.label, **json.load(fh)})
    problems = [f"{rec['label']}: stdout is not JSON" for rec in records if rec.get("unparsed")]
    try:
        problems += workload.check(outputs)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"output does not have the expected shape: {exc!r}")
    return {"invocations": records, "problems": problems, "layers": layers,
            "wall_s": sum(r["wall_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in records)}


def sum_layers(per_invocation: list) -> dict:
    total = dict.fromkeys(trace_child.LAYER_METRICS, 0)
    for entry in per_invocation:
        for name in trace_child.LAYER_METRICS:
            total[name] += entry["layers"][name]
    return total


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "dynrx", "cli.py")):
        print(f"perfbench: no dynrx sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    env = child_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        time_setup(env, work)  # untimed: leaves the bytecode cache warm
        setup = [time_setup(env, work) for _ in range(SETUP_FIRST)]
        probe_before = host_probe()
        rounds = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            r0 = time.perf_counter()
            rounds.append(run_round(workload, env, work, bool(args.trace), len(rounds), setup))
            longest = max(longest, time.perf_counter() - r0)
            if args.trace or time.perf_counter() - start + longest > args.seconds:
                break
        probe_after = host_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in rounds for p in r["problems"]]
    for line in problems[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    attempted = sum(len(r["invocations"]) for r in rounds)
    failed = sum(1 for r in rounds for rec in r["invocations"] if rec["rc"] != 0)
    if args.trace:
        layers = sum_layers(rounds[0]["layers"])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        values = {k: statistics.median(r[k] for r in rounds)
                  for k in ("wall_s", "cpu_s", "peak_rss_mib")}
        values["setup_s"] = statistics.median(setup)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": sys.version.split()[0], "nproc": os.cpu_count(),
              "setup_samples_s": setup, "probe_before_s": probe_before,
              "probe_after_s": probe_after, "rounds": rounds, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"host probe (reference, not a metric): before {probe_before:.4f} s, "
          f"after {probe_after:.4f} s; rounds {len(rounds)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
