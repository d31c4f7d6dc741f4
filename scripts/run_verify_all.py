#!/usr/bin/env python3
"""Run every verification suite across the configured algebras and q-values,
printing one line per suite run.  A compact driver for desk-scale sweeps; the
CLI (python -m dynrx.cli verify ...) exposes the same suites one at a time.
"""

import sys
import time

from dynrx.cli import make_parser, cmd_verify

RUNS = [
    # (algebra, q, reps, suites, samples, fusion method)
    ("sl2", "4", ["1/2", "1"], ["cocycle", "qdyb", "abrr-agreement", "k-matrix",
                                "two-point", "r00", "rll", "product", "coproduct",
                                "antipode"], 5, "verma"),
    ("sl2", "2", ["1/2"], ["sixj"], 1, "verma"),
    ("sl2", "classical", ["1/2", "1"], ["cocycle", "qdyb", "k-matrix", "two-point",
                                        "asymptotics", "gauge"], 5, "verma"),
    ("sl2", "1/4", ["1/2", "1/2"], ["asymptotics"], 1, "verma"),
    ("gl2", "4", ["vector"], ["closed-form", "hecke", "abrr-agreement", "qdyb",
                              "cocycle", "gauge", "rll", "product", "coproduct",
                              "antipode"], 5, "verma"),
    ("gl3", "4", ["vector"], ["closed-form", "hecke", "abrr-agreement", "qdyb", "product",
                              "coproduct", "antipode"], 5, "verma"),
    ("gl4", "4", ["vector"], ["closed-form", "hecke", "abrr-agreement", "qdyb",
                              "cocycle", "product", "coproduct", "antipode"], 5, "verma"),
    ("gl3", "4", ["vector"], ["rll", "two-point", "r00", "k-matrix"], 2, "verma"),
    ("gl4", "4", ["vector"], ["rll", "two-point", "r00", "k-matrix"], 2, "verma"),
    ("gl3", "4", ["vector"], ["closed-form", "hecke", "qdyb", "cocycle"], 5, "abrr"),
    ("gl4", "4", ["vector"], ["closed-form", "hecke", "qdyb", "cocycle"], 5, "abrr"),
    ("gl2", "classical", ["vector"], ["closed-form", "hecke", "gauge"], 5, "verma"),
    ("gl3", "classical", ["vector"], ["closed-form", "hecke"], 5, "verma"),
]


def main():
    parser = make_parser()
    failures = 0
    for algebra, q, reps, suites, samples, method in RUNS:
        for suite in suites:
            argv = ["verify", "--algebra", algebra, "--q", q, "--reps", *reps,
                    "--suites", suite, "--samples", str(samples), "--seed", "0",
                    "--method", method, "--output", "/dev/null"]
            args = parser.parse_args(argv)
            t0 = time.perf_counter()
            rc = cmd_verify(args)
            dt = time.perf_counter() - t0
            status = "ok" if rc == 0 else "FAIL"
            print(f"{status:4}  {algebra:4} q={q:9} {suite:15} {method:5} ({dt:6.2f}s)")
            failures += rc != 0
    print(f"\n{failures} failing suite runs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
