"""The workloads: each is a fixed list of cold `dynrx` CLI invocations made
from the workload seed, plus the checks that its outputs must pass.

Why each workload and each number was chosen is written up in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks


@dataclass(frozen=True)
class Invocation:
    label: str  # names the output in checks, logs and trace files
    args: tuple  # the arguments after `dynrx`


@dataclass(frozen=True)
class Workload:
    invocations: tuple
    check: Callable[[dict], list]  # {label: parsed stdout} -> problems


def _cli_seed(name: str, seed: int) -> int:
    """The --seed passed to the program, derived from the workload seed."""
    return random.Random(f"{name}:{seed}").randrange(1, 10 ** 6)


def _compute_cfg(algebra, q, reps, samples, seed, obj="fusion", symbolic=False) -> dict:
    return {"command": "compute", "object": obj, "algebra": algebra, "q": q,
            "reps": list(reps), "samples": samples, "seed": seed, "symbolic": symbolic}


def _tag(prefix: str, problems: list) -> list:
    return [f"{prefix}: {p}" for p in problems]


def _sampled_fusion_checks(outs: dict, labels: tuple, q: str, wW: list, wV: list) -> list:
    """Both routes' J: valid lambda, unipotent, weight-zero, and equal."""
    problems = []
    for label in labels:
        if label not in outs:
            continue
        for k, res in enumerate(outs[label]["results"]):
            J = checks.scalar_matrix(res["matrix"])
            problems += _tag(f"{label}[{k}]", checks.check_lambda(res["lambda"], Fraction(q))
                             + checks.check_fusion(J, wW, wV))
    if all(label in outs for label in labels):
        problems += checks.check_same_results(outs[labels[0]], outs[labels[1]], "verma vs abrr")
    return problems


def sixj_symbolic(seed: int) -> Workload:
    s = _cli_seed("sixj-symbolic", seed)
    rng = random.Random(s)
    gl2_q = rng.choice(["2", "3", "4", "5"])
    # evaluation points for the symbolic gl2 R: rationals of 8-bit height
    points = [Fraction(rng.randint(-255, 255) or 1, rng.randint(1, 255)) for _ in range(6)]
    sixj = ("sixj",)
    invocations = (
        Invocation("sixj", ("verify", "--suites", *sixj, "--algebra", "sl2", "--q", "2",
                            "--max-spin", "1", "--seed", str(s))),
        Invocation("gl2-exchange", ("compute", "--algebra", "gl2", "--object", "exchange",
                                    "--symbolic", "--q", gl2_q, "--seed", str(s))),
    )

    def check(outs: dict) -> list:
        problems = []
        if "sixj" in outs:
            problems += checks.check_verify(outs["sixj"], list(sixj))
            problems += checks.check_config(outs["sixj"], {"algebra": "sl2", "q": "2", "seed": s})
        if "gl2-exchange" in outs:
            out = outs["gl2-exchange"]
            problems += checks.check_config(
                out, _compute_cfg("gl2", gl2_q, [], 5, s, obj="exchange", symbolic=True))
            for res in out["results"]:
                problems += checks.check_symbolic_hecke(res["matrix"], 2, Fraction(gl2_q), points)
        return problems

    return Workload(invocations, check)


def sl2_dynrep(seed: int) -> Workload:
    s = _cli_seed("sl2-dynrep", seed)
    q, reps, samples = "4", ("1/2", "1"), 5
    suites = ("rll", "product", "coproduct", "antipode")
    common = ("--algebra", "sl2", "--reps", *reps, "--q", q, "--samples", str(samples),
              "--seed", str(s))
    invocations = (
        Invocation("relations", ("verify", "--suites", *suites, *common)),
        Invocation("fusion-verma", ("compute", *common, "--method", "verma")),
        Invocation("fusion-abrr", ("compute", *common, "--method", "abrr")),
    )

    def check(outs: dict) -> list:
        problems = []
        if "relations" in outs:
            problems += checks.check_verify(outs["relations"], list(suites))
            problems += checks.check_config(
                outs["relations"], {"algebra": "sl2", "q": q, "reps": list(reps),
                                    "samples": samples, "seed": s})
        for label in ("fusion-verma", "fusion-abrr"):
            if label in outs:
                problems += checks.check_config(outs[label],
                                                _compute_cfg("sl2", q, reps, samples, s))
        problems += _sampled_fusion_checks(outs, ("fusion-verma", "fusion-abrr"), q,
                                           checks.sl2_weights(reps[0]), checks.sl2_weights(reps[1]))
        return problems

    return Workload(invocations, check)


def gl4_vector(seed: int) -> Workload:
    s = _cli_seed("gl4-vector", seed)
    q, fusion_samples, suite_samples = "4", 2, 8
    suites = ("closed-form", "hecke", "qdyb")
    sampled = ("--algebra", "gl4", "--q", q, "--samples", str(fusion_samples), "--seed", str(s))
    invocations = (
        Invocation("fusion-verma", ("compute", *sampled, "--method", "verma")),
        Invocation("fusion-abrr", ("compute", *sampled, "--method", "abrr")),
        Invocation("exchange-abrr", ("compute", "--object", "exchange", *sampled,
                                     "--method", "abrr")),
        Invocation("suites-abrr", ("verify", "--suites", *suites, "--algebra", "gl4", "--q", q,
                                   "--samples", str(suite_samples), "--seed", str(s),
                                   "--method", "abrr")),
    )

    def check(outs: dict) -> list:
        problems = []
        for label in ("fusion-verma", "fusion-abrr"):
            if label in outs:
                problems += checks.check_config(outs[label],
                                                _compute_cfg("gl4", q, [], fusion_samples, s))
        problems += _sampled_fusion_checks(outs, ("fusion-verma", "fusion-abrr"), q,
                                           checks.gln_weights(4), checks.gln_weights(4))
        if "exchange-abrr" in outs:
            out = outs["exchange-abrr"]
            problems += checks.check_config(
                out, _compute_cfg("gl4", q, [], fusion_samples, s, obj="exchange"))
            for k, res in enumerate(out["results"]):
                R = checks.scalar_matrix(res["matrix"])
                problems += _tag(f"exchange[{k}]", checks.check_lambda(res["lambda"], Fraction(q))
                                 + checks.check_hecke(R, 4, Fraction(q)))
        if "suites-abrr" in outs:
            problems += checks.check_verify(outs["suites-abrr"], list(suites))
            problems += checks.check_config(outs["suites-abrr"], {
                "algebra": "gl4", "q": q, "samples": suite_samples, "seed": s})
        return problems

    return Workload(invocations, check)


WORKLOADS = {
    "sixj-symbolic": sixj_symbolic,
    "sl2-dynrep": sl2_dynrep,
    "gl4-vector": gl4_vector,
}
