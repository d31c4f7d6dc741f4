"""Command-line entry point: compute fusion/exchange/K-matrices and 6j tables,
run the identity-verification suites, emit machine-readable reports.

Exit codes: 0 all identities hold exactly; 1 mathematical failure; 2 invalid
usage/config, including an odd power of q^{1/2} asked for at a q whose square
root is irrational or, for q < 0, not real (an sl2 R at q = 2), and
`--format csv` off `compute --object sixj-table`; 3 a sampled lambda is
non-generic (a determinant or denominator the computation divides by vanishes
there); the sampled point is not redrawn.
The Verma fusion matrix J exits 3 only where the inner intertwiner's solve is
singular: it never solves the outer intertwiner, so a lambda where only that
solve is singular still gives J.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import re
import sys
from fractions import Fraction

from . import linalg
from .exchange import (
    Report,
    asymptotic_alcove,
    asymptotic_leading,
    exchange_matrix,
    fusion_matrix,
    hecke_report,
    kmat,
    kprime,
    r00_cross_check,
    r00_scalar_check,
    two_point,
    verify_cocycle,
    verify_qdyb,
)
from .gauge import (
    apply_gauge,
    closed_form_fusion,
    closed_form_hecke,
    conjugation_identity_check,
    d_operator,
    exact_one_form,
    exact_two_form,
    example_hecke,
    gauge_sequence_report,
    random_one_form,
)
from .lam import Lambda
from .liealg import AlgebraSpec, irrep_sl2, tensor, vector_rep_gln
from .dynrep import (
    verify_antipode,
    verify_coproduct_compat,
    verify_product_relation,
    verify_rll,
)
from .scalars import (
    IrrationalHalfPower,
    NonGenericLambda,
    QParam,
    RatFunc,
    scalar_to_str,
)
from .sixj import pentagon_residuals, sixj_table

class ConfigError(ValueError):
    pass


def parse_q(text: str) -> QParam:
    try:
        return QParam("1" if text == "classical" else text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad q value {text!r}: {exc}") from exc


def parse_max_spin(text: str) -> Fraction:
    try:
        max_spin = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad --max-spin {text!r}: {exc}") from exc
    if max_spin < 0 or (2 * max_spin).denominator != 1:
        raise ConfigError(f"bad --max-spin {text!r}: 2 * max-spin must be a nonnegative integer")
    return max_spin


def check_options(args) -> None:
    """Reject option values that no command can honour."""
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    if args.bitsize < 0:
        raise ConfigError(f"--bitsize must be nonnegative, got {args.bitsize}")
    if args.format == "csv" and getattr(args, "object", None) != "sixj-table":
        raise ConfigError("--format csv applies to compute --object sixj-table only")
    if args.method == "abrr" and parse_q(args.q).classical:
        raise ConfigError("--method abrr applies to the trigonometric case; "
                          "classical J uses --method verma")
    if args.output and not _writable(args.output):
        raise ConfigError(f"cannot write --output {args.output!r}")


def _writable(path: str) -> bool:
    """Whether `path` can be opened for writing; the file is neither created nor
    truncated, so a bad path is rejected before anything is computed."""
    import os

    if os.path.exists(path):
        return not os.path.isdir(path) and os.access(path, os.W_OK)
    parent = os.path.dirname(path) or "."
    return os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)


def build_reps(algebra: str, qp: QParam, reps: list):
    if algebra == "sl2":
        try:
            return [irrep_sl2(Fraction(r), qp) for r in (reps or ["1/2", "1/2"])]
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad --reps: {exc}") from exc
    n = int(algebra[2:])
    if reps and any(r != "vector" for r in reps):
        raise ConfigError(f"{algebra} supports the vector representation only")
    count = max(2, len(reps) if reps else 2)
    return [vector_rep_gln(n, qp) for _ in range(count)]


def sample_lambdas(spec: AlgebraSpec, count: int, seed: int, bits: int):
    return [Lambda.sample(spec, seed + k, bits) for k in range(count)]


def matrix_json(M, basis) -> dict:
    ent = []
    for row in M:
        out = []
        for x in row:
            out.append(x.to_json() if isinstance(x, RatFunc) else scalar_to_str(x))
        ent.append(out)
    return {"rows": len(M), "cols": len(M[0]) if M else 0, "basis": basis, "entries": ent}


def _emit(args, payload: dict, csv_rows=None):
    if args.format == "csv":  # check_options allows it for sixj-table alone
        buf = io.StringIO()
        w = csv.writer(buf)
        for row in csv_rows:
            w.writerow(row)
        text = buf.getvalue()
    elif args.format == "pretty":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write --output: {exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def config_dict(args) -> dict:
    return {
        "algebra": args.algebra,
        "q": args.q,
        "reps": list(args.reps or []),
        "symbolic": bool(getattr(args, "symbolic", False)),
        "samples": getattr(args, "samples", None),
        "seed": args.seed,
        "bitsize": args.bitsize,
        "method": args.method,
    }


def cmd_compute(args) -> int:
    qp = parse_q(args.q)
    reps = build_reps(args.algebra, qp, args.reps)
    spec = reps[0].spec
    cfg = {"command": "compute", "object": args.object, **config_dict(args)}

    if args.object == "sixj-table":
        if spec.kind != "sl2":
            raise ConfigError("sixj-table needs --algebra sl2")
        tab = sixj_table(qp, parse_max_spin(args.max_spin))
        rows = [("a", "b", "n", "c", "k", "j", "value")]
        jrows = []
        for (a, b, n, c, k, j, v) in tab.rows():
            rows.append(tuple(str(x) for x in (a, b, n, c, k, j, v)))
            jrows.append({"a": str(a), "b": str(b), "n": str(n), "c": str(c),
                          "k": str(k), "j": str(j), "value": scalar_to_str(v)})
        _emit(args, {"config": cfg, "table": jrows}, csv_rows=rows)
        return 0

    W, V = reps[0], reps[1] if len(reps) > 1 else reps[0]
    basis2 = [f"{i},{j}" for i in range(W.dim) for j in range(V.dim)]
    results = []
    if args.symbolic:
        if spec.kind == "gln" and spec.n > 2:
            raise ConfigError("symbolic mode supports sl2 and gl2 only")
        lams = [Lambda.symbolic(spec)]
    else:
        lams = sample_lambdas(spec, args.samples, args.seed, args.bitsize)
    for lam in lams:
        if args.object == "fusion":
            M = fusion_matrix(W, V, lam, args.method)
            basis = basis2
        elif args.object == "exchange":
            M = exchange_matrix(W, V, lam, args.method)
            basis = basis2
        elif args.object == "kmatrix":
            M = kmat(W, lam, args.method)
            basis = [str(i) for i in range(W.dim)]
        elif args.object == "twopoint":
            M = two_point(W, lam)
            basis = [str(i) for i in range(W.dim)]
        else:
            raise ConfigError(f"unknown object {args.object!r}")
        results.append({"matrix": matrix_json(M, basis),
                        "lambda": "symbolic" if args.symbolic else lam.to_json()})
    _emit(args, {"config": cfg, "results": results})
    return 0


def _hecke(args, qp, reps, lams):
    return [hecke_report(exchange_matrix(reps[0], reps[1], lam, args.method), reps[0], qp)
            for lam in lams]


def _abrr_agreement(args, qp, reps, lams):
    rep = Report("abrr-agreement", {"reps": [r.name for r in reps[:2]]})
    for idx, lam in enumerate(lams):
        A = fusion_matrix(reps[0], reps[1], lam, "verma")
        B = fusion_matrix(reps[0], reps[1], lam, "abrr")
        if not linalg.mat_eq(A, B):
            rep.fail(sample=idx)
    return [rep]


def _closed_form(args, qp, reps, lams):
    n = reps[0].spec.n
    rep = Report("closed-form", {"N": n})
    cfJ = closed_form_fusion(n, qp)
    cfR = closed_form_hecke(n, qp)
    for idx, lam in enumerate(lams):
        if not linalg.mat_eq(fusion_matrix(reps[0], reps[1], lam, args.method), cfJ.to_matrix(lam)):
            rep.fail(sample=idx, object="J")
        if not linalg.mat_eq(exchange_matrix(reps[0], reps[1], lam, args.method), cfR.to_matrix(lam)):
            rep.fail(sample=idx, object="R")
    return [rep]


def _kmatrix(args, qp, reps, lams):
    rep = Report("k-matrix", {"V": reps[0].name})
    for idx, lam in enumerate(lams):
        K = kmat(reps[0], lam, args.method)
        Kp = kprime(reps[0], lam, args.method)
        if not linalg.mat_eq(K, Kp):
            rep.fail(sample=idx, identity="K == K'")
        B = two_point(reps[0], lam)
        if not linalg.mat_eq(B, Kp):
            rep.fail(sample=idx, identity="B == <v, K' v*>")
        if linalg.mat_det(B) == 0:
            rep.fail(sample=idx, identity="det B != 0")
    return [rep]


def _two_point(args, qp, reps, lams):
    rep = Report("two-point", {"V": reps[0].name})
    for idx, lam in enumerate(lams):
        if linalg.mat_det(two_point(reps[0], lam)) == 0:
            rep.fail(sample=idx, identity="det B != 0")
    return [rep]


def _sixj(args, qp, reps, lams):
    max_spin = parse_max_spin(args.max_spin)
    rep = Report("sixj", {"max_spin": str(args.max_spin)})
    tf = sixj_table(qp, max_spin, "fusion")
    to = sixj_table(qp, max_spin, "oracle")
    for key in sorted(set(tf.values) | set(to.values)):
        if tf.get(*key) != to.get(*key):
            rep.fail(key=[str(x) for x in key], fusion=str(tf.get(*key)),
                     oracle=str(to.get(*key)))
    for labels, lhs, rhs in pentagon_residuals(qp, max_spin):
        rep.fail(pentagon=[str(x) for x in labels], lhs=str(lhs), rhs=str(rhs))
    return [rep]


def _sixj_reason(args, qp, spec):
    if spec.kind != "sl2":
        return "sixj suite needs sl2"
    parse_max_spin(args.max_spin)  # a bad --max-spin raises its own ConfigError
    return None


def _gauge(args, qp, reps, lams):
    spec = reps[0].spec
    N = spec.n if spec.kind == "gln" else 2
    samples = min(args.samples, 20)  # the conjugation check draws at most 20 points
    rep = Report("gauge", {"N": N, "samples": samples})
    rng = random.Random(args.seed)
    for t in range(30):
        xi = random_one_form(N, qp, rng)
        if not d_operator(d_operator(xi)).is_trivial():
            rep.fail(identity="d^2 = 0", form=t)
    xi = exact_one_form(N, qp)
    phi = exact_two_form(N, qp)
    dxi = d_operator(xi)
    if not all(dxi.value(k) == phi.value(k) for k in phi.values):
        rep.fail(identity="d xi* == phi*")
    _, _, ok = gauge_sequence_report(N, qp)
    if not ok:
        rep.fail(identity="three-step gauge sequence")
    R0 = example_hecke(N, qp)
    c = Fraction(3)
    R3 = apply_gauge(R0, ("III", c))
    if (R3.hq, R3.hp) != (c * R0.hq, c * R0.hp):
        rep.fail(identity="type III Hecke parameters")
    # gauge forms live on the N-coordinate torus; draw matching points
    pts = sample_lambdas(AlgebraSpec("gln", N, qp), samples, args.seed, args.bitsize)
    conj = conjugation_identity_check(closed_form_hecke(N, qp), xi, pts)
    if not conj.passed:
        rep.fail(identity="conjugation == type I by d xi", detail=conj.failures[:1])
    return [rep]


def _asymptotics(args, qp, reps, lams):
    if qp.classical:
        return [asymptotic_leading(reps[0], reps[1])]
    return [asymptotic_alcove(reps[0], reps[1], side, range(5, 21), args.method)
            for side in ("positive", "negative")]


def _asymptotics_reason(args, qp, spec):
    if qp.classical and spec.nsimple != 1:
        return "classical asymptotics expand in one simple root: sl2 or gl2"
    if not qp.classical and abs(qp.q) >= 1:
        return "trigonometric asymptotics need |q| < 1"
    return None


def _r00(args, qp, reps, lams):
    out = [r00_scalar_check(reps[0], reps[1], lams, args.method)]
    if reps[0].spec.kind == "sl2":
        W2 = tensor(reps[1], irrep_sl2(1, qp))  # holds every weight of W
        out.append(r00_cross_check(reps[0], reps[1], W2, lams, args.method))
    return out


# The verify suites, in their default order: name -> (runner, reason).
# runner(args, qp, reps, lams) returns the suite's reports; reps are the first
# three --reps, the last one repeated to fill, so reps[:2] is the pair.
# reason(args, qp, spec) says why the suite does not apply (or raises ConfigError
# on a bad option the suite reads), and is None where the suite always applies.
# `cmd_verify` asks every requested suite's reason before it runs any suite;
# with no --suites it runs, in this order, every suite whose reason is None.
SUITES = {
    "cocycle": (lambda args, qp, reps, lams: [verify_cocycle(*reps, lams, args.method)], None),
    "qdyb": (lambda args, qp, reps, lams: [verify_qdyb(*reps, lams, args.method)], None),
    "hecke": (_hecke, lambda args, qp, spec:
              None if spec.kind == "gln" else "hecke suite applies to gl_N vector pairs"),
    "abrr-agreement": (_abrr_agreement, lambda args, qp, spec:
                       "abrr-agreement applies to the trigonometric case" if qp.classical
                       else None),
    "closed-form": (_closed_form, lambda args, qp, spec:
                    None if spec.kind == "gln" else "closed-form suite applies to gl_N"),
    "k-matrix": (_kmatrix, None),
    "two-point": (_two_point, None),
    "sixj": (_sixj, _sixj_reason),
    "gauge": (_gauge, None),
    "rll": (lambda args, qp, reps, lams: [verify_rll(*reps, lams, args.method)], None),
    "product": (lambda args, qp, reps, lams:
                [verify_product_relation(*reps, lams, args.method)], None),
    "coproduct": (lambda args, qp, reps, lams:
                  [verify_coproduct_compat(*reps, lams, args.method)], None),
    "antipode": (lambda args, qp, reps, lams:
                 [verify_antipode(reps[0], reps[1], lams, args.method)], None),
    "asymptotics": (_asymptotics, _asymptotics_reason),
    "r00": (_r00, None),
}


def cmd_verify(args) -> int:
    qp = parse_q(args.q)
    reps = build_reps(args.algebra, qp, args.reps)
    spec = reps[0].spec
    lams = sample_lambdas(spec, args.samples, args.seed, args.bitsize)
    for s in args.suites or ():
        if s not in SUITES:
            raise ConfigError(f"unknown suite {s!r}")
    suites = []
    for s in args.suites or SUITES:
        reason = SUITES[s][1] and SUITES[s][1](args, qp, spec)
        if not reason:
            suites.append(s)
        elif args.suites:
            raise ConfigError(reason)
    trip = (reps + [reps[-1], reps[-1]])[:3]
    reports = [r.to_json() for s in suites for r in SUITES[s][0](args, qp, trip, lams)]
    all_pass = all(rj["pass"] for rj in reports)
    payload = {"config": {"command": "verify", "suites": suites, **config_dict(args)},
               "reports": reports, "pass": all_pass}
    _emit(args, payload)
    return 0 if all_pass else 1


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dynrx",
                                description="exact fusion/exchange matrices and identity suites")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("compute", "verify"):
        sp = sub.add_parser(name)
        # argparse takes "-1" and "-0.5" for values but "-1/4" for an option; read
        # every token that starts with "-" and a digit as a value, so that
        # "--q -1/4" parses as "--q=-1/4" does (no option here starts that way)
        sp._negative_number_matcher = re.compile(r"-\.?\d")
        sp.add_argument("--algebra", default="sl2", choices=["sl2", "gl2", "gl3", "gl4"])
        sp.add_argument("--q", default="4", help='rational q (e.g. "4", "1/4") or "classical"')
        sp.add_argument("--reps", nargs="*", default=None,
                        help='sl2 spins like 1/2 1, or "vector" for gl_N')
        sp.add_argument("--samples", type=int, default=5)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--bitsize", type=int, default=16)
        sp.add_argument("--method", default="verma", choices=["verma", "abrr"])
        sp.add_argument("--max-spin", default="1")
        sp.add_argument("--output", default=None)
        sp.add_argument("--format", default="json", choices=["json", "csv", "pretty"])
    sub.choices["compute"].add_argument(
        "--object", default="fusion",
        choices=["fusion", "exchange", "kmatrix", "twopoint", "sixj-table"])
    sub.choices["compute"].add_argument("--symbolic", action="store_true")
    sub.choices["verify"].add_argument("--suites", nargs="+", default=None)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        check_options(args)
        if args.command == "compute":
            return cmd_compute(args)
        return cmd_verify(args)
    except (ConfigError, IrrationalHalfPower) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonGenericLambda as exc:
        print(f"non-generic lambda: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
