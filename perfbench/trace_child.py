"""Run one dynrx CLI invocation under cProfile and write its per-layer figures.

    python3 trace_child.py STATS_JSON -- CLI_ARGS...

The CLI runs exactly as `dynrx CLI_ARGS...` would: same stdout, same exit
code.  `dynrx.cli` is imported before the profiler starts, so import cost
(measured on its own as `setup_s`) stays out of the figures.  STATS_JSON gets
the layer metrics named in LAYER_METRICS and the twenty functions with the
most self time.

cProfile is deterministic: call counts repeat exactly from run to run, while
times carry its per-call overhead (3-5x on this code).  Calls into C
functions are not profiled: their time counts as self time of the Python
function that made them (math.gcd inside fractions, for example), and
`process.calls` counts Python-level calls only.
"""

from __future__ import annotations

import cProfile
import json
import os
import sys
import types

# The public function each count or time is read from: (module, qualname).
CALLS = {
    "scalars.ratfunc_make_calls": ("scalars", "RatFunc.make"),
    "linalg.mat_mul_calls": ("linalg", "mat_mul"),
    "linalg.solve_calls": ("linalg", "solve_linear"),
    "liealg.universal_r_calls": ("liealg", "universal_r"),
    "liealg.r_zero_part_calls": ("liealg", "r_zero_part"),
    "intertwine.solve_calls": ("intertwine", "solve_intertwiner"),
    "intertwine.compose_calls": ("intertwine", "compose_intertwiners"),
    "exchange.fusion_calls": ("exchange", "fusion_matrix"),
    "exchange.fusion_verma_computed": ("exchange", "_fusion_verma"),
    "exchange.fusion_abrr_computed": ("exchange", "fusion_matrix_abrr"),
    "exchange.exchange_calls": ("exchange", "exchange_matrix"),
    "exchange.exchange_computed": ("exchange", "_exchange_matrix_impl"),
    "exchange.inverse_calls": ("exchange", "invert_unipotent"),
    "exchange.fingerprint_calls": ("exchange", "rep_fingerprint"),
    "sixj.fusion_calls": ("sixj", "_sixj_fusion_impl"),
}
# Inclusive time of the listed functions (none of them calls another).
INCLUSIVE = {
    "linalg.mat_mul_s": [("linalg", "mat_mul")],
    "liealg.universal_r_s": [("liealg", "universal_r")],
    "verma.word_basis_s": [("verma", "word_basis")],
    "intertwine.solve_s": [("intertwine", "solve_intertwiner")],
    "exchange.inverse_s": [("exchange", "invert_unipotent")],
    "sixj.fusion_s": [("sixj", "sixj_fusion")],
    "sixj.oracle_s": [("sixj", "sixj_oracle")],
    "dynrep.verify_s": [("dynrep", name) for name in (
        "verify_rll", "verify_product_relation", "verify_coproduct_compat",
        "verify_antipode")],
    "cli.emit_s": [("cli", "_emit")],
}
# Self time of every function defined in the module.
MODULE_SELF = {
    "linalg.self_s": "linalg",
    "verma.self_s": "verma",
    "exchange.self_s": "exchange",
    "dynrep.self_s": "dynrep",
}
# Self time of the classes that make up rational-function arithmetic.
RATFUNC_CLASSES = ("RatFunc", "Poly")

LAYER_METRICS = (
    "scalars.fraction_s", "scalars.ratfunc_s", "scalars.ratfunc_make_calls",
    "linalg.self_s", "linalg.mat_mul_calls", "linalg.mat_mul_s", "linalg.solve_calls",
    "liealg.universal_r_calls", "liealg.universal_r_s", "liealg.r_zero_part_calls",
    "verma.word_basis_s", "verma.self_s",
    "intertwine.solve_calls", "intertwine.compose_calls", "intertwine.solve_s",
    "exchange.fusion_calls", "exchange.fusion_verma_computed",
    "exchange.fusion_abrr_computed", "exchange.exchange_calls",
    "exchange.exchange_computed", "exchange.inverse_calls", "exchange.inverse_s",
    "exchange.fingerprint_calls", "exchange.self_s",
    "sixj.fusion_calls", "sixj.fusion_s", "sixj.oracle_s",
    "dynrep.self_s", "dynrep.verify_s",
    "cli.emit_s", "process.calls",
)


def _qualnames(package) -> dict:
    """id(code) -> (module, qualname) for every code object reachable from the
    package's modules.  Keyed by identity: two comprehensions on one line share
    (file, line, name), the key pstats would merge them under."""
    out = {}

    def walk_code(code, module, qualname):
        out[id(code)] = (module, qualname)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                inner = getattr(const, "co_qualname", f"{qualname}.<locals>.{const.co_name}")
                walk_code(const, module, inner)

    def walk_obj(obj, module):
        obj = getattr(obj, "__func__", obj)  # staticmethod / classmethod
        obj = getattr(obj, "fget", obj)  # property
        obj = getattr(obj, "__wrapped__", obj)  # functools wrappers such as lru_cache
        if isinstance(obj, types.FunctionType):
            walk_code(obj.__code__, module, obj.__qualname__)

    for modname, mod in list(sys.modules.items()):
        if not modname.startswith(package + "."):
            continue
        short = modname[len(package) + 1:]
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != modname:
                continue
            if isinstance(obj, type):
                for member in vars(obj).values():
                    walk_obj(member, short)
            else:
                walk_obj(obj, short)
    return out


def layer_metrics(entries: list, names: dict) -> dict:
    """Fold the profiler's per-code-object entries into the layer metrics.
    Functions missing from this version of the code count 0."""
    by_name: dict = {}
    module_self: dict = {}
    fraction_s = ratfunc_s = 0.0
    calls = 0
    for entry in entries:
        code, nc, tt, ct = entry.code, entry.callcount, entry.inlinetime, entry.totaltime
        calls += nc
        if os.path.basename(code.co_filename) == "fractions.py":
            fraction_s += tt
        hit = names.get(id(code))
        if hit is None:
            continue
        module, qualname = hit
        module_self[module] = module_self.get(module, 0.0) + tt
        if module == "scalars" and qualname.split(".")[0] in RATFUNC_CLASSES:
            ratfunc_s += tt
        prev = by_name.get(hit, (0, 0.0))
        by_name[hit] = (prev[0] + nc, prev[1] + ct)
    out = {"scalars.fraction_s": fraction_s, "scalars.ratfunc_s": ratfunc_s,
           "process.calls": calls}
    for metric, fn in CALLS.items():
        out[metric] = by_name.get(fn, (0, 0.0))[0]
    for metric, fns in INCLUSIVE.items():
        out[metric] = sum(by_name.get(fn, (0, 0.0))[1] for fn in fns)
    for metric, module in MODULE_SELF.items():
        out[metric] = module_self.get(module, 0.0)
    return {m: out[m] for m in LAYER_METRICS}


def top_functions(entries: list, names: dict, count: int = 20) -> list:
    out = []
    for entry in sorted(entries, key=lambda e: e.inlinetime, reverse=True)[:count]:
        code = entry.code
        module, qualname = names.get(id(code), (os.path.basename(code.co_filename), code.co_name))
        out.append({"function": f"{module}:{qualname}", "calls": entry.callcount,
                    "self_s": entry.inlinetime, "inclusive_s": entry.totaltime})
    return out


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_child.py STATS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    stats_path, cli_args = argv[0], argv[2:]
    from dynrx import cli

    prof = cProfile.Profile(builtins=False)
    prof.enable()
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        prof.disable()
        sys.stdout.flush()
    entries = prof.getstats()  # builtins=False: every entry is a Python code object
    names = _qualnames("dynrx")
    with open(stats_path, "w") as fh:
        json.dump({"layers": layer_metrics(entries, names),
                   "top": top_functions(entries, names)}, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
