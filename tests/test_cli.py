import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynrx import cli, memo

CLI = [sys.executable, "-m", "dynrx.cli"]


def run(*args, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=e)


def test_verify_pass_exit_zero():
    r = run("verify", "--suites", "qdyb", "--algebra", "sl2", "--reps", "1/2",
            "--q", "4", "--samples", "2")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["pass"] is True
    assert payload["reports"][0]["suite"] == "qdyb"
    assert set(payload["reports"][0]) == {"suite", "config", "pass", "failures"}


def test_usage_errors_exit_two():
    assert run("verify", "--suites", "no-such-suite", "--q", "4").returncode == 2
    assert run("verify", "--suites", "qdyb", "--q", "0").returncode == 2
    assert run("compute", "--algebra", "gl3", "--object", "fusion", "--symbolic",
               "--q", "4").returncode == 2
    # argparse-level usage error
    assert run("bogus-command").returncode == 2


def test_import_loads_no_dataclass_machinery():
    # every CLI process pays for its imports; the value types are plain
    # slotted classes, so `dataclasses` and the modules it pulls in stay out.
    # Modules loaded before the import (by `site`, say) do not count.
    code = ("import sys; before = set(sys.modules); import dynrx.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    added = set(r.stdout.split())
    assert "dynrx.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis"}


@pytest.mark.parametrize("args, env", [
    (("compute", "--reps", "abc"), None),
    (("compute", "--reps", "40"), None),
    (("verify", "--suites", "hecke", "--algebra", "sl2", "--samples", "1"), None),
    (("compute", "--object", "sixj-table", "--max-spin", "abc"), None),
    (("compute", "--method", "abrr", "--q", "classical"), None),
    (("compute", "--object", "exchange", "--method", "abrr", "--q", "classical"), None),
    (("compute", "--object", "kmatrix", "--method", "abrr", "--q", "classical"), None),
    (("compute", "--symbolic", "--method", "abrr", "--q", "classical"), None),
    (("verify", "--suites", "cocycle", "--method", "abrr", "--q", "classical",
      "--samples", "1"), None),
    # q = 1 written as a number is the classical case too
    (("compute", "--q", "1", "--method", "abrr"), None),
    (("verify", "--suites", "cocycle", "--q", "1", "--method", "abrr"), None),
    (("compute", "--q", "2/2", "--method", "abrr", "--object", "exchange"), None),
    (("compute", "--bitsize", "-3"), None),
    (("verify", "--suites", "qdyb", "--samples", "0"), None),
    (("verify", "--suites", "qdyb", "--samples", "-1"), None),
    (("compute", "--object", "sixj-table", "--max-spin", "-1"), None),
    (("compute", "--object", "sixj-table", "--max-spin", "1/3"), None),
    # an sl2 R at q = 2 needs q^{1/2} = sqrt 2
    (("compute", "--q", "2", "--object", "exchange"), None),
    (("verify", "--suites", "qdyb", "--q", "2"), None),
    # classical asymptotics expand in one simple root
    (("verify", "--suites", "asymptotics", "--algebra", "gl3", "--q", "classical"), None),
    # an --output path that cannot be written
    (("compute", "--samples", "1", "--output", "/nonexistent/dir/x.json"), None),
    # csv is the sixj-table format only
    (("compute", "--format", "csv", "--samples", "1"), None),
    (("verify", "--suites", "qdyb", "--format", "csv", "--samples", "1"), None),
])
def test_bad_config_exits_two_without_traceback(args, env):
    r = run(*args, env=env)
    assert r.returncode == 2
    assert r.stderr.startswith("config error: ") and "Traceback" not in r.stderr


@pytest.mark.parametrize("args, why", [
    (("verify", "--suites", "asymptotics", "--q", "-1/4"), "not real for q = -1/4"),
    (("compute", "--q", "-4", "--object", "exchange", "--samples", "1"), "not real for q = -4"),
    (("compute", "--q", "2", "--object", "exchange", "--samples", "1"), "irrational for q = 2"),
])
def test_odd_half_power_error_names_the_kind_of_root(args, why):
    r = run(*args)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith(f"config error: q^{{1/2}} is {why};")


@pytest.mark.parametrize("option, value, rest", [
    ("--q", "-1/4", ("verify", "--suites", "asymptotics", "--samples", "1")),
    ("--max-spin", "-1/2", ("verify", "--suites", "asymptotics", "--q", "1/4", "--samples", "1")),
    ("--max-spin", "-1/2", ("verify", "--suites", "sixj")),
    ("--max-spin", "-1/2", ("compute", "--object", "sixj-table")),
    ("--q", "-1/3", ("compute", "--algebra", "gl2", "--samples", "1")),
    ("--q", "-1e3", ("compute", "--algebra", "gl2", "--samples", "1")),
    ("--q", "-.5", ("compute", "--algebra", "gl2", "--samples", "1")),
    ("--reps", "-1/2", ("compute", "--samples", "1")),
])
def test_negative_rational_values_parse_as_with_equals(option, value, rest):
    # "--q -1/4" is the value -1/4, exactly as "--q=-1/4" is, not an option
    spaced = run(*rest, option, value)
    joined = run(*rest, f"{option}={value}")
    assert spaced.returncode == joined.returncode
    assert (spaced.stdout, spaced.stderr) == (joined.stdout, joined.stderr)
    assert "usage:" not in spaced.stderr and "Traceback" not in spaced.stderr


def test_unwritable_output_exits_two_before_computing(tmp_path, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the suite ran although --output cannot be written")

    monkeypatch.setattr(cli, "verify_qdyb", unreachable)
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        assert cli.main(["verify", "--suites", "qdyb", "--samples", "1",
                         "--output", str(path)]) == 2
    assert list(tmp_path.iterdir()) == []
    # a writable path passes the check, which neither creates nor truncates it
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("kept")
    for path in (kept, fresh, "/dev/null"):
        cli.check_options(cli.make_parser().parse_args(["verify", "--output", str(path)]))
    assert kept.read_text() == "kept" and not fresh.exists()


def test_byte_stable_output():
    args = ("verify", "--suites", "hecke", "--algebra", "gl2", "--reps", "vector",
            "--q", "4", "--samples", "2", "--seed", "5")
    a, b = run(*args), run(*args)
    assert a.stdout == b.stdout and a.returncode == 0


def test_compute_reproducible_and_schema():
    args = ("compute", "--algebra", "sl2", "--reps", "1/2", "1/2", "--q", "2",
            "--samples", "1", "--seed", "7")
    a, b = run(*args), run(*args)
    assert a.returncode == 0 and a.stdout == b.stdout
    payload = json.loads(a.stdout)
    m = payload["results"][0]["matrix"]
    assert set(m) == {"rows", "cols", "basis", "entries"}
    assert m["rows"] == m["cols"] == 4
    assert payload["results"][0]["lambda"]["s"] is None  # q^{1/2} = sqrt 2


def test_compute_symbolic_gl2_exchange():
    r = run("compute", "--algebra", "gl2", "--object", "exchange", "--symbolic", "--q", "4")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    ent = payload["results"][0]["matrix"]["entries"]
    # diagonal v_a (x) v_a entries equal q = 4
    assert ent[0][0] == {"num": ["4"], "den": ["1"]}


def test_sixj_csv(tmp_path):
    out = tmp_path / "table.csv"
    r = run("compute", "--algebra", "sl2", "--object", "sixj-table", "--q", "2",
            "--max-spin", "1/2", "--format", "csv", "--output", str(out))
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,b,n,c,k,j,value"
    assert len(lines) > 1


def test_fusion_identity_for_trivial_reps():
    r = run("compute", "--algebra", "sl2", "--reps", "0", "0", "--object", "fusion",
            "--q", "4", "--samples", "1")
    payload = json.loads(r.stdout)
    assert payload["results"][0]["matrix"]["entries"] == [["1"]]


def test_verify_failure_exit_one(monkeypatch, capsys):
    # a genuinely failing mathematical check must exit 1: force one by swapping
    # the hecke row's runner for one that records a failure
    from dynrx.exchange import Report

    def forced(args, qp, reps, lams):
        rep = Report("hecke", {})
        rep.fail(reason="forced")
        return [rep]

    monkeypatch.setitem(cli.SUITES, "hecke", (forced, cli.SUITES["hecke"][1]))
    assert cli.main(["verify", "--suites", "hecke", "--algebra", "gl2", "--q", "4"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["reports"] == [{"suite": "hecke", "config": {}, "pass": False,
                                   "failures": [{"reason": "forced"}]}]


@pytest.mark.parametrize("args, message", [
    (("--suites", "cocycle", "hecke", "--algebra", "sl2"),
     "hecke suite applies to gl_N vector pairs"),
    (("--suites", "cocycle", "sixj", "--max-spin", "abc"),
     "bad --max-spin 'abc': Invalid literal for Fraction: 'abc'"),
    (("--suites", "cocycle", "closed-form", "asymptotics", "--q", "4"),
     "closed-form suite applies to gl_N"),
], ids=["hecke", "sixj-max-spin", "closed-form"])
def test_suite_that_does_not_apply_exits_two_before_any_suite_runs(args, message, monkeypatch,
                                                                   capsys):
    def unreachable(*args):
        raise AssertionError("a suite ran although a requested suite does not apply")

    monkeypatch.setattr(cli, "verify_cocycle", unreachable)
    assert cli.main(["verify", "--samples", "1", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: {message}\n"


# sha256 of stdout for fixed configurations, each captured before a refactor
# of the code it runs (the exact kernels, the difference-operator suites):
# refactors must leave every output byte unchanged.  Re-captured once when the
# emitted config gained "method"; each payload was otherwise byte-identical.
GOLDEN = [
    (("compute", "--algebra", "gl4", "--q", "4", "--samples", "2", "--seed", "5",
      "--method", "verma"),
     "1702cc398f3af025fc615b14e4906875934954a0eec0dd3626a5fe1b374b03f8"),
    (("compute", "--algebra", "gl3", "--q", "4", "--samples", "3", "--seed", "5",
      "--method", "verma"),
     "91abddb17a1c41c9caafc4f7fd9d56eaaeb7cbef4da68635109ff28d02309660"),
    (("compute", "--algebra", "gl4", "--object", "exchange", "--q", "4", "--samples", "1",
      "--seed", "2", "--method", "abrr"),
     "ab2be5b82d7fec69772d2e9a8309bd2cc0a717e9380a803f568b4ec65b420a80"),
    (("compute", "--algebra", "sl2", "--object", "sixj-table", "--q", "2", "--max-spin", "1",
      "--format", "csv"),
     "c519652273e2b84c62cb8c404f3fbb439929bc9268ce795ba82c053c88ad8c80"),
    (("compute", "--algebra", "gl2", "--object", "exchange", "--symbolic", "--q", "4"),
     "e9d8dca9579fcad2c09048c49fd00e506fbc081ed1cf9b802f07ee8ac4e340ac"),
    (("compute", "--algebra", "sl2", "--reps", "1/2", "1/2", "--q", "2", "--samples", "1",
      "--seed", "7"),
     "2c4ce503c797a3fc3040b1d570bb9774dbee4d7c2484a165c11d67af98080e55"),
    (("verify", "--suites", "closed-form", "hecke", "qdyb", "--algebra", "gl3", "--q", "4",
      "--samples", "2", "--seed", "5"),
     "9767493aec4929e532fce352176161ab0cba987e30b8cf8b4dcce1705b01742a"),
    (("verify", "--suites", "rll", "product", "coproduct", "antipode", "--algebra", "gl2",
      "--q", "4", "--samples", "2", "--seed", "5"),
     "04a0917594e3066ebd5ccd241a8a4152f7ee0466bad9c157b4f6ab0367cc5413"),
    # symbolic J^-1, R and K (RatFunc entries, so every zero stays a RatFunc zero)
    # and the sl2 relation suites: outputs of the kernels that skip exact zeros
    (("compute", "--object", "exchange", "--symbolic", "--algebra", "sl2", "--q", "classical"),
     "3ffeffb48996b3d8d6b67e80cdf9ef14bb6b4f50b1ea96d7ffd76884e2ed9fa5"),
    (("compute", "--object", "kmatrix", "--symbolic", "--algebra", "gl2", "--q", "3"),
     "a40949783b4bf87706f3156fcb11a4f9c8ded333eff0040c63dd533e33688da1"),
    (("verify", "--suites", "rll", "product", "coproduct", "antipode", "--algebra", "sl2",
      "--reps", "1/2", "1", "--q", "4", "--samples", "1", "--seed", "3"),
     "9ba96d0883a127797ded4d3ff6bb856b74d80f2ad3271683ced1554b2c186f35"),
]


@pytest.mark.parametrize("args, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(args, digest):
    r = subprocess.run(CLI + list(args), capture_output=True)  # bytes: csv rows end in \r\n
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout).hexdigest() == digest


@pytest.mark.parametrize("reps, w2", [((), "V_1/2(x)V_1"), (("--reps", "1", "1/2"), "V_1/2(x)V_1")])
def test_r00_cross_check_passes_for_half_integer_w(reps, w2):
    # W2 = W (x) V_1 shares every weight of W, also for a half-integer W
    r = run("verify", "--suites", "r00", "--algebra", "sl2", "--q", "4", *reps)
    assert r.returncode == 0, r.stderr
    reports = json.loads(r.stdout)["reports"]
    assert [(rep["suite"], rep["pass"]) for rep in reports] == [("r00", True), ("r00-cross", True)]
    assert reports[1]["config"]["W2"] == w2


@pytest.mark.parametrize("samples, used", [("25", 20), ("3", 3)])
def test_gauge_report_records_effective_samples(samples, used):
    # under sl2 the gauge suite runs the N = 2 calculus; it draws at most 20 points
    r = run("verify", "--suites", "gauge", "--algebra", "sl2", "--q", "4", "--samples", samples)
    assert r.returncode == 0, r.stderr
    (rep,) = json.loads(r.stdout)["reports"]
    assert rep["config"] == {"N": 2, "samples": used}


def test_verify_gl4_vector_suites():
    r = run("verify", "--suites", "closed-form", "hecke", "abrr-agreement", "qdyb", "cocycle",
            "--algebra", "gl4", "--q", "4", "--samples", "5")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["pass"] is True
    assert {rep["suite"] for rep in payload["reports"]} == {
        "closed-form", "hecke", "abrr-agreement", "qdyb", "cocycle"}


@pytest.mark.parametrize("args", [
    ("--algebra", "gl3", "--suites", "product", "coproduct", "antipode", "--samples", "2"),
    ("--algebra", "gl3", "--suites", "product", "coproduct", "antipode", "--method", "abrr",
     "--samples", "1"),
    ("--algebra", "gl3", "--suites", "cocycle", "qdyb", "abrr-agreement", "k-matrix",
     "--method", "abrr"),
    ("--algebra", "gl4", "--suites", "product", "coproduct", "antipode", "--method", "abrr",
     "--samples", "1"),
    ("--algebra", "gl4", "--suites", "cocycle", "k-matrix", "--method", "abrr", "--samples", "2"),
], ids=" ".join)
def test_verify_gln_suites_on_pairs_beyond_the_vector_pair(args):
    # V (x) V*, (V (x) V) (x) V and the other pairs these suites build need the universal R
    r = run("verify", "--q", "4", *args)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["pass"] is True


@pytest.mark.parametrize("algebra", ["gl3", "gl4"])
def test_compute_kmatrix_by_abrr_equals_verma(algebra):
    args = ("compute", "--object", "kmatrix", "--algebra", algebra, "--q", "4", "--samples", "2")
    abrr, verma = run(*args, "--method", "abrr"), run(*args, "--method", "verma")
    assert abrr.returncode == 0 and verma.returncode == 0, abrr.stderr + verma.stderr
    a, v = json.loads(abrr.stdout), json.loads(verma.stdout)
    assert a["results"] == v["results"]
    # the emitted config names the route, and only that differs
    assert (a["config"].pop("method"), v["config"].pop("method")) == ("abrr", "verma")
    assert a["config"] == v["config"]


def _readme_cli_lines():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        block = fh.read().partition("## CLI\n\n```\n")[2].partition("```")[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("dynrx ")]


def test_readme_cli_block_is_found():
    assert _readme_cli_lines()  # an empty list would leave the test below with no cases


@pytest.mark.parametrize("args", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_command_runs(args):
    r = run(*args)
    assert r.returncode == 0 and r.stderr == "", r.stderr


# The CLI contract over the option grammar, in process: every run exits 0, 1,
# 2 or 3 without an escaping exception, and prints exactly the documented
# top-level keys (nothing for 2 and 3).

QS = ["4", "2", "1/4", "1/3", "classical", "1", "-4"]
OBJECTS = ["fusion", "exchange", "kmatrix", "twopoint", "sixj-table"]


@st.composite
def cli_argv(draw, command, algebra):
    if algebra == "sl2":
        reps = draw(st.lists(st.sampled_from(["0", "1/2", "1"]), max_size=3))
    else:
        reps = ["vector"] * draw(st.integers(0, 3))
    argv = [command, "--algebra", algebra, "--q", draw(st.sampled_from(QS)),
            "--samples", str(draw(st.integers(1, 2))), "--seed", str(draw(st.integers(0, 99))),
            "--bitsize", str(draw(st.integers(1, 16))),
            "--method", draw(st.sampled_from(["verma", "abrr"])),
            "--max-spin", draw(st.sampled_from(["0", "1/2", "1"]))]
    fmt = draw(st.sampled_from(["json", "pretty", "csv"]))
    if reps:
        argv += ["--reps", *reps]
    if command == "compute":
        argv += ["--object", draw(st.sampled_from(OBJECTS))]
        if draw(st.booleans()):
            argv.append("--symbolic")
    else:
        argv += ["--suites", *draw(st.lists(st.sampled_from(cli.ALL_SUITES), min_size=1,
                                            max_size=2, unique=True))]
    # csv is the sixj-table format alone; a csv draw elsewhere runs as json
    if fmt == "csv" and "sixj-table" not in argv:
        fmt = "json"
    return argv + ["--format", fmt]


# one case per command and algebra, so that each is drawn from, whatever the
# derandomised search favours
@pytest.mark.parametrize("command", ["compute", "verify"])
@pytest.mark.parametrize("algebra", ["sl2", "gl2", "gl3", "gl4"])
@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_cli_contract_on_the_option_grammar(command, algebra, data):
    argv = data.draw(cli_argv(command, algebra), label="argv")
    memo.clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1, 2, 3)
    if rc >= 2:
        prefix = "config error: " if rc == 2 else "non-generic lambda: "
        assert out.getvalue() == "" and err.getvalue().startswith(prefix)
        return
    if "sixj-table" in argv and "csv" in argv:
        assert rc == 0 and out.getvalue().startswith("a,b,n,c,k,j,value\r\n")
        return
    payload = json.loads(out.getvalue())
    if argv[0] == "verify":
        assert set(payload) == {"config", "reports", "pass"} and payload["pass"] is (rc == 0)
    else:
        assert rc == 0
        assert set(payload) == {"config", "table" if "sixj-table" in argv else "results"}


def test_sixj_failure_records_under_corruption(monkeypatch):
    # one perturbed 6j-symbol: one table mismatch naming its key, and pentagon
    # records that carry both sides of the failed identity
    from dynrx import sixj

    real = sixj._sixj_fusion_impl
    target = (1, 1, 0, 1, 1, 2)  # (1/2, 1/2, 0; 1/2, 1/2, 1) in doubled spins

    def corrupted(*args):
        value = real(*args)
        return value + 1 if args[:6] == target else value

    monkeypatch.setattr(sixj, "_sixj_fusion_impl", corrupted)
    memo.clear()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(["verify", "--suites", "sixj", "--q", "2", "--max-spin", "1/2"])
    finally:
        memo.clear()  # the corrupted value must not reach later tests
    assert rc == 1
    (rep,) = json.loads(out.getvalue())["reports"]
    tables = [f for f in rep["failures"] if "key" in f]
    pentagons = [f for f in rep["failures"] if "pentagon" in f]
    assert tables == [dict(key=["1/2", "1/2", "0", "1/2", "1/2", "1"], fusion="41/20",
                           oracle="21/20")]
    assert pentagons and all(set(f) == {"pentagon", "lhs", "rhs"} for f in pentagons)
    assert all(f["lhs"] != f["rhs"] for f in pentagons)
