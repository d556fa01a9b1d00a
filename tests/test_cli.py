"""Command-line interface: determinism, formats, and exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discnorm
from discnorm import bounds, cli
from discnorm.integrate import NumericalError
from discnorm.lp import lp_discrepancy
from discnorm.pointset import generate_uniform, load_pointset


# A child interpreter imports the same discnorm as this one, installed or not.
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(discnorm.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_uniform_deterministic(capsys, tmp_path):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    assert cli.main(["gen", "--kind", "uniform", "--n", "12", "--d", "3",
                     "--seed", "9", "--out", str(f1)]) == 0
    assert cli.main(["gen", "--kind", "uniform", "--n", "12", "--d", "3",
                     "--seed", "9", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    pts = load_pointset(f1.read_text())
    assert pts.n_points == 12 and pts.dim == 3


def test_gen_halton_known_prefix(capsys):
    code, out, _ = run_cli(["gen", "--kind", "halton", "--n", "4", "--d", "1"], capsys)
    assert code == 0
    assert [float(line) for line in out.splitlines()] == [0.5, 0.25, 0.75, 0.125]


def test_disc_lp_matches_library(capsys, tmp_path):
    f = tmp_path / "p.csv"
    cli.main(["gen", "--kind", "uniform", "--n", "10", "--d", "2",
              "--seed", "4", "--out", str(f)])
    capsys.readouterr()
    code, out, _ = run_cli(["disc", "--in", str(f), "--norm", "lp", "--p", "2"], capsys)
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    want = lp_discrepancy(generate_uniform(10, 2, seed=4), 2.0).value
    assert float(lines["value"]) == want


def test_disc_star_empty_file_needs_dim(capsys, tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    code, out, _ = run_cli(["disc", "--in", str(f), "--norm", "star", "--d", "2"], capsys)
    assert code == 0
    assert "value=1.0" in out
    code, _, err = run_cli(["disc", "--in", str(f), "--norm", "star"], capsys)
    assert code == 1


def test_disc_json_output(capsys, tmp_path):
    f = tmp_path / "p.csv"
    cli.main(["gen", "--kind", "halton", "--n", "8", "--d", "2", "--out", str(f)])
    capsys.readouterr()
    code, out, _ = run_cli(["disc", "--in", str(f), "--norm", "psi-alpha",
                            "--alpha", "2", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] > 0.0
    assert "abs_error_estimate" in payload
    assert payload["diagnostics"]["engine"] == "orlicz-series"
    assert payload["diagnostics"]["budget_exceeded"] is False
    assert payload["diagnostics"]["p_values"] > 0


def test_disc_phi_weight_descriptor(capsys, tmp_path):
    f = tmp_path / "p.csv"
    cli.main(["gen", "--kind", "uniform", "--n", "6", "--d", "1",
              "--seed", "2", "--out", str(f)])
    capsys.readouterr()
    weight = json.dumps({"kind": "power", "C": 1.0, "r": 0.5})
    code, out, _ = run_cli(["disc", "--in", str(f), "--norm", "phi",
                            "--phi", weight], capsys)
    assert code == 0
    assert "value=" in out


def test_disc_reruns_byte_identical(capsys, tmp_path):
    f = tmp_path / "p.csv"
    cli.main(["gen", "--kind", "uniform", "--n", "8", "--d", "2",
              "--seed", "7", "--out", str(f)])
    capsys.readouterr()
    argv = ["disc", "--in", str(f), "--norm", "alpha-norm", "--alpha", "1.5"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


@pytest.mark.parametrize("extra", [["--norm", "lp", "--p", "1e20"],
                                   ["--norm", "lp", "--p", "2.5", "--tol", "1e-300"],
                                   ["--norm", "psi-alpha", "--alpha", "2", "--tol", "1e-300"]])
def test_disc_extreme_p_and_tolerance_finish(capfd, tmp_path, extra):
    f = tmp_path / "p.csv"
    cli.main(["gen", "--kind", "uniform", "--n", "8", "--d", "2",
              "--seed", "0", "--out", str(f)])
    capfd.readouterr()
    code, out, err = run_cli(["disc", "--in", str(f), *extra], capfd)
    assert code == 0 and err == ""
    assert math.isfinite(float(dict(line.split("=", 1) for line in out.splitlines())["value"]))


def test_usage_errors_exit_one(capsys, tmp_path):
    f = tmp_path / "p.csv"
    cli.main(["gen", "--kind", "uniform", "--n", "4", "--d", "2",
              "--seed", "1", "--out", str(f)])
    capsys.readouterr()
    cases = [
        ["disc", "--in", str(f), "--norm", "lp"],                      # missing --p
        ["disc", "--in", str(f), "--norm", "lp", "--p", "2", "--tol", "0.5"],
        ["disc", "--in", str(tmp_path / "nope.csv"), "--norm", "star"],
        ["disc", "--in", str(f), "--norm", "phi"],                     # missing --phi
        ["disc", "--in", str(f), "--norm", "phi", "--phi", "{bad json"],
        ["sweep", "--norm", "lp", "--p", "2", "--d-range", "bogus", "--n-range", "2:4"],
        ["disc", "--in", str(f), "--norm", "lp", "--p", "inf"],
        ["disc", "--in", str(f), "--norm", "lp", "--p", "nan"],
        ["disc", "--in", str(f), "--norm", "phi", "--phi", "[1,2]"],
        ["disc", "--in", str(f), "--norm", "phi", "--phi", '{"kind":"power","C":"x","r":1}'],
        ["sweep", "--norm", "star", "--d-range", "1:2", "--n-range", "4:8", "--trials", "0"],
        ["sweep", "--norm", "star", "--d-range", "1:1", "--n-range", "0:2"],
        ["sweep", "--norm", "star", "--d-range", "1:1", "--n-range", "0:8:geometric"],
        ["sweep", "--norm", "star", "--d-range", "0:2:geometric", "--n-range", "2:4"],
        ["sweep", "--norm", "star", "--d-range", "3:1", "--n-range", "2:2"],             # empty
        ["sweep", "--norm", "star", "--d-range", "1:1", "--n-range", "8:4:geometric"],   # empty
        ["disc", "--in", str(f), "--norm", "phi", "--phi",
         '{"kind":"tabulated","knots":[[1,"nan"]]}'],
    ]
    for argv in cases:
        code, out, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err, argv


def test_argparse_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "not-a-suite"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--kind", "uniform", "--d", "2"])
    assert exc.value.code == 1


def test_numerical_failure_exits_two(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalError("synthetic blow-up")

    monkeypatch.setattr(bounds, "lp_discrepancy", boom)
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
        fh.write("0.25,0.5\n")
        name = fh.name
    try:
        code, _, err = run_cli(["disc", "--in", name, "--norm", "lp", "--p", "2"], capsys)
    finally:
        os.unlink(name)
    assert code == 2
    assert "numerical failure" in err


def test_verify_suites_pass(capsys):
    for suite in ("minconst", "construction", "stirling", "theorem2"):
        code, out, _ = run_cli(["verify", "--suite", suite], capsys)
        assert code == 0, suite
        reports = [json.loads(line) for line in out.splitlines()]
        assert reports and all(r["holds"] for r in reports)


def test_verify_failing_suite_exits_three(capsys, monkeypatch):
    from discnorm.bounds import BoundReport

    def fake(seed):
        return [BoundReport(name="fake", lhs=1.0, rhs=0.0, holds=False, margin=-1.0)]

    monkeypatch.setitem(cli._SUITES, "minconst", fake)
    code, out, _ = run_cli(["verify", "--suite", "minconst"], capsys)
    assert code == 3
    assert json.loads(out.splitlines()[0])["holds"] is False


def test_sweep_schema_and_determinism(capsys, tmp_path):
    argv = ["sweep", "--norm", "star", "--d-range", "1:2",
            "--n-range", "2:8:geometric", "--trials", "2", "--seed", "5"]
    code, out1, _ = run_cli(argv, capsys)
    assert code == 0
    code, out2, _ = run_cli(argv, capsys)
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "d,N,min_disc,initial_disc,ratio,bound"
    assert len(lines) == 1 + 2 * 3  # d in {1,2} x N in {2,4,8}
    for row in lines[1:]:
        d, n, best, initial, ratio, bound = row.split(",")
        assert float(best) <= float(initial)
        assert float(ratio) == float(best) / float(initial)
        assert float(bound) == 10.0 * (int(d) / int(n)) ** 0.5


def test_sweep_star_infeasible_rejected(capsys):
    code, _, err = run_cli(["sweep", "--norm", "star", "--d-range", "6:6",
                            "--n-range", "64:64"], capsys)
    assert code == 1
    assert "infeasible" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "discnorm", "gen", "--kind", "halton",
         "--n", "2", "--d", "1"],
        capture_output=True, text=True, timeout=120, env=_CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["0.5", "0.25"]


def test_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, discnorm; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120, env=_CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Values for every flag of every subcommand: small enough that any
# combination runs in well under a second, odd enough to reach the
# error paths.
_NUMS = ["0", "1", "2", "-1", "0.5", "1e-9", "nan", "inf", "x"]
_RANGES = ["1:2", "2:1", "3:1", "1:2:geometric", "8:4:geometric", "0:2:geometric", "1", "a:b"]
_FLAG_VALUES = {
    "--kind": ["uniform", "halton", "x"], "--n": _NUMS, "--d": _NUMS, "--seed": _NUMS,
    "--norm": ["lp", "star", "psi-alpha", "phi", "alpha-norm", "x"], "--p": _NUMS,
    "--alpha": _NUMS, "--tol": _NUMS, "--trials": _NUMS, "--suite": ["minconst", "stirling", "x"],
    "--phi": ['{"kind":"power","C":1,"r":0.5}', '{"kind":"power"}', "[1]", "{bad"],
    "--d-range": _RANGES, "--n-range": _RANGES, "--in": ["{in}", "{missing}"], "--json": [None],
}
# (required, optional) flags of each subcommand
_COMMAND_FLAGS = {
    "gen": (["--kind", "--n", "--d"], ["--seed"]),
    "disc": (["--in", "--norm"], ["--p", "--alpha", "--phi", "--tol", "--d", "--json"]),
    "verify": (["--suite"], ["--seed"]),
    "sweep": (["--norm", "--d-range", "--n-range"], ["--p", "--alpha", "--phi", "--trials"]),
}


@st.composite
def cli_argvs(draw):
    """A subcommand with its required flags, some optional ones and now
    and then a missing or foreign flag, each with a drawn value."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    required, optional = _COMMAND_FLAGS[command]
    flags = required + draw(st.lists(st.sampled_from(optional), unique=True))
    if draw(st.integers(0, 9)) == 0:
        flags = flags[1:] + [draw(st.sampled_from(sorted(_FLAG_VALUES)))]
    argv = [command]
    for flag in flags:
        value = draw(st.sampled_from(_FLAG_VALUES[flag]))
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=100, deadline=None)
@given(cli_argvs())
def test_fuzzed_argv_exits_with_a_known_code(tmp_path_factory, argv):
    tmp = tmp_path_factory.getbasetemp()
    (tmp / "in.csv").write_text("0.25,0.5\n0.75,0.125\n")
    paths = {"{in}": str(tmp / "in.csv"), "{missing}": str(tmp / "nope.csv")}
    argv = [paths.get(a, a) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
