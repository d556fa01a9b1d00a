"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import importlib
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pins  # noqa: E402,F401
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from discnorm import lp, orlicz, pointset  # noqa: E402


def test_tail_has_ten_samples_beyond():
    xs = [float(i) for i in range(200)]
    pct, value, n = stats.tail(reversed(xs))
    assert (pct, n) == (95.0, 200)
    assert 188.5 < value < 190.5  # near the sample with exactly ten larger ones
    pct, value, n = stats.tail(xs[:11])
    assert pct == pytest.approx(100.0 / 11) and 0.0 < value < 2.0
    assert stats.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)


def test_harrell_davis_median():
    assert stats.hd_quantile([float(i) for i in range(200)], 0.5) == pytest.approx(99.5)
    assert stats.hd_quantile([5.0], 0.5) == 5.0
    # a wide gap at the middle moves the estimate smoothly, not by a jump
    lo = stats.hd_quantile([1.0] * 50 + [2.0] * 51, 0.5)
    hi = stats.hd_quantile([1.0] * 51 + [2.0] * 50, 0.5)
    assert 1.4 < hi < lo < 1.6


def test_self_time_subtracts_direct_children():
    S = tracing.Span
    spans = [S("a", 0, None, 0.0, 10.0), S("b", 0, 0, 1.0, 4.0),
             S("c", 0, 1, 2.0, 3.0), S("d", 0, 0, 5.0, 9.0)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def _ref(value):
    return {"ref": value, "ref_err": 0.0, "tol": 1e-9, "base_err": 0.0}


def test_failures_are_counted():
    ops = [wl.Op("ok", lambda: 1.0, lambda r: wl.value_failure(r, _ref(1.0))),
           wl.Op("wrong", lambda: 1.001, lambda r: wl.value_failure(r, _ref(1.0))),
           wl.Op("nan", lambda: math.nan, lambda r: wl.value_failure(r, _ref(1.0))),
           wl.Op("raises", lambda: 1 / 0, lambda r: None)]
    failures = []
    for op in ops:
        run.run_op(op, failures)
    assert [k for k, _ in failures] == ["wrong", "nan", "raises"]
    assert "ZeroDivisionError" in failures[2][1]


def test_injected_wrong_value_fails_a_query_op(monkeypatch):
    q = wl.Query()
    q.setup(run.ROOT, run.WORK)
    op = next(g[0] for g in q.round() if g[0].key.startswith("lp2.5@"))
    failures = []
    run.run_op(op, failures)
    assert failures == []
    real = lp.lp_discrepancy

    def skewed(*a, **k):
        res = real(*a, **k)
        return lp.NormResult(res.value * (1 + 1e-6), res.abs_error_estimate, res.diagnostics)

    monkeypatch.setattr(lp, "lp_discrepancy", skewed)
    run.run_op(op, failures)
    assert [k for k, _ in failures] == [op.key]


def test_cli_failure_rules():
    golden = {"exit": 1, "stdout": ""}
    tb = wl.CliResult(1, "", "Traceback (most recent call last):\nOverflowError: x\n")
    assert "traceback" in wl.cli_failure("bad-p-inf", tb, golden)
    assert "exit code 0" in wl.cli_failure("bad-trials-0", wl.CliResult(0, "", ""), golden)
    assert wl.cli_failure("bad-p-nan", wl.CliResult(1, "", "error: nan\n"), golden) is None
    c = wl.Cli()
    line = '{"name": "t", "lhs": 1.0, "rhs": 2.0, "holds": true}\n'
    c.workdir, c.golden, c.seen = HERE, {"verify-theorem2": {"exit": 0, "stdout": line}}, {}
    op = c.op("verify-theorem2")
    assert op.check(wl.CliResult(0, line, "")) is None
    assert "earlier call" in op.check(wl.CliResult(0, line.replace("2.0", "2.0001"), ""))
    golden = c.golden["verify-theorem2"]
    assert "differs from golden" in wl.cli_failure(
        "verify-theorem2", wl.CliResult(0, line.replace("2.0", "2.1"), ""), golden)
    assert "does not hold" in wl.cli_failure(
        "verify-theorem2", wl.CliResult(0, line.replace("true", "false"), ""), golden)


def _bindings():
    mods = [m for n, m in sys.modules.items() if n == "discnorm" or n.startswith("discnorm.")]
    out = {(m.__name__, a): getattr(m, a) for m in mods for _, a in tracing.FUNCTIONS
           if hasattr(m, a)}
    for modname, cls, attr in tracing.METHODS:
        out[(cls, attr)] = vars(getattr(importlib.import_module(modname), cls))[attr]
    return out


def test_tracer_restores_originals():
    importlib.import_module("discnorm.cli")
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert lp.LpCache.norm is not before[("LpCache", "norm")]
            pointset.generate_uniform(4, 2, 0)
            raise RuntimeError("leave early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert [s.name for s in tracer.spans] == ["pointset.generate_uniform"]


def test_luxemburg_anchor_counts():
    pts = pointset.generate_uniform(32, 3, 8)
    with tracing.Tracer() as tracer:
        orlicz.luxemburg_norm(pts, orlicz.OrliczSpec(2.0), cache=lp.LpCache(pts, rel_tol=1e-5))
    m = tracing.layer_metrics(tracer.spans)
    assert (m["lp.norm_calls"], m["lp.computes"], m["orlicz.bisection_steps"]) == (383, 25, 28)
    assert m["orlicz.lux_p_count"] == 25


def test_op_latencies_average_the_repeats_of_each_key():
    timed = [("a", 1.0), ("b", 4.0), ("a", 3.0), ("b", 2.0), ("c", 5.0)]
    assert run.op_latencies(timed) == [2.0, 3.0, 2.0, 3.0, 5.0]


def test_warm_up_runs_and_checks_its_ops():
    class Warm:
        def warmup(self):
            return [[wl.Op("ok", lambda: 1.0, lambda r: None),
                     wl.Op("bad", lambda: 2.0, lambda r: "wrong value")]]

    failures = []
    assert run.warm_up(Warm(), failures) == 2
    assert failures == [("bad", "wrong value")]
