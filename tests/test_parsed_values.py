"""Every argument is parsed once: the library computes with the value its
check rule returns, so a numpy scalar gives what the equal Python number
gives, bit for bit and type for type."""

import ast
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import discnorm
from discnorm.bounds import (NormSpec, empirical_inverse_discrepancy, hnww_empirical_check,
                             initial_alpha_lower, initial_phi_lower, lemma1_sandwich_check,
                             nbound1, theorem2_constant, theorem2_n_bound)
from discnorm.lp import LpCache, initial_lp, lp_discrepancy
from discnorm.orlicz import OrliczSpec, WeightFn, alpha_norm, luxemburg_norm
from discnorm.pointset import generate_uniform

PTS = generate_uniform(8, 2, 0)

# Each entry point, as a call from a real type and a count type to its
# output.  The reals are ones a float32 holds exactly.
CALLS = {
    "lp_discrepancy": lambda R, I: lp_discrepancy(PTS, R(2.5)),
    "lp_discrepancy_moment": lambda R, I: lp_discrepancy(PTS, R(2.0)),
    "LpCache.norm": lambda R, I: LpCache(PTS).norm(R(1.5)),
    "initial_lp": lambda R, I: initial_lp(R(2.5), I(3)),
    "luxemburg_norm_exact": lambda R, I: luxemburg_norm(PTS, OrliczSpec(R(2.0))),
    "luxemburg_norm_power": lambda R, I: luxemburg_norm(
        PTS, OrliczSpec(R(1.5), WeightFn.power(R(1.0), R(0.5)))),
    "alpha_norm": lambda R, I: alpha_norm(PTS, R(2.0)),
    "theorem2_constant": lambda R, I: theorem2_constant(R(1.5)),
    "theorem2_n_bound": lambda R, I: theorem2_n_bound(R(1.5), R(0.5), I(3)),
    "nbound1": lambda R, I: nbound1(R(0.5), I(3), WeightFn.power(R(1.0), R(0.5))),
    "initial_phi_lower": lambda R, I: initial_phi_lower(I(3), WeightFn.power(R(1.0), R(0.5))),
    "initial_alpha_lower": lambda R, I: initial_alpha_lower(I(3), R(2.0)),
    "lemma1_exponential": lambda R, I: lemma1_sandwich_check(PTS, R(1.5)),
    "lemma1_general": lambda R, I: lemma1_sandwich_check(
        PTS, R(2.0), phi=WeightFn.power(R(1.0), R(0.5))),
    "hnww_empirical_check": lambda R, I: hnww_empirical_check(I(2), I(16), I(2), I(0)),
    "empirical_inverse_discrepancy": lambda R, I: empirical_inverse_discrepancy(
        NormSpec("lp", p=R(2.0)), R(0.5), I(2), k_trials=I(2), seed=I(0)),
}

# The check rules whose value must be used.
CHECK_RULES = {"check_int", "check_real", "check_p", "check_rel_tol"}


def _typed(x):
    """``x`` with every leaf as (type, repr), so a type change shows."""
    if is_dataclass(x):
        return _typed(asdict(x))
    if isinstance(x, dict):
        return {k: _typed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(_typed(v) for v in x)
    return type(x), repr(x)


@pytest.mark.parametrize("real, count", [(np.float64, np.int64), (np.float32, np.int32)],
                         ids=["64", "32"])
@pytest.mark.parametrize("name", CALLS)
def test_numpy_scalars_compute_as_python_numbers(name, real, count):
    want, got = CALLS[name](float, int), CALLS[name](real, count)
    assert _typed(got) == _typed(want)
    if is_dataclass(got):
        assert json.dumps(asdict(got)) == json.dumps(asdict(want))


def test_a_numpy_alpha_alone_gives_the_python_bound():
    got = theorem2_n_bound(np.float32(1.5), 0.5, 3)
    assert type(got) is int and got == theorem2_n_bound(1.5, 0.5, 3)


def test_no_check_rule_call_throws_its_value_away():
    bare = []
    for path in sorted(Path(discnorm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                func = node.value.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in CHECK_RULES:
                    bare.append(f"{path.name}:{node.lineno}")
    assert bare == []
