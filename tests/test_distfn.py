"""Distribution function kinds: evaluation semantics, admissibility,
one-sided continuity probes, and the transition-regularity check."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmtop import distfn as df

BUDGET = df.SampleBudget(n_vectors=100, n_scalar_pairs=100, rng_seed=0)


# -- evaluation semantics ----------------------------------------------------


def test_rational_value_by_hand():
    # 1 / (1 + 1) worked by hand
    assert df.eval_at(df.Rational(r=1.0), 1.0) == pytest.approx(0.5, abs=0)


def test_step_strict_at_threshold():
    assert df.eval_at(df.Step(threshold=2.0), 2.0) == 0.0
    assert df.eval_at(df.Step(threshold=2.0), 2.0 + 1e-12) == 1.0


def test_nonpositive_arguments_evaluate_to_zero():
    for f in (df.Rational(r=1.0), df.Step(threshold=2.0), df.StepClosed(threshold=2.0)):
        assert df.eval_at(f, -1.0) == 0.0
        assert df.eval_at(f, 0.0) == 0.0


def test_degenerate_rational_is_one_on_positive_axis():
    f = df.Rational(r=0.0)
    assert df.eval_at(f, 0.5) == 1.0
    assert df.eval_at(f, 0.0) == 0.0


def test_piecewise_linear_interpolation_by_hand():
    f = df.PiecewiseLinear(breakpoints=((1.0, 0.2), (3.0, 0.8)))
    # midpoint: 0.2 + (2-1)/(3-1) * 0.6 = 0.5 by hand
    assert df.eval_at(f, 2.0) == pytest.approx(0.5)
    assert df.eval_at(f, 0.999) == 0.0          # zero left of first breakpoint
    assert df.eval_at(f, 1.0) == pytest.approx(0.2)
    assert df.eval_at(f, 10.0) == pytest.approx(0.8)  # constant right of last


def test_piecewise_linear_validates_breakpoints():
    with pytest.raises(ValueError):
        df.PiecewiseLinear(breakpoints=((1.0, 0.2), (1.0, 0.8)))
    with pytest.raises(ValueError):
        df.PiecewiseLinear(breakpoints=((0.0, 1.5),))
    with pytest.raises(ValueError):
        df.PiecewiseLinear(breakpoints=())


def test_pointwise_min_by_hand():
    # min(1/2, 1/4) with both values worked by hand
    assert df.pointwise_min(df.Rational(r=1.0), df.Rational(r=3.0), 1.0) == pytest.approx(0.25)
    assert df.pointwise_min(df.Step(threshold=1.0), df.Step(threshold=2.0), 1.5) == 0.0


# -- hypothesis properties ---------------------------------------------------

_params = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def monotone_pwl(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    start = draw(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    gaps = draw(st.lists(st.floats(min_value=1e-3, max_value=2.0),
                         min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    ts = np.cumsum([start] + list(gaps))
    vs = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                              min_size=n, max_size=n)))
    return df.PiecewiseLinear(breakpoints=tuple(zip(ts.tolist(), vs)))


_functions = st.one_of(
    _params.map(lambda r: df.Rational(r=r)),
    _params.map(lambda t: df.Step(threshold=t)),
    _params.map(lambda t: df.StepClosed(threshold=t)),
    monotone_pwl(),
)

_points = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(f=_functions, s=_points, t=_points)
def test_eval_is_non_decreasing(f, s, t):
    lo, hi = min(s, t), max(s, t)
    assert df.eval_at(f, lo) <= df.eval_at(f, hi)


@settings(max_examples=80, deadline=None)
@given(f=_functions, g=_functions, t=_points)
def test_pointwise_min_commutes_and_is_idempotent(f, g, t):
    assert df.pointwise_min(f, g, t) == df.pointwise_min(g, f, t)
    assert df.pointwise_min(f, f, t) == df.eval_at(f, t)


@settings(max_examples=60, deadline=None)
@given(r=st.floats(min_value=1e-6, max_value=1e6), t=_points)
def test_rational_stays_below_one_for_positive_parameter(r, t):
    assert df.eval_at(df.Rational(r=r), t) < 1.0


# -- admissibility -----------------------------------------------------------


def test_delta_membership_rational_passes():
    assert df.check_delta_membership(df.Rational(r=2.0), BUDGET).passed


def test_delta_membership_catches_decreasing_values():
    f = df.PiecewiseLinear(breakpoints=((0.0, 0.5), (1.0, 0.2)))
    rep = df.check_delta_membership(f, BUDGET)
    assert not rep.passed
    assert any(v["clause"] == "monotone" for v in rep.violations)


def test_delta_membership_step_at_zero_passes():
    assert df.check_delta_membership(df.Step(threshold=0.0), BUDGET).passed


def test_delta_membership_catches_capped_supremum():
    f = df.PiecewiseLinear(breakpoints=((0.0, 0.0), (1.0, 0.999)))
    rep = df.check_delta_membership(f, BUDGET)
    assert not rep.passed
    assert any(v["clause"] == "sup_limit" for v in rep.violations)


# -- left continuity ---------------------------------------------------------


def test_left_continuity_continuous_function_passes():
    assert df.check_left_continuity(df.Rational(r=1.0), 1.0, BUDGET).passed


def test_left_continuity_open_step_passes_at_its_jump():
    # 1_{t > 1} takes the value 0 at t = 1, matching its left limit.
    assert df.check_left_continuity(df.Step(threshold=1.0), 1.0, BUDGET).passed


def test_left_continuity_crafted_jump_fails():
    delta = df.LEFT_PROBES[-1]
    f = df.PiecewiseLinear(breakpoints=((1.0, 0.0), (1.0 + delta, 1.0)))
    rep = df.check_left_continuity(f, 1.0 + delta, BUDGET)
    assert not rep.passed


def test_left_continuity_requires_positive_point():
    with pytest.raises(ValueError):
        df.check_left_continuity(df.Rational(r=1.0), 0.0, BUDGET)


def test_closed_step_fails_left_continuity_at_jump():
    rep = df.check_left_continuity(df.StepClosed(threshold=1.0), 1.0, BUDGET)
    assert not rep.passed


# -- transition regularity ---------------------------------------------------


def test_regularity_rational_passes():
    rep = df.check_transition_regularity(df.Rational(r=1.0), BUDGET)
    assert rep.passed
    assert rep.notes["continuity_ok"] and rep.notes["strict_ok"]


def test_regularity_step_fails_on_continuity_with_vacuous_strict_clause():
    rep = df.check_transition_regularity(df.Step(threshold=1.0), BUDGET)
    assert not rep.passed
    assert not rep.notes["continuity_ok"]
    assert rep.notes["strict_vacuous"]


def test_regularity_flat_interior_segment_fails_strict_clause():
    f = df.PiecewiseLinear(
        breakpoints=((1e-3, 0.0), (1.0, 0.4), (2.0, 0.4), (3.0, 1.0)))
    rep = df.check_transition_regularity(f, BUDGET)
    assert not rep.passed
    assert any(v["clause"] == "strict" for v in rep.violations)
    assert rep.notes["continuity_ok"]


# -- serialization -----------------------------------------------------------


@pytest.mark.parametrize("f", [
    df.Rational(r=0.1),
    df.Rational(r=0.0),
    df.Step(threshold=1e-3),
    df.StepClosed(threshold=2.5),
    df.PiecewiseLinear(breakpoints=((0.1, 0.0), (0.3, 0.7), (9.0, 1.0))),
    df.Floored(base=df.Rational(r=2.0), floor=0.1),
])
def test_config_round_trip_is_bit_exact(f):
    cfg = json.loads(json.dumps(f.to_config()))
    g = df.from_config(cfg)
    assert g.to_config() == f.to_config()
    ts = np.array([-1.0, 0.0, 1e-3, 0.1, 1.0, 7.3, 1e3])
    assert np.array_equal(f.eval_many(ts), g.eval_many(ts))


def test_budget_validation():
    with pytest.raises(ValueError):
        df.SampleBudget(n_vectors=0)
    with pytest.raises(ValueError):
        df.SampleBudget(t_grid=(1.0, 0.5))
    with pytest.raises(ValueError):
        df.SampleBudget(epsilon=0.0)
    with pytest.raises(ValueError):
        df.SampleBudget(vector_law="uniform")
    for grid in ((1e-3, float("inf")), (1e-3, float("nan"))):
        with pytest.raises(ValueError):
            df.SampleBudget(t_grid=grid)
    for eps in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            df.SampleBudget(epsilon=eps)
    for bad in ({"n_vectors": 1.5}, {"n_scalar_pairs": True}, {"rng_seed": 1.5},
                {"rng_seed": -1}):
        with pytest.raises(ValueError):
            df.SampleBudget(**bad)
