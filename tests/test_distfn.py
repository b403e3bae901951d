"""Distribution functions, mu_x through pmspace.mu for each map kind and
PiecewiseLinear: evaluation semantics, admissibility, one-sided continuity
probes, and the transition-regularity check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmtop import distfn as df
from pmtop import pmspace as pm

BUDGET = df.SampleBudget(n_vectors=100, n_scalar_pairs=100, rng_seed=0)

FAMILIES = ("rational_from", "step_from", "step_closed_from", "floored")


def space_of(family, rho=pm.PPower(p=1.0), dim=1):
    """A space over one of the four map kinds; floored wraps rational_from."""
    if family == "floored":
        return pm.PMSpace(dim=dim, modular_map=pm.FlooredMap(pm.RationalFrom(rho), 0.1))
    kinds = {"rational_from": pm.RationalFrom, "step_from": pm.StepFrom,
             "step_closed_from": pm.ClosedStepFrom}
    return pm.PMSpace(dim=dim, modular_map=kinds[family](rho))


def mu_at(family, sigma):
    """mu_x at sigma(x) = sigma: over PPower(1) in one dimension sigma([s]) = s."""
    return pm.mu(space_of(family), [sigma])


# -- evaluation semantics ----------------------------------------------------


def test_rational_value_by_hand():
    # 1 / (1 + 1) worked by hand
    assert mu_at("rational_from", 1.0)(1.0) == pytest.approx(0.5, abs=0)


def test_step_strict_at_threshold():
    assert mu_at("step_from", 2.0)(2.0) == 0.0
    assert mu_at("step_from", 2.0)(2.0 + 1e-12) == 1.0


def test_nonpositive_arguments_evaluate_to_zero():
    for family in ("rational_from", "step_from", "step_closed_from"):
        f = mu_at(family, 2.0)
        assert f(-1.0) == 0.0
        assert f(0.0) == 0.0


def test_degenerate_rational_is_one_on_positive_axis():
    f = mu_at("rational_from", 0.0)
    assert f(0.5) == 1.0
    assert f(0.0) == 0.0


# Each kind at sigma = 2, worked by hand at t = -1, 0, the threshold 2, and 6.
_HAND = {
    "rational_from": [0.0, 0.0, 0.5, 0.75],
    "step_from": [0.0, 0.0, 0.0, 1.0],
    "step_closed_from": [0.0, 0.0, 1.0, 1.0],
    "floored": [0.0, 0.1, 0.5, 0.75],
}


@pytest.mark.parametrize("family", FAMILIES)
def test_mu_is_the_kernel_bit_for_bit(family):
    space = space_of(family, pm.PPower(p=2.0), dim=2)
    x = np.array([1.0, 1.0])                     # sigma = 1 + 1 = 2
    f = pm.mu(space, x)
    assert f.sigma == 2.0
    assert f.eval_many(np.array([-1.0, 0.0, 2.0, 6.0])).tolist() == _HAND[family]
    ts = np.array([-1.0, 0.0, 1e-3, 1.0, 2.0, 2.0 + 1e-12, 7.3, 1e3])
    assert np.array_equal(f.eval_many(ts), space.mu_matrix(x[None], ts)[0])


def test_piecewise_linear_interpolation_by_hand():
    f = df.PiecewiseLinear(breakpoints=((1.0, 0.2), (3.0, 0.8)))
    # midpoint: 0.2 + (2-1)/(3-1) * 0.6 = 0.5 by hand
    assert f(2.0) == pytest.approx(0.5)
    assert f(0.999) == 0.0          # zero left of first breakpoint
    assert f(1.0) == pytest.approx(0.2)
    assert f(10.0) == pytest.approx(0.8)  # constant right of last


def test_piecewise_linear_validates_breakpoints():
    with pytest.raises(ValueError):
        df.PiecewiseLinear(breakpoints=((1.0, 0.2), (1.0, 0.8)))
    with pytest.raises(ValueError):
        df.PiecewiseLinear(breakpoints=((0.0, 1.5),))
    with pytest.raises(ValueError):
        df.PiecewiseLinear(breakpoints=())


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
    *[_params.map(lambda s, family=family: mu_at(family, s)) for family in FAMILIES],
    monotone_pwl(),
)

_points = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(f=_functions, s=_points, t=_points)
def test_eval_is_non_decreasing(f, s, t):
    lo, hi = min(s, t), max(s, t)
    assert f(lo) <= f(hi)


@settings(max_examples=60, deadline=None)
@given(r=st.floats(min_value=1e-6, max_value=1e6), t=_points)
def test_rational_stays_below_one_for_positive_parameter(r, t):
    assert mu_at("rational_from", r)(t) < 1.0


# -- admissibility -----------------------------------------------------------


def test_delta_membership_rational_passes():
    assert df.check_delta_membership(mu_at("rational_from", 2.0), BUDGET).passed


def test_delta_membership_catches_decreasing_values():
    f = df.PiecewiseLinear(breakpoints=((0.0, 0.5), (1.0, 0.2)))
    rep = df.check_delta_membership(f, BUDGET)
    assert not rep.passed
    assert any(v["clause"] == "monotone" for v in rep.violations)


def test_delta_membership_step_at_zero_passes():
    assert df.check_delta_membership(mu_at("step_from", 0.0), BUDGET).passed


def test_delta_membership_catches_capped_supremum():
    f = df.PiecewiseLinear(breakpoints=((0.0, 0.0), (1.0, 0.999)))
    rep = df.check_delta_membership(f, BUDGET)
    assert not rep.passed
    assert any(v["clause"] == "sup_limit" for v in rep.violations)


# -- left continuity ---------------------------------------------------------


def test_left_continuity_continuous_function_passes():
    assert df.check_left_continuity(mu_at("rational_from", 1.0), 1.0, BUDGET).passed


def test_left_continuity_open_step_passes_at_its_jump():
    # 1_{t > 1} takes the value 0 at t = 1, matching its left limit.
    assert df.check_left_continuity(mu_at("step_from", 1.0), 1.0, BUDGET).passed


def test_left_continuity_crafted_jump_fails():
    delta = df.LEFT_PROBES[-1]
    f = df.PiecewiseLinear(breakpoints=((1.0, 0.0), (1.0 + delta, 1.0)))
    rep = df.check_left_continuity(f, 1.0 + delta, BUDGET)
    assert not rep.passed


def test_left_continuity_requires_positive_point():
    with pytest.raises(ValueError):
        df.check_left_continuity(mu_at("rational_from", 1.0), 0.0, BUDGET)


def test_closed_step_fails_left_continuity_at_jump():
    rep = df.check_left_continuity(mu_at("step_closed_from", 1.0), 1.0, BUDGET)
    assert not rep.passed


# -- transition regularity ---------------------------------------------------


def test_regularity_rational_passes():
    rep = df.check_transition_regularity(mu_at("rational_from", 1.0), BUDGET)
    assert rep.passed
    assert rep.notes["continuity_ok"] and rep.notes["strict_ok"]


def test_regularity_step_fails_on_continuity_with_vacuous_strict_clause():
    rep = df.check_transition_regularity(mu_at("step_from", 1.0), BUDGET)
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


# -- budget -----------------------------------------------------------------


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
