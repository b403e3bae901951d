"""Distribution functions, mu_x through a space's kernel for each map kind
and piecewise-linear shapes no kernel produces: evaluation semantics,
admissibility, left continuity through the smaller-scale witness, and the
transition-regularity scan."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmtop import distfn as df
from pmtop import pmspace as pm
from pmtop.balls import smaller_scale_witnesses

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
    """mu_x at sigma(x) = sigma as a function of t: over PPower(1) in one
    dimension sigma([s]) = s."""
    space = space_of(family)
    return lambda t: float(space.mu_matrix(np.array([[sigma]]), [t])[0, 0])


def piecewise_linear(*breakpoints):
    """Values at t of the linear interpolation through (t, v) breakpoints, as
    a one-row matrix: 0 left of the first breakpoint and the last value
    right of the last one."""
    xs, vs = (np.array(c, dtype=float) for c in zip(*breakpoints))
    return lambda t: np.where(t < xs[0], 0.0, np.interp(t, xs, vs))[None, :]


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
    assert space.sigma1(x) == 2.0
    assert space.mu_matrix(x[None], [-1.0, 0.0, 2.0, 6.0])[0].tolist() == _HAND[family]
    ts = np.array([-1.0, 0.0, 1e-3, 1.0, 2.0, 2.0 + 1e-12, 7.3, 1e3])
    assert np.array_equal(space.mu_matrix(x[None], ts)[0], space.kernel(ts, 2.0))


# -- hypothesis properties ---------------------------------------------------

_params = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


_functions = st.one_of(
    *[_params.map(lambda s, family=family: mu_at(family, s)) for family in FAMILIES])

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


def delta_membership(family, sigma):
    """The admissibility violations of mu_x at sigma(x) = sigma."""
    space = space_of(family)
    return df.check_delta_memberships(
        lambda t: space.mu_matrix(np.array([[sigma]]), t), BUDGET)[0]


def test_delta_membership_rational_passes():
    assert delta_membership("rational_from", 2.0) == []


def test_delta_membership_catches_decreasing_values():
    violations = df.check_delta_memberships(piecewise_linear((0.0, 0.5), (1.0, 0.2)),
                                            BUDGET)[0]
    assert any(v["clause"] == "monotone" for v in violations)


def test_delta_membership_step_at_zero_passes():
    assert delta_membership("step_from", 0.0) == []


def test_delta_membership_catches_capped_supremum():
    violations = df.check_delta_memberships(piecewise_linear((0.0, 0.0), (1.0, 0.999)),
                                            BUDGET)[0]
    assert any(v["clause"] == "sup_limit" for v in violations)


# -- left continuity, through the smaller-scale witness ------------------------
#
# A member y of B(x, alpha, t) keeps membership at some smaller scale exactly
# when mu_(x-y) is left-continuous at t; the witness reports a jump there.


def scale_witness(family, sigma, scale, level=0.5):
    t_star, reasons = smaller_scale_witnesses(space_of(family), [sigma], [scale], [level])
    return float(t_star[0]), reasons[0]


def test_left_continuity_continuous_function_passes():
    t_star, reason = scale_witness("rational_from", 1.0, 1.0, level=0.6)
    assert reason is None and 0.0 < t_star < 1.0


def test_left_continuity_open_step_passes_at_its_jump():
    # 1_{t > 1} is left-continuous at every t: just above its jump a
    # smaller scale in (1, t) still keeps membership.
    t_star, reason = scale_witness("step_from", 1.0, 1.0 + 1e-9)
    assert reason is None and 1.0 < t_star < 1.0 + 1e-9


def test_left_continuity_crafted_jump_fails():
    # A rise from 0 to 1 within the smallest probe step: the continuity
    # clause finds the jump at 1 and no strict-clause pair.
    f = piecewise_linear((1.0, 0.0), (1.0 + df.LEFT_PROBES[-1], 1.0))
    grid = df._regularity_grid(BUDGET.t_grid)
    (jump_rows, at, gap), (flat_rows, _), _ = df._regularity_scan(
        lambda t, rows: f(t)[0], f(grid), grid, BUDGET.epsilon)
    assert jump_rows.tolist() == [0] and flat_rows.size == 0
    assert at[0] == pytest.approx(1.0, abs=1e-6) and gap[0] > 0.5


def test_left_continuity_requires_positive_point():
    # mu vanishes at t = 0, so no ball of scale 0 has a member to witness.
    with pytest.raises(pm.PreconditionError, match="ball member"):
        scale_witness("rational_from", 1.0, 0.0)


def test_closed_step_fails_left_continuity_at_jump():
    t_star, reason = scale_witness("step_closed_from", 1.0, 1.0)
    assert np.isnan(t_star) and "left-continuity violation" in reason


# -- transition regularity ---------------------------------------------------


def regularity(family):
    """The transition-regularity report of mu_x over the sampled x."""
    return pm.check_space_regularity(space_of(family), BUDGET)


def test_regularity_rational_passes():
    rep = regularity("rational_from")
    assert rep.passed
    assert rep.notes["strict_pairs"] > 0 and not rep.notes["strict_vacuous"]


def test_regularity_step_fails_on_continuity_with_vacuous_strict_clause():
    rep = regularity("step_from")
    assert not rep.passed
    assert {v["clause"] for v in rep.violations} == {"continuity"}
    assert rep.notes["strict_vacuous"]


def test_regularity_flat_interior_segment_fails_strict_clause():
    f = piecewise_linear((1e-3, 0.0), (1.0, 0.4), (2.0, 0.4), (3.0, 1.0))
    grid = df._regularity_grid(BUDGET.t_grid)
    (jump_rows, _, _), (flat_rows, flat_cols), _ = df._regularity_scan(
        lambda t, rows: f(t)[0], f(grid), grid, BUDGET.epsilon)
    assert flat_rows.size and jump_rows.size == 0
    assert all(1.0 <= grid[j] and grid[j + 1] <= 2.0 for j in flat_cols)


# -- budget -----------------------------------------------------------------


def test_budget_validation():
    with pytest.raises(ValueError):
        df.SampleBudget(n_vectors=0)
    with pytest.raises(ValueError):
        df.SampleBudget(t_grid=(1.0, 0.5))
    with pytest.raises(ValueError):
        df.SampleBudget(epsilon=0.0)
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
    # A bool is not a number: True must not run as tolerance 1.0 or grid point 1.0.
    for bad, field in (({"epsilon": True}, "epsilon"), ({"t_grid": (True, 2)}, "t_grid[0]"),
                       ({"epsilon": np.float64("inf")}, "epsilon")):
        with pytest.raises(df.FieldError, match=rf"^{re.escape(field)} ") as err:
            df.SampleBudget(**bad)
        assert isinstance(err.value, ValueError)
    for lo, hi, count in ((1.0, float("inf"), 4), (True, 2.0, 4), (1.0, 2.0, True)):
        with pytest.raises(df.FieldError):
            df.default_t_grid(lo, hi, count)
    assert not issubclass(df.FieldError, pm.PreconditionError)


def test_budget_grid_outcomes_through_the_constructor_and_replace():
    # A list or tuple of Python floats is checked in one pass; every other
    # grid, and one that fails that pass, entry by entry: the same grids and
    # the same messages either way, through the constructor and replace.
    for grid, want in (([0.5, 2], (0.5, 2.0)), ((1, np.float64(2.5)), (1.0, 2.5)),
                       ([0.25, 0.25, 1e290], (0.25, 0.25, 1e290)),
                       (np.array([1, 3]), (1.0, 3.0))):
        for make in (lambda g: df.SampleBudget(t_grid=g), lambda g: replace(BUDGET, t_grid=g)):
            got = make(grid).t_grid
            assert got == want and all(type(t) is float for t in got)
    bound = "must be a finite number in (0, 1e+290], got"
    for grid, message in (([], "t_grid must be a non-empty list, got []"),
                          ((), "t_grid must be a non-empty list, got ()"),
                          ([1.0, True], f"t_grid[1] {bound} True"),
                          ([0.5, float("nan")], f"t_grid[1] {bound} nan"),
                          ((float("inf"),), f"t_grid[0] {bound} inf"),
                          ([0.0, 1.0], f"t_grid[0] {bound} 0.0"),
                          ([1.0, 1e300], f"t_grid[1] {bound} 1e+300"),
                          ((2.0, 1.0), "t_grid must be sorted and hold at most 1024 numbers"),
                          ([1.0] * 1025, "t_grid must be sorted and hold at most 1024 numbers")):
        for make in (lambda g: df.SampleBudget(t_grid=g), lambda g: replace(BUDGET, t_grid=g)):
            with pytest.raises(df.FieldError, match=f"^{re.escape(message)}$"):
                make(grid)


def test_check_numbers_checks_floats_in_one_pass_with_the_same_outcome():
    # A list or tuple of Python floats within the bounds comes back as its
    # own entries; one with a bad entry gets the message naming its first
    # bad entry, with or without bounds.
    values = [0.5, 2.0, 1e290]
    got = df.check_numbers(values, "v", above=0, at_most=1e290)
    assert got == tuple(values) and all(g is v for g, v in zip(got, values))
    assert df.check_numbers(tuple(values), "v") == tuple(values)
    for values, bounds, message in (
            ([1.0, float("nan"), 0.0], {}, "v[1] must be a finite number in (-inf, inf), got nan"),
            ((float("-inf"),), {}, "v[0] must be a finite number in (-inf, inf), got -inf"),
            ([0.5, 0.0], {"above": 0}, "v[1] must be a finite number in (0, inf), got 0.0"),
            ([2.0, 1.0], {"at_most": 1}, "v[0] must be a finite number in (-inf, 1], got 2.0")):
        with pytest.raises(df.FieldError, match=f"^{re.escape(message)}$"):
            df.check_numbers(values, "v", **bounds)


def test_check_number_accepts_real_scalars_unchanged():
    for value in (3, 2.5, np.float64(0.5), np.float32(0.25), np.int64(7)):
        assert df.check_number(value, "x", above=0) is value
    for value in (True, np.bool_(True), float("nan"), float("inf"), 10 ** 400, "1",
                  None, np.array(1.0), [1.0]):
        with pytest.raises(df.FieldError, match=r"^x must be a finite number"):
            df.check_number(value, "x")
    with pytest.raises(df.FieldError, match=r"^n must be an integer in \[1, 8\], got 2.0"):
        df.check_number(2.0, "n", integer=True, at_least=1, at_most=8)
    with pytest.raises(df.FieldError, match=r"^a must be a finite number in \(0, 1\), got 1"):
        df.check_number(1, "a", above=0, below=1)
