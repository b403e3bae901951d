"""Witness constructions: refinement, local base, separation, and the two
vector-operation continuity witnesses.  Sampled evidence is cross-checked
against the closed-form offset-radius oracle wherever one exists."""

import numpy as np
import pytest

import pmtop as p
from pmtop.balls import contains_many, sample_members

BUDGET = p.SampleBudget(n_vectors=300, n_scalar_pairs=300, rng_seed=23)

SP1 = p.rational_space(p.PPower(p=1.0), 1, declared_c=2.0)
SP2 = p.rational_space(p.PPower(p=1.0), 2, declared_c=2.0)
WAB = p.rational_space(p.WeightedAbs(weights=(1.0,)), 1, declared_c=2.0, declared_beta=1.0)
STEP = p.step_space(p.WeightedAbs(weights=(1.0,)), 1, declared_c=2.0, declared_beta=1.0)


# -- refinement ---------------------------------------------------------------


def test_refine_ball_hand_worked_interior_point():
    # outer B(0, 0.5, 1) on the degree-1 line, c = 2, z = 0.4.
    # Feasible splits solve mu_z(tau/2) > 0.5, i.e. tau > 2 * 0.4 = 0.8;
    # the midpoint of (0.8, 1) is 0.9, so the inner scale is 0.05 and the
    # inner level 0.25.  All by hand from t/(t+r).
    outer = p.Ball(SP1, np.zeros(1), 0.5, 1.0)
    w = p.refine_ball(SP1, outer, np.array([0.4]), BUDGET)
    assert w.split == pytest.approx(0.9, abs=1e-9)
    assert w.inner.level == pytest.approx(0.25)
    assert w.inner.scale == pytest.approx(0.05, abs=1e-9)
    assert min(w.mu_at_split, w.member_level) > 1.0 - w.slack > 1.0 - outer.level
    assert w.evidence.passed
    # independent oracle: every sampled inner member keeps |y| < 1.
    rng = np.random.default_rng(1)
    members = sample_members(w.inner, rng, 200, band=1e-9)
    assert np.all(np.abs(members) < 1.0)


def test_refine_ball_at_center_is_always_feasible():
    outer = p.Ball(SP1, np.zeros(1), 0.5, 1.0)
    w = p.refine_ball(SP1, outer, np.zeros(1), BUDGET)
    assert w.split == pytest.approx(0.5, abs=1e-6)
    assert w.evidence.passed


def test_refine_ball_infeasible_at_half_radius_for_doubling_two():
    # With c = 2 the chain needs mu_(x-z)(t/2) > 1 - alpha; at z = 0.5 the
    # value is exactly 0.5, so the construction has no feasible split.
    outer = p.Ball(SP1, np.zeros(1), 0.5, 1.0)
    with pytest.raises(p.InfeasibleConstruction):
        p.refine_ball(SP1, outer, np.array([0.5]), BUDGET)


def test_refine_ball_requires_membership():
    outer = p.Ball(SP1, np.zeros(1), 0.5, 1.0)
    with pytest.raises(p.PreconditionError):
        p.refine_ball(SP1, outer, np.array([1.5]), BUDGET)
    # the closure boundary (offset radius exactly) is not a member either:
    # mu equals 1 - alpha there and strict membership demands a margin.
    with pytest.raises(p.PreconditionError):
        p.refine_ball(SP1, outer, np.array([1.0]), BUDGET)


def test_refine_ball_needs_declared_constant():
    bare = p.rational_space(p.PPower(p=1.0), 1)
    outer = p.Ball(bare, np.zeros(1), 0.5, 1.0)
    with pytest.raises(p.PreconditionError):
        p.refine_ball(bare, outer, np.zeros(1), BUDGET)


def test_refine_ball_step_family():
    outer = p.Ball(STEP, np.zeros(1), 0.5, 1.0)
    w = p.refine_ball(STEP, outer, np.array([0.3]), BUDGET)
    # feasible splits are tau > 2 * 0.3; midpoint of (0.6, 1) is 0.8.
    assert w.split == pytest.approx(0.8, abs=1e-9)
    assert w.evidence.passed


# -- local base ---------------------------------------------------------------


def test_local_base_indices_by_hand():
    x = np.zeros(1)
    assert p.local_base_containment(WAB, x, p.Ball(WAB, x, 0.5, 1.0), BUDGET) == 3
    assert p.local_base_containment(WAB, x, p.Ball(WAB, x, 0.9, 2.0), BUDGET) == 2
    near_one = p.Ball(WAB, x, 1.0 - 1e-9, 5.0)
    assert p.local_base_containment(WAB, x, near_one, BUDGET) == 2


def test_local_base_requires_matching_center():
    with pytest.raises(p.PreconditionError):
        p.local_base_containment(WAB, np.zeros(1),
                                 p.Ball(WAB, np.array([1.0]), 0.5, 1.0), BUDGET)


# -- separation ---------------------------------------------------------------


def test_separation_hand_worked_example():
    # offset 1 at scale 1 gives mu = 0.5; the level parameter midpoint of
    # (0.5, 1) is 0.75, balls at level 0.25 and scale 1/(2c) = 0.25, with
    # offset radius 0.25 * 0.25/0.75 = 1/12 around centers 1 apart.
    budget = p.SampleBudget(t_grid=(1.0,), rng_seed=23)
    w = p.separation_witness(SP1, np.zeros(1), np.array([1.0]), budget)
    assert w.sep_scale == 1.0
    assert w.chosen_level == pytest.approx(0.75)
    assert w.ball_a.level == pytest.approx(0.25)
    assert w.ball_a.scale == pytest.approx(0.25)
    radius = p.rational_ball_radius(w.ball_a.level, w.ball_a.scale)
    assert radius == pytest.approx(1.0 / 12.0)
    assert 2.0 * radius < 1.0
    assert w.evidence.passed


def test_separation_close_points_still_split():
    w = p.separation_witness(SP1, np.zeros(1), np.array([1e-3]), BUDGET)
    assert w.evidence.passed
    radius = p.rational_ball_radius(w.ball_a.level, w.ball_a.scale)
    assert 2.0 * radius < 1e-3


def test_separation_requires_distinct_points():
    with pytest.raises(p.PreconditionError):
        p.separation_witness(SP1, np.ones(1), np.ones(1), BUDGET)


def test_separation_balls_share_no_point_at_thousand_samples_per_ball():
    rng = np.random.default_rng(0)
    for trial in range(5):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        if SP2.sigma1(x - y) < 1e-3:
            continue
        w = p.separation_witness(SP2, x, y, BUDGET, samples=2000)
        assert w.evidence.passed
        assert w.evidence.samples_run == 2000


def test_separation_detects_indistinguishable_points():
    # The deadzone defect makes small differences invisible: the scan must
    # report the offending value-separation failure instead of a witness.
    broken = p.apply_mutation(SP1, "break_pm2", seed=0)
    with pytest.raises(p.InfeasibleConstruction):
        p.separation_witness(broken, np.zeros(1), np.array([0.5]), BUDGET)


def test_homogeneous_separation_hand_worked_example():
    budget = p.SampleBudget(t_grid=(1.0,), rng_seed=23)
    w = p.homogeneous_separation_witness(WAB, np.array([1.0]), budget)
    assert w.sep_scale == 1.0
    # mu = 0.5 at the chosen scale, level midpoint of (0, 0.5) is 0.25,
    # ball scale 1 / 2^(beta+1) = 0.25.
    assert w.chosen_level == pytest.approx(0.25)
    assert w.ball_a.scale == pytest.approx(0.25)
    radius = p.rational_ball_radius(w.ball_a.level, w.ball_a.scale)
    assert radius == pytest.approx(1.0 / 12.0)
    assert w.evidence.passed


def test_homogeneous_separation_step_family_is_infeasible():
    with pytest.raises(p.InfeasibleConstruction):
        p.homogeneous_separation_witness(STEP, np.array([1.0]), BUDGET)


def test_homogeneous_separation_rejects_origin():
    with pytest.raises(p.PreconditionError):
        p.homogeneous_separation_witness(WAB, np.zeros(1), BUDGET)


# -- continuity witnesses -----------------------------------------------------


def test_addition_witness_hand_worked_example():
    target = p.Ball(WAB, np.zeros(1), 0.5, 1.0)
    w = p.addition_continuity_witness(WAB, target, BUDGET)
    assert w.ball_a.level == pytest.approx(0.25)
    assert w.ball_a.scale == pytest.approx(0.125)
    member_radius = p.rational_ball_radius(0.25, 0.125)
    assert member_radius == pytest.approx(1.0 / 24.0)
    assert 2.0 * member_radius < p.rational_ball_radius(0.5, 1.0)
    assert w.evidence.passed


def test_addition_witness_level_near_one():
    target = p.Ball(WAB, np.zeros(1), 0.999, 1.0)
    w = p.addition_continuity_witness(WAB, target, BUDGET)
    assert w.ball_a.level < target.level
    assert w.evidence.passed


def test_scalar_witness_hand_worked_example():
    target = p.Ball(WAB, np.zeros(1), 0.5, 1.0)
    w = p.scalar_continuity_witness(WAB, target, 2.0, BUDGET)
    assert w.ball.scale == pytest.approx(0.125)
    assert w.scalar_window == pytest.approx(4.0)
    assert w.evidence.passed


def test_scalar_witness_at_zero_uses_floor():
    target = p.Ball(WAB, np.zeros(1), 0.5, 1.0)
    w = p.scalar_continuity_witness(WAB, target, 0.0, BUDGET)
    assert w.ball.scale == pytest.approx(1.0 / (4.0 * 1e-6))
    assert w.evidence.passed


def test_continuity_witnesses_require_origin_target():
    target = p.Ball(WAB, np.array([1.0]), 0.5, 1.0)
    with pytest.raises(p.PreconditionError):
        p.addition_continuity_witness(WAB, target, BUDGET)
    with pytest.raises(p.PreconditionError):
        p.scalar_continuity_witness(WAB, target, 1.0, BUDGET)


# -- intersection -------------------------------------------------------------


def test_basis_intersection_witness():
    a = p.Ball(SP2, np.zeros(2), 0.5, 1.0)
    b = p.Ball(SP2, np.array([0.1, 0.0]), 0.6, 1.2)
    y = np.array([0.05, 0.05])
    w = p.basis_intersection_witness(SP2, a, b, y, BUDGET)
    assert w.ball.level <= min(w.left.inner.level, w.right.inner.level)
    assert w.ball.scale <= min(w.left.inner.scale, w.right.inner.scale)
    assert w.evidence.passed
    rng = np.random.default_rng(3)
    members = sample_members(w.ball, rng, 200, band=1e-9)
    assert np.all(contains_many(a, members) & contains_many(b, members))


# -- evidence samples ---------------------------------------------------------


def witness_calls(samples):
    """Each constructor on inputs where it succeeds, at the given samples."""
    outer = p.Ball(SP1, np.zeros(1), 0.5, 1.0)
    target = p.Ball(WAB, np.zeros(1), 0.5, 1.0)
    a, b = p.Ball(SP2, np.zeros(2), 0.5, 1.0), p.Ball(SP2, np.array([0.1, 0.0]), 0.6, 1.2)
    return {
        "refine_ball": lambda: p.refine_ball(SP1, outer, np.array([0.4]), BUDGET, samples),
        "local_base_containment": lambda: p.local_base_containment(
            SP1, np.zeros(1), outer, BUDGET, samples),
        "separation_witness": lambda: p.separation_witness(
            SP1, np.zeros(1), np.ones(1), BUDGET, samples),
        "homogeneous_separation_witness": lambda: p.homogeneous_separation_witness(
            WAB, np.ones(1), BUDGET, samples),
        "addition_continuity_witness": lambda: p.addition_continuity_witness(
            WAB, target, BUDGET, samples),
        "scalar_continuity_witness": lambda: p.scalar_continuity_witness(
            WAB, target, 1.5, BUDGET, samples),
        "basis_intersection_witness": lambda: p.basis_intersection_witness(
            SP2, a, b, np.array([0.05, 0.05]), BUDGET, samples),
    }


@pytest.mark.parametrize("name", list(witness_calls(1)))
def test_witness_rejects_fewer_than_one_evidence_sample(name):
    # At 0 a witness would certify on no evidence; -1 and a float are no count.
    for samples in (0, -1, 1.0):
        with pytest.raises(p.FieldError, match="^samples must be an integer"):
            witness_calls(samples)[name]()
    # One sample is enough to construct and check: local_base_containment
    # returns its index, 3 for min(level, scale) = 0.5.
    got = witness_calls(1)[name]()
    if name == "local_base_containment":
        assert got == 3
    else:
        assert got.evidence.passed and got.evidence.samples_run >= 1
