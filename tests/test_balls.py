"""Ball membership, the smaller-scale witness, and the sampled ball algebra."""

import numpy as np
import pytest

import pmtop as p
from pmtop.balls import boundary_band, contains_many, sample_around, sampled_convexity

BUDGET = p.SampleBudget(n_vectors=400, n_scalar_pairs=400, rng_seed=11)

SP1 = p.rational_space(p.PPower(p=1.0), 1, declared_c=2.0)
WAB = p.rational_space(p.WeightedAbs(weights=(1.0,)), 1, declared_c=2.0, declared_beta=1.0)
WAB2 = p.rational_space(p.WeightedAbs(weights=(1.0, 1.0)), 2, declared_c=2.0, declared_beta=1.0)
STEP = p.step_space(p.WeightedAbs(weights=(1.0,)), 1, declared_c=2.0, declared_beta=1.0)


def test_contains_examples():
    ball = p.Ball(SP1, np.array([0.0]), 0.5, 1.0)
    # oracle radius t a/(1-a) = 1 by hand
    assert p.contains(ball, np.array([0.9]))
    assert not p.contains(ball, np.array([1.1]))
    assert p.contains(ball, ball.center)


def test_contains_rejects_dimension_mismatch():
    ball = p.Ball(SP1, np.array([0.0]), 0.5, 1.0)
    with pytest.raises(ValueError):
        p.contains(ball, np.array([1.0, 2.0]))


def test_ball_validates_parameters():
    with pytest.raises(ValueError):
        p.Ball(SP1, np.array([0.0]), 1.0, 1.0)
    with pytest.raises(ValueError):
        p.Ball(SP1, np.array([0.0]), 0.5, 0.0)


def test_membership_agrees_with_closed_form_oracle():
    rng = np.random.default_rng(2)
    for space in (p.rational_space(p.PPower(p=2.0), 2),
                  p.step_space(p.WeightedAbs(weights=(0.7, 1.3)), 2)):
        for _ in range(50):
            center = rng.standard_normal(2)
            level = rng.uniform(0.1, 0.9)
            scale = np.exp(rng.uniform(-1, 1))
            ball = p.Ball(space, center, level, scale)
            Y = center + rng.standard_normal((100, 2))
            off_band = ~boundary_band(ball, Y, 1e-9)
            got = contains_many(ball, Y)[off_band]
            want = np.array([p.oracle_contains(space, center, level, scale, y)
                             for y in Y[off_band]])
            assert np.array_equal(got, want)


# -- smaller-scale witness ---------------------------------------------------


def test_witness_midpoint_by_hand():
    # offset 1, level 0.6: feasible scales solve s/(s+1) > 0.4, i.e.
    # s > 2/3; the midpoint of (2/3, 1) is 5/6.
    ball = p.Ball(SP1, np.array([0.0]), 0.6, 1.0)
    t_star = p.smaller_scale_witness(ball, np.array([-1.0]))
    assert t_star == pytest.approx(5.0 / 6.0, abs=1e-9)


def test_witness_at_center_is_half_scale():
    ball = p.Ball(SP1, np.array([0.0]), 0.5, 2.0)
    assert p.smaller_scale_witness(ball, ball.center) == pytest.approx(1.0, abs=1e-9)


def test_witness_step_family_midpoint():
    # threshold 0.9 just below scale 1: feasible scales are (0.9, 1).
    ball = p.Ball(STEP, np.array([0.0]), 0.5, 1.0)
    t_star = p.smaller_scale_witness(ball, np.array([0.9]))
    assert t_star == pytest.approx(0.95, abs=1e-9)


def test_witness_requires_membership():
    ball = p.Ball(SP1, np.array([0.0]), 0.5, 1.0)
    with pytest.raises(ValueError):
        p.smaller_scale_witness(ball, np.array([2.0]))


def test_witness_validity_on_random_members():
    rng = np.random.default_rng(4)
    for space in (SP1, STEP, WAB2):
        for _ in range(25):
            center = rng.standard_normal(space.dim)
            ball = p.Ball(space, center, rng.uniform(0.2, 0.9),
                          np.exp(rng.uniform(-1, 1)))
            y = p.sample_members(ball, rng, 1, band=1e-9)[0]
            t_star = p.smaller_scale_witness(ball, y)
            assert 0.0 < t_star < ball.scale
            assert p.mu(space, center - y)(t_star) > 1.0 - ball.level


def test_witness_infeasible_for_right_continuous_jump():
    broken = p.apply_mutation(STEP, "break_left_continuity", seed=0)
    x = np.array([0.7])
    ball = p.Ball(broken, x, 0.7, broken.sigma1(x))
    assert p.contains(ball, np.zeros(1))
    with pytest.raises(p.InfeasibleConstruction):
        p.smaller_scale_witness(ball, np.zeros(1))


# -- ball algebra ------------------------------------------------------------


def test_translate_identity_reference_families():
    rng = np.random.default_rng(0)
    for space in (SP1, STEP, WAB2):
        rep = p.translate_identity(space, rng.standard_normal(space.dim),
                                   0.5, 1.0, BUDGET)
        assert rep.passed
        assert rep.notes["members"] > 0


def test_translate_identity_is_trivial_at_origin():
    rep = p.translate_identity(SP1, np.zeros(1), 0.5, 1.0, BUDGET)
    assert rep.passed


def test_sign_flipped_membership_is_distinguishable():
    # A comparison built on the sum x + y instead of the offset x - y
    # must disagree on some samples; the identity check is sensitive to it.
    x = np.array([0.8])
    ball_x = p.Ball(SP1, x, 0.5, 1.0)
    ball_0 = p.Ball(SP1, np.zeros(1), 0.5, 1.0)
    rng = np.random.default_rng(1)
    Y = sample_around(ball_x, rng, 400, band=1e-9)
    broken = contains_many(ball_0, Y + x)
    correct = contains_many(ball_x, Y)
    assert np.any(broken != correct)


def test_scaling_identity_by_hand_oracle():
    # B(0, 0.5, 2) has offset radius 2; 2 B(0, 0.5, 1) doubles radius 1.
    assert p.rational_ball_radius(0.5, 2.0) == pytest.approx(2.0)
    rep = p.scaling_identity(WAB, 1.0, 0.5, 2.0, BUDGET)
    assert rep.passed


def test_scaling_identity_trivial_at_unit_scale():
    assert p.scaling_identity(WAB, 1.0, 0.5, 1.0, BUDGET).passed


def test_scaling_identity_fails_for_wrong_exponent():
    sp2 = p.rational_space(p.PPower(p=2.0), 2)
    rep = p.scaling_identity(sp2, 1.0, 0.5, 2.0, BUDGET)
    assert not rep.passed
    assert rep.notes.get("precondition_failed") == "beta_homogeneous"


def test_monotone_in_scale():
    assert p.monotone_in_scale(SP1, 0.5, 1.0, 2.0, BUDGET).passed
    assert p.monotone_in_scale(SP1, 0.5, 1.5, 1.5, BUDGET).passed
    with pytest.raises(ValueError):
        p.monotone_in_scale(SP1, 0.5, 2.0, 1.0, BUDGET)


def test_monotone_in_level():
    assert p.monotone_in_level(SP1, 0.3, 0.6, 1.0, BUDGET).passed
    assert p.monotone_in_level(SP1, 0.4, 0.4, 1.0, BUDGET).passed
    with pytest.raises(ValueError):
        p.monotone_in_level(SP1, 0.6, 0.3, 1.0, BUDGET)
    # independent oracle: the offset radius t a/(1-a) grows with the level
    assert p.rational_ball_radius(0.3, 1.0) < p.rational_ball_radius(0.6, 1.0)


def test_balanced_and_convex_on_reference_ball():
    ball = p.Ball(WAB2, np.zeros(2), 0.5, 1.0)
    assert p.is_balanced_sampled(ball, BUDGET).passed
    assert p.is_convex_sampled(ball, BUDGET).passed


def test_balanced_requires_origin_center():
    ball = p.Ball(WAB2, np.array([1.0, 0.0]), 0.5, 1.0)
    with pytest.raises(ValueError):
        p.is_balanced_sampled(ball, BUDGET)


def test_union_of_disjoint_balls_fails_convexity_probe():
    a = p.Ball(WAB2, np.array([-3.0, 0.0]), 0.5, 1.0)
    b = p.Ball(WAB2, np.array([3.0, 0.0]), 0.5, 1.0)

    def union_contains(M):
        return contains_many(a, M) | contains_many(b, M)

    A = np.array([[-3.0, 0.0], [-2.8, 0.1]])
    B = np.array([[3.0, 0.0], [2.9, -0.1]])
    viol = sampled_convexity(union_contains, A, B, np.array([0.5, 0.5]))
    assert viol  # midpoints land in the gap between the balls


def test_member_sampler_yields_members_with_usable_acceptance():
    rng = np.random.default_rng(9)
    ball = p.Ball(WAB2, np.array([0.3, -0.2]), 0.4, 1.5)
    Y = p.sample_members(ball, rng, 500, band=1e-9)
    assert Y.shape == (500, 2)
    assert np.all(contains_many(ball, Y))
