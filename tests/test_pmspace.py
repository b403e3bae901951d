"""Reference families, axiom checkers, doubling-constant estimation, and
homogeneity.  The reference families are validated here by independent
brute-force loops before any checker output is trusted."""

import random

import numpy as np
import pytest

import pmtop as p
from pmtop.pmspace import SigmaFunctional, sample_convex_weights

BUDGET = p.SampleBudget(n_vectors=800, n_scalar_pairs=800, rng_seed=7)


def rational_value(t, sigma):
    return t / (t + sigma) if t > 0 else 0.0


def step_value(t, sigma):
    return 1.0 if t > sigma else 0.0


# -- independent validation of the reference families ------------------------


def test_reference_families_satisfy_convexity_axiom_brute_force():
    """Pure-python verification that both kernels satisfy
    mu_{a x + b y}(s + t) >= min(mu_x(s), mu_y(t)) before the vectorized
    checker is trusted with the same claim."""
    rnd = random.Random(12345)
    grid = [0.0, 1e-3, 0.05, 0.3, 1.0, 4.0, 60.0, 1e3]
    for _ in range(300):
        dim = rnd.choice([1, 2, 3])
        x = [rnd.gauss(0, 1) for _ in range(dim)]
        y = [rnd.gauss(0, 1) for _ in range(dim)]
        a = rnd.random()
        mid = [a * xi + (1 - a) * yi for xi, yi in zip(x, y)]
        for power in (1.0, 2.0):
            rho = lambda v: sum(abs(c) ** power for c in v)
            s, t = rnd.choice(grid), rnd.choice(grid)
            for val in (rational_value, step_value):
                lhs = val(s + t, rho(mid))
                rhs = min(val(s, rho(x)), val(t, rho(y)))
                assert lhs >= rhs - 1e-12, (power, val.__name__, x, y, a, s, t)


def test_mu_examples():
    sp = p.rational_space(p.PPower(p=1.0), 1)
    f = p.mu(sp, np.array([1.0]))
    assert f.sigma == 1.0
    assert f(1.0) == pytest.approx(0.5, abs=0)
    assert f(3.0) == pytest.approx(0.75, abs=0)

    zero_mu = p.mu(sp, np.array([0.0]))
    assert all(zero_mu(t) == 1.0 for t in (1e-3, 1.0, 1e3))

    st = p.step_space(p.PPower(p=1.0), 1)
    g = p.mu(st, np.array([2.0]))
    assert g.sigma == 2.0
    assert g(2.0) == 0.0 and g(3.0) == 1.0


def test_mu_rejects_dimension_mismatch():
    sp = p.rational_space(p.PPower(p=1.0), 2)
    with pytest.raises(ValueError):
        p.mu(sp, np.array([1.0, 2.0, 3.0]))


# -- axiom checker -----------------------------------------------------------


def test_axioms_pass_on_reference_families():
    for sp in (p.rational_space(p.PPower(p=2.0), 2),
               p.step_space(p.WeightedAbs(weights=(1.0,)), 1),
               p.rational_space(p.WeightedAbs(weights=(0.5, 2.0)), 2)):
        rep = p.check_axioms(sp, BUDGET)
        assert rep.passed, rep.parts


class _HalfspaceDoubled(SigmaFunctional):
    """rho doubled on one side of a hyperplane: mu_{-x} != mu_x there."""

    def __init__(self, base, normal):
        self.base = base
        self.normal = np.asarray(normal)

    def rho(self, X):
        r = self.base.rho(X)
        return np.where(np.asarray(X) @ self.normal > 0, 2.0 * r, r)

    def to_config(self):
        return {"kind": "test_halfspace_doubled"}


def test_symmetry_break_is_caught():
    sp = p.PMSpace(dim=2, modular_map=p.pmspace.RationalFrom(
        _HalfspaceDoubled(p.PPower(p=1.0), [1.0, 0.0])))
    rep = p.check_axioms(sp, BUDGET)
    assert not rep.parts["pm3"].passed
    assert rep.parts["pm1"].passed and rep.parts["pm2"].passed


# -- doubling constant -------------------------------------------------------


def test_doubling_constant_hand_derived_values():
    # degree 1: t/(t+2r) >= (t/c)/((t/c)+r) iff c >= 2, worked by hand.
    sp1 = p.rational_space(p.PPower(p=1.0), 1)
    assert p.find_delta2_constant(sp1, BUDGET, (1.0, 1.5, 2.0, 4.0)) == 2.0
    # step family shares the threshold comparison, so the same constant.
    st1 = p.step_space(p.PPower(p=1.0), 1)
    assert p.find_delta2_constant(st1, BUDGET, (1.0, 2.0, 4.0)) == 2.0
    # degree 2 doubles rho by 4.
    sp2 = p.rational_space(p.PPower(p=2.0), 2)
    assert p.find_delta2_constant(sp2, BUDGET, (2.0, 4.0, 8.0)) == 4.0


def test_doubling_candidate_below_two_fails_by_explicit_example():
    # c = 1.5, sigma = 1, t = 2: lhs = 2/4 = 0.5 < rhs = (4/3)/(4/3+1) = 4/7.
    lhs = rational_value(2.0, 2.0)
    rhs = rational_value(2.0 / 1.5, 1.0)
    assert lhs < rhs - 1e-3


def test_doubling_result_is_monotone_in_candidate():
    sp = p.rational_space(p.PPower(p=2.0), 2)
    found = p.find_delta2_constant(sp, BUDGET)
    assert found == 4.0
    for c in (found * 1.5, found * 2.0, found * 7.0):
        assert not p.pmspace.delta2_violations(sp, c, BUDGET)


def test_declared_doubling_check():
    good = p.rational_space(p.PPower(p=2.0), 2, declared_c=4.0)
    assert p.check_delta2_declared(good, BUDGET).passed
    bad = p.rational_space(p.PPower(p=2.0), 2, declared_c=2.0)
    assert not p.check_delta2_declared(bad, BUDGET).passed


# -- homogeneity -------------------------------------------------------------


def test_homogeneity_degree_one_exact():
    sp = p.rational_space(p.WeightedAbs(weights=(1.0,)), 1)
    assert p.check_beta_homogeneous(sp, 1.0, BUDGET).passed


def test_homogeneity_degree_two_fails_with_a_doubling_exhibit():
    sp = p.rational_space(p.PPower(p=2.0), 2)
    rep = p.check_beta_homogeneous(sp, 1.0, BUDGET)
    assert not rep.passed
    # independent exhibit: a = 2, x = (1, 0), t = 1:
    # mu_{2x}(1) = 1/5 while mu_x(1/2) = (1/2)/(3/2) = 1/3.
    assert rational_value(1.0, 4.0) != pytest.approx(rational_value(0.5, 1.0))


def test_homogeneity_rejects_bad_exponent():
    sp = p.rational_space(p.PPower(p=1.0), 1)
    with pytest.raises(ValueError):
        p.check_beta_homogeneous(sp, 1.5, BUDGET)


def test_convex_weight_law_stays_in_unit_interval():
    rng = np.random.default_rng(3)
    w = sample_convex_weights(rng, 500)
    assert np.all((w > 0) & (w < 1))


# -- regularity over a space -------------------------------------------------


def test_space_regularity_rational_passes_step_fails():
    assert p.check_space_regularity(
        p.rational_space(p.PPower(p=1.0), 1), BUDGET).passed
    rep = p.check_space_regularity(p.step_space(p.PPower(p=1.0), 1), BUDGET)
    assert not rep.passed
    assert any(v["clause"] == "continuity" for v in rep.violations)


def test_space_regularity_flags_vacuous_runs():
    sp = p.rational_space(p.PPower(p=1.0), 2)
    rep = p.check_space_regularity(sp, BUDGET, points=[np.zeros(2)])
    assert rep.passed
    assert rep.notes["nonzero_samples"] == 0 and rep.notes.get("vacuous")


def test_object_level_and_space_level_regularity_agree():
    budget = p.SampleBudget(n_vectors=40, rng_seed=5)
    for sp in (p.rational_space(p.PPower(p=1.0), 2),
               p.step_space(p.WeightedAbs(weights=(1.0, 1.0)), 2)):
        space_rep = p.check_space_regularity(sp, budget, max_points=40)
        rng = p.distfn.check_rng(budget.rng_seed, "regularity")
        X = p.pmspace.sample_vectors(rng, 40, sp.dim)
        per_object = all(
            p.check_transition_regularity(p.mu(sp, x), budget).passed
            for x in X)
        assert space_rep.passed == per_object


# -- closed-form membership oracle -------------------------------------------


def test_membership_oracle_matches_kernel_brute_force():
    """rho < t a / (1 - a) iff t/(t+rho) > 1 - a, scanned in pure python."""
    for sigma in (0.0, 1e-4, 0.3, 1.0, 9.0):
        for t in (1e-3, 0.1, 1.0, 50.0):
            for level in (0.05, 0.5, 0.95):
                lhs = rational_value(t, sigma) > 1.0 - level
                rhs = sigma < p.rational_ball_radius(level, t)
                assert lhs == rhs


def test_oracle_threshold_refuses_mutated_maps():
    sp = p.rational_space(p.PPower(p=1.0), 1)
    mutated = p.apply_mutation(sp, "break_pm4", seed=0)
    with pytest.raises(ValueError):
        p.oracle_threshold(mutated, 0.5, 1.0)


def test_space_config_round_trip():
    sp = p.rational_space(p.PPower(p=2.0), 3, declared_c=4.0)
    again = p.pmspace.space_from_config(sp.to_config())
    assert again.to_config() == sp.to_config()
    X = np.random.default_rng(0).standard_normal((5, 3))
    assert np.array_equal(sp.sigma(X), again.sigma(X))
