"""Batched witness and verdict paths against their scalar references.

The scalar smaller-scale witness loop and the list-based doubling-constant
search are kept here as references: the batched code must return the same
bits, the same diagnostics and byte-identical registry reports.
"""

import re

import numpy as np
import pytest

import pmtop as p
import pmtop.balls as B
import pmtop.falsifier as F
from pmtop.distfn import EPS_STRICT, check_rng
from pmtop.pmspace import (
    ClosedStepFrom,
    FlooredMap,
    PMSpace,
    RationalFrom,
    StepFrom,
    delta2_violations,
    sample_vectors,
)


def reference_witness(space, sig, scale, level):
    """The scalar bisection smaller_scale_witness ran before batching."""
    cut = 1.0 - level

    def feasible(s):
        return float(space.kernel(np.asarray(s, dtype=float), sig)) > cut

    lo, hi = 0.0, scale
    for _ in range(B.WITNESS_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    if hi >= scale:
        raise p.InfeasibleConstruction(
            "no scale in (0, t) keeps membership at resolution t*2^-60: "
            f"mu jumps at t={scale} (left-continuity violation), "
            f"sigma={sig}")
    t_star = 0.5 * (hi + scale)
    if not feasible(t_star):
        raise p.InfeasibleConstruction(f"witness midpoint {t_star} infeasible")
    return t_star


def reference_ball_witness(ball, y):
    y = p.as_vector(y, ball.space.dim)
    if not p.contains(ball, y):
        raise ValueError("witness requires a ball member")
    return reference_witness(ball.space, ball.space.sigma1(ball.center - y),
                             ball.scale, ball.level)


def reference_witnesses(space, sigma, scale, level):
    """smaller_scale_witnesses as a loop over reference_witness."""
    lanes = list(zip(*(np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                             for v in (sigma, scale, level))))))
    t_star, reasons = [], []
    for sig, t, a in lanes:
        sig, t, a = float(sig), float(t), float(a)
        if not float(space.kernel(np.asarray(t), sig)) > (1.0 - a) + EPS_STRICT:
            raise ValueError("witness requires a ball member")
        try:
            t_star.append(reference_witness(space, sig, t, a))
            reasons.append(None)
        except p.InfeasibleConstruction as exc:
            t_star.append(np.nan)
            reasons.append(str(exc))
    return np.asarray(t_star, dtype=float), reasons


RHO = p.WeightedAbs(weights=(0.7, 1.6))
SPACES = {
    "rational_from": PMSpace(2, RationalFrom(RHO)),
    "step_from": PMSpace(2, StepFrom(RHO)),
    "step_closed_from": PMSpace(2, ClosedStepFrom(RHO)),
    "floored": PMSpace(2, FlooredMap(RationalFrom(RHO), 0.1)),
}


def witness_lanes(space, seed, count=60):
    """(ball, member) pairs: random balls with sampled members, plus
    exact-boundary pairs (scale = sigma of the offset, member at the origin)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        x = rng.standard_normal(space.dim)
        ball = p.Ball(space, x, float(rng.uniform(0.05, 0.95)),
                      float(np.exp(rng.uniform(-2.0, 2.0))))
        pairs.append((ball, p.sample_members(ball, rng, 1, band=1e-9)[0]))
        edge = p.Ball(space, x, float(rng.uniform(0.6, 0.9)), space.sigma1(x))
        if p.contains(edge, space.zero()):
            pairs.append((edge, space.zero()))
    return pairs


@pytest.mark.parametrize("family", sorted(SPACES))
def test_batched_witness_matches_scalar_reference(family):
    space = SPACES[family]
    pairs = witness_lanes(space, seed=len(family))
    sigma = [space.sigma1(ball.center - y) for ball, y in pairs]
    scale = [ball.scale for ball, _ in pairs]
    level = [ball.level for ball, _ in pairs]
    t_star, reasons = p.smaller_scale_witnesses(space, sigma, scale, level)
    assert len(reasons) == len(pairs)
    for i, (ball, y) in enumerate(pairs):
        try:
            want, why = reference_ball_witness(ball, y), None
        except p.InfeasibleConstruction as exc:
            want, why = None, str(exc)
        assert reasons[i] == why
        if why is None:
            assert float(t_star[i]).hex() == want.hex()
            assert p.smaller_scale_witness(ball, y).hex() == want.hex()
        else:
            assert np.isnan(t_star[i])
            with pytest.raises(p.InfeasibleConstruction, match=re.escape(why)):
                p.smaller_scale_witness(ball, y)
    if family == "step_closed_from":
        assert any(r is not None for r in reasons)


def test_batched_witness_rejects_a_non_member_lane():
    space = SPACES["rational_from"]
    ball = p.Ball(space, np.zeros(2), 0.5, 1.0)
    member, outsider = np.array([0.1, 0.1]), np.array([3.0, 3.0])
    sigma = [space.sigma1(ball.center - y) for y in (member, outsider)]
    with pytest.raises(ValueError, match="ball member"):
        p.smaller_scale_witnesses(space, sigma, 1.0, 0.5)
    with pytest.raises(ValueError, match="ball member"):
        p.smaller_scale_witness(ball, outsider)


def reference_find_delta2(space, budget, candidates):
    X = sample_vectors(check_rng(budget.rng_seed, "delta2"), budget.n_vectors,
                       space.dim)
    for c in sorted(candidates):
        if not delta2_violations(space, c, budget, X=X):
            return float(c)
    return None


@pytest.mark.parametrize("space", [
    p.rational_space(p.PPower(p=1.0), 2),
    p.rational_space(p.PPower(p=2.0), 3),
    p.step_space(p.WeightedAbs(weights=(0.5, 2.0)), 2),
    p.step_space(p.PPower(p=2.0), 1),
], ids=["rational-p1", "rational-p2", "step-weighted", "step-p2"])
def test_find_delta2_matches_first_empty_violation_list(space):
    budget = p.SampleBudget(n_vectors=1500, n_scalar_pairs=10, rng_seed=5)
    for candidates in (p.DELTA2_CANDIDATES, (4.0, 1.0, 2.0), (1.0, 1.5),
                       (3.0, 2.5, 8.0), (1.9,)):
        assert (p.find_delta2_constant(space, budget, candidates)
                == reference_find_delta2(space, budget, candidates))


@pytest.mark.parametrize("seed, family, mutation", [
    (2, "rational_from", None),
    (3, "step_from", None),
    (4, "step_from", "break_left_continuity"),
])
def test_registry_json_matches_the_scalar_witness_loop(monkeypatch, seed, family,
                                                       mutation):
    space = F.generate_instance(seed, family, mutation)
    budget = p.SampleBudget(n_vectors=2000, n_scalar_pairs=2000, rng_seed=seed)
    batched = p.run_registry(space, budget)
    if mutation is not None:
        assert F.MUTATION_TARGETS[mutation] in batched.failures()
    monkeypatch.setattr(B, "smaller_scale_witnesses", reference_witnesses)
    assert p.run_registry(space, budget).to_json() == batched.to_json()


def test_axiom_reports_count_every_violation_but_keep_fifty():
    space = p.apply_mutation(p.rational_space(p.PPower(p=1.0), 2),
                             "break_pm1", seed=0)
    budget = p.SampleBudget(n_vectors=400, n_scalar_pairs=400, rng_seed=0)
    pm1 = p.check_axioms(space, budget).parts["pm1"]
    assert pm1.n_violations == 400 and not pm1.passed
    assert len(pm1.violations) == 50
    X = sample_vectors(check_rng(0, "axioms"), 400, 2)
    assert [v["x"] for v in pm1.violations] == X[:50].tolist()

    # The declared doubling constant: counted in full, the first 50 kept,
    # equal to the head of the full violation list.
    space = F.generate_instance(0, "rational_from", "break_delta2_declaration")
    budget = p.SampleBudget(n_vectors=10_000, n_scalar_pairs=10_000, rng_seed=0)
    rep = p.check_delta2_declared(space, budget)
    assert rep.n_violations == 9_999 and not rep.passed
    assert rep.violations == delta2_violations(space, space.declared_c, budget)[:50]
