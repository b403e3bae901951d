"""Batched witness and verdict paths against their scalar references.

The scalar rejection sampler, the scalar smaller-scale witness loop, the
per-trial scale-witness predicates, the list-based and the full-scan
doubling-constant searches, the all-four axiom check, the unblocked
doubling records and declared check, the full-matrix homogeneity check,
the per-function admissibility check, the fixed-step regularity
bisection, the hand-written witness and verdict records, the per-ball
disjointness loop, the one-candidate refinement-input search, the
refinement split read from the array kernel and the kernels that
broadcast their arguments first are kept here as references: the
batched code must return the same bits, the same diagnostics and
byte-identical registry reports.
"""

import itertools
import json
import re
from dataclasses import dataclass, replace

import numpy as np
import pytest

import pmtop as p
import pmtop.balls as B
import pmtop.cli as cli
import pmtop.convergence as C
import pmtop.distfn as D
import pmtop.falsifier as F
import pmtop.pmspace as P
import pmtop.topology as T
from pmtop.distfn import EPS_STRICT, MAX_STORED_VIOLATIONS, CheckReport, check_rng
from pmtop.falsifier import PredicateResult
from pmtop.pmspace import (
    AXIOMS,
    DELTA2_CHUNK,
    MAX_DIM,
    PM4_CHUNK,
    ClosedStepFrom,
    FlooredMap,
    PMSpace,
    RationalFrom,
    SigmaFunctional,
    StepFrom,
    VerificationError,
    _Delta2Scan,
    sample_convex_weights,
    sample_scalars,
    sample_vectors,
)


def first_records(mask, build):
    """The report rule, carried by the references: records for the first
    MAX_STORED_VIOLATIONS flagged samples and the count of all of them."""
    idx = np.flatnonzero(mask)
    return [build(int(i)) for i in idx[:MAX_STORED_VIOLATIONS]], int(idx.size)


def reference_report(name, violations, samples, seed, notes=None, n_violations=None):
    """A report keeping the first MAX_STORED_VIOLATIONS records; n_violations
    is the full count when only the kept records were built."""
    return CheckReport(name=name, violations=violations[:MAX_STORED_VIOLATIONS],
                       samples_run=samples, seed=seed,
                       n_violations=len(violations) if n_violations is None else n_violations,
                       notes=notes or {})


def reference_witness(space, sig, scale, level):
    """The scalar bisection the smaller-scale witness ran before batching."""
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
        raise p.PreconditionError("witness requires a ball member")
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
            raise p.PreconditionError("witness requires a ball member")
        try:
            t_star.append(reference_witness(space, sig, t, a))
            reasons.append(None)
        except p.InfeasibleConstruction as exc:
            t_star.append(np.nan)
            reasons.append(str(exc))
    return np.asarray(t_star, dtype=float), reasons


def reference_probe_rows(count):
    """The calibration probe's rows for a call asking count members, written
    here apart from balls so the references stay independent of it."""
    return min(256, 32 * count)


def reference_scale_from_probe(ball, probe, lo=0.2, hi=0.8, rounds=80):
    """The scalar calibration of the member sampler, on a given probe."""
    s = 1.0
    try:
        thr = p.oracle_threshold(ball.space, ball.level, ball.scale)
        med = float(np.median(ball.space.sigma(probe)))
        if med > 0:
            s = max(thr / med, 1e-12)
    except ValueError:
        pass
    for _ in range(rounds):
        acc = float(np.mean(B.contains_many(ball, ball.center[None, :] + s * probe)))
        if acc > hi:
            s *= 2.0
        elif acc < lo:
            s *= 0.5
        else:
            break
    return s


def reference_calibrated_scale(ball, rng, count):
    probe = rng.standard_normal((reference_probe_rows(count), ball.space.dim))
    return reference_scale_from_probe(ball, probe)


def reference_batch(ball, Y, band):
    """One round of the scalar sampler on the candidates Y: the kept rows
    and whether the scale halves."""
    keep = B.contains_many(ball, Y)
    if band > 0:
        keep &= ~B.boundary_band(ball, Y, band)
    return Y[keep], float(np.mean(keep)) < B.MIN_ACCEPTANCE


def reference_sample_members(ball, rng, count, band=0.0):
    """The scalar rejection sampler sample_members ran before it became a
    batch of one lane."""
    s = reference_calibrated_scale(ball, rng, count)
    out = []
    got = 0
    for _ in range(200):
        batch = max(4 * count, 64)
        Y = ball.center[None, :] + s * rng.standard_normal((batch, ball.space.dim))
        kept, halve = reference_batch(ball, Y, band)
        if kept.shape[0]:
            out.append(kept)
            got += kept.shape[0]
        if got >= count:
            return np.concatenate(out, axis=0)[:count]
        if halve:
            s *= 0.5
    raise VerificationError(
        f"member sampler starved for ball level={ball.level} scale={ball.scale}")


def reference_member_lanes(space, centers, levels, scales, rng, count, band=0.0):
    """sample_member_lanes round-major, lane by lane: every probe is drawn,
    each lane is calibrated with the scalar code on its own probe, and in
    each round each live lane draws its batch in lane order and runs the
    scalar round.  Returns (rows, ok, rounds)."""
    balls = [B.Ball(space, c, float(a), float(t))
             for c, a, t in zip(centers, levels, scales)]
    probes = rng.standard_normal((len(balls), reference_probe_rows(count), space.dim))
    s = [reference_scale_from_probe(b, probe) for b, probe in zip(balls, probes)]
    out = [[] for _ in balls]
    got = [0] * len(balls)
    rounds = [0] * len(balls)
    live = list(range(len(balls)))
    batch = max(4 * count, 64)
    for _ in range(200):
        for i in live:
            rounds[i] += 1
            Y = balls[i].center[None, :] + s[i] * rng.standard_normal((batch, space.dim))
            kept, halve = reference_batch(balls[i], Y, band)
            out[i].append(kept)
            got[i] += kept.shape[0]
            if got[i] < count and halve:
                s[i] *= 0.5
        live = [i for i in live if got[i] < count]
        if not live:
            break
    ok = np.array([g >= count for g in got])
    rows = np.full((len(balls), count, space.dim), np.nan)
    for i in np.flatnonzero(ok):
        rows[i] = np.concatenate(out[i], axis=0)[:count]
    return rows, ok, np.array(rounds)


def reference_boundary_pairs(space, budget, count):
    """_boundary_pairs as a per-trial loop over the same draws."""
    rng = check_rng(budget.rng_seed, "scale_witness_boundary")
    X = rng.standard_normal((count, space.dim))
    draw_levels = rng.uniform(0.6, 0.9, count)
    y = np.zeros(space.dim)
    xs, sigmas, levels = [], [], []
    for x, level in zip(X, draw_levels):
        sig = space.sigma1(x)
        if not sig > 1e-9:
            continue
        ball = B.Ball(space, x, float(level), sig)
        if not B.contains(ball, y):
            continue
        xs.append(x)
        sigmas.append(sig)
        levels.append(level)
    t_star, reasons = B.smaller_scale_witnesses(space, sigmas, sigmas, levels)
    violations = []
    for i, x in enumerate(xs):
        if reasons[i] is not None:
            violations.append({"x": x.tolist(), "y": y.tolist(),
                               "reason": reasons[i]})
        elif not (0.0 < t_star[i] < sigmas[i]):
            violations.append({"x": x.tolist(), "y": y.tolist(),
                               "t_star": float(t_star[i])})
    rec = {"eligible": len(xs), "trials": count,
           "violations": violations[:20], "violation_count": len(violations)}
    return PredicateResult(outcome="fail" if violations else "pass", record=rec)


def random_ball_draws(rng, count, dim):
    """The trial draws of _random_scale_witnesses: centers, levels, scales."""
    X = rng.standard_normal((count, dim))
    levels = rng.uniform(0.2, 0.9, count)
    return X, levels, np.exp(rng.uniform(np.log(0.2), np.log(5.0), count))


def reference_random_scale_witnesses(space, budget, count):
    """_random_scale_witnesses as a per-trial loop over the members of the
    round-major lane reference."""
    rng = check_rng(budget.rng_seed, "scale_witness_random")
    X, draw_levels, draw_scales = random_ball_draws(rng, count, space.dim)
    rows, ok, _ = reference_member_lanes(space, X, draw_levels, draw_scales, rng, 1,
                                         budget.epsilon)
    pairs, lanes = [], []
    for x, y, level, scale, hit in zip(X, rows[:, 0], draw_levels, draw_scales, ok):
        if hit:
            pairs.append((x, y))
            lanes.append((space.sigma1(x - y), scale, level))
    sigmas, scales, levels = np.asarray(lanes, dtype=float).reshape(-1, 3).T
    t_star, reasons = B.smaller_scale_witnesses(space, sigmas, scales, levels)
    held = space.kernel(t_star, sigmas) > 1.0 - levels
    violations = []
    for i, (x, y) in enumerate(pairs):
        if reasons[i] is not None:
            violations.append({"x": x.tolist(), "y": y.tolist(), "reason": reasons[i]})
        elif not (0.0 < t_star[i] < scales[i] and held[i]):
            violations.append({"x": x.tolist(), "y": y.tolist(),
                               "t_star": float(t_star[i])})
    rec = {"pairs": len(pairs), "violations": violations[:20],
           "violation_count": len(violations)}
    return PredicateResult(outcome="fail" if violations else "pass", record=rec)


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
        # The lane alone gives the bits it gives inside the batch.
        one_t, one_why = p.smaller_scale_witnesses(space, [sigma[i]], [ball.scale],
                                                   [ball.level])
        assert reasons[i] == why and one_why == [why]
        if why is None:
            assert float(t_star[i]).hex() == want.hex()
            assert float(one_t[0]).hex() == want.hex()
        else:
            assert np.isnan(t_star[i]) and np.isnan(one_t[0])
    if family == "step_closed_from":
        assert any(r is not None for r in reasons)


def test_batched_witness_rejects_a_non_member_lane():
    space = SPACES["rational_from"]
    ball = p.Ball(space, np.zeros(2), 0.5, 1.0)
    member, outsider = np.array([0.1, 0.1]), np.array([3.0, 3.0])
    sigma = [space.sigma1(ball.center - y) for y in (member, outsider)]
    with pytest.raises(p.PreconditionError, match="ball member"):
        p.smaller_scale_witnesses(space, sigma, 1.0, 0.5)
    with pytest.raises(p.PreconditionError, match="ball member"):
        p.smaller_scale_witnesses(space, sigma[1:], 1.0, 0.5)


def test_bisect_lanes_stop_on_their_own_at_float_granularity():
    # Lane 0 starts at adjacent floats and keeps both ends; lane 1 runs to
    # the adjacent floats around 0.3, and then the loop ends by itself,
    # long before its step limit.
    one_up = np.nextafter(1.0, 2.0)
    calls = []

    def pred(mid):
        calls.append(mid.copy())
        return mid >= 0.3

    lo, hi = D.bisect_lanes(pred, np.array([1.0, 0.0]), np.array([one_up, 1.0]), 2000)
    assert (lo[0], hi[0]) == (1.0, one_up)
    assert (lo[1], hi[1]) == (np.nextafter(0.3, 0.0), 0.3)
    assert 50 <= len(calls) <= 60
    calls.clear()
    assert D.bisect_lanes(pred, 1.0, one_up, 2000) == (1.0, one_up)
    assert calls == []
    # A NaN midpoint is not "no longer strictly inside": a lane with a NaN
    # end stays live (its lo turns NaN) and keeps the loop to its step limit.
    lo, hi = D.bisect_lanes(pred, np.array([np.nan, 0.0]), np.array([1.0, 1.0]), 100)
    assert np.isnan(lo[0]) and hi[0] == 1.0
    assert (lo[1], hi[1]) == (np.nextafter(0.3, 0.0), 0.3)
    assert len(calls) == 100


def test_bisect_lanes_give_the_predicate_a_mid_it_may_keep():
    # Each step's mid is a new array: a predicate that keeps every mid it
    # was given still holds each step's midpoints at the end, those of a
    # loop that makes new brackets at every step.  The inputs stay as given.
    kept = []

    def pred(mid):
        kept.append(mid)
        return mid >= 0.3

    lo0, hi0 = np.array([0.0, 0.25, np.nan]), np.array([1.0, 0.5, 1.0])
    D.bisect_lanes(pred, lo0, hi0, 8)
    assert len(kept) == 8
    lo, hi = lo0, hi0
    for mid in kept:
        assert mid.tobytes() == (0.5 * (lo + hi)).tobytes()
        up = mid >= 0.3
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    assert lo0.tobytes() == np.array([0.0, 0.25, np.nan]).tobytes()
    assert hi0.tolist() == [1.0, 0.5, 1.0]


def test_containment_report_reports_escapes_from_any_outer_ball():
    space = SPACES["rational_from"]
    budget = p.SampleBudget(n_vectors=100, epsilon=1e-9, rng_seed=5)
    inner = p.Ball(space, np.zeros(2), 0.5, 1.0)
    wide = p.Ball(space, np.zeros(2), 0.5, 4.0)     # holds every member of inner
    narrow = p.Ball(space, np.zeros(2), 0.5, 0.5)   # holds only some
    Y = B.sample_members(inner, check_rng(5, "two_outer"), 100, band=1e-9)
    escaped = ~B.contains_many(narrow, Y)
    assert 0 < escaped.sum() < 100 and B.contains_many(wide, Y).all()
    for outers in ([wide, narrow], [narrow, wide]):
        rep = B.containment_report("two_outer", inner, outers, budget, 100)
        assert not rep.passed and rep.n_violations == escaped.sum()
        assert rep.samples_run == 100
        assert rep.violations == [{"y": y.tolist()} for y in Y[escaped]][:50]
    assert B.containment_report("two_outer", inner, [wide], budget, 100).passed


def random_balls(space, rng, count=40):
    return [p.Ball(space, rng.standard_normal(space.dim), float(rng.uniform(0.05, 0.95)),
                   float(np.exp(rng.uniform(-2.0, 2.0)))) for _ in range(count)]


@pytest.mark.parametrize("band", [0.0, 1e-9, 0.2])
@pytest.mark.parametrize("family", sorted(SPACES))
def test_member_lanes_match_sample_members(family, band):
    # The one-lane call is the scalar sampler, bit for bit and draw for draw;
    # counts 7 and 8 sit on each side of the largest probe (224 and 256 rows).
    space = SPACES[family]
    balls = random_balls(space, np.random.default_rng(len(family)))
    for count in (1, 7, 8, 50, 200):
        for seed, ball in enumerate(balls):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                want = reference_sample_members(ball, rng_ref, count, band)
            except VerificationError as exc:
                with pytest.raises(VerificationError, match=re.escape(str(exc))):
                    B.sample_members(ball, rng, count, band)
            else:
                got = B.sample_members(ball, rng, count, band)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == rng_ref.bit_generator.state
    # A batch of lanes is the round-major reference on one stream.
    for count in (1, 7, 8, 50):
        rng, rng_ref = np.random.default_rng(count), np.random.default_rng(count)
        args = (space, np.array([b.center for b in balls]), [b.level for b in balls],
                [b.scale for b in balls])
        rows, ok = B.sample_member_lanes(*args, rng, count, band)
        want, want_ok, _ = reference_member_lanes(*args, rng_ref, count, band)
        assert np.array_equal(ok, want_ok)
        assert rows[ok].tobytes() == want[ok].tobytes()
        assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("make", [p.step_space, p.rational_space],
                         ids=["step_from", "rational_from"])
def test_proposal_scales_fast_forward_lanes_caught_in_a_two_cycle(monkeypatch, make):
    # With p = 2 in dim 4, doubling a scale quarters the radius in sigma-space,
    # which can step over the [0.2, 0.8] acceptance window each way: such a
    # lane alternates between two scales for all 80 rounds of the reference,
    # on the one-member probe (32 rows) and on the largest (256).
    space = make(p.PPower(p=2.0), 4)
    centers, levels, scales = random_ball_draws(np.random.default_rng(4), 100, 4)
    balls = [B.Ball(space, c, a, t) for c, a, t in zip(centers, levels, scales)]
    calls = []
    lane_mu = B._lane_mu
    monkeypatch.setattr(B, "_lane_mu", lambda *a: calls.append(1) or lane_mu(*a))
    for rows in (32, 256):
        rng, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
        probes = rng_ref.standard_normal((100, rows, 4))
        want = [[reference_scale_from_probe(b, probe, rounds=k).hex() for k in (78, 79, 80)]
                for b, probe in zip(balls, probes)]
        cycling = [w[0] == w[2] != w[1] for w in want]
        assert sum(cycling) >= 5
        calls.clear()
        got = B._proposal_scales(space, centers, levels, scales, rng, rows)
        assert [float(v).hex() for v in got] == [w[2] for w in want]
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert 1 <= len(calls) < 10


def test_proposal_scales_raise_an_error_in_sigma(monkeypatch):
    # Only oracle_threshold's "no closed form" seeds a lane at 1: an error in
    # a reference space's sigma while the lanes are seeded is raised.  Sigma
    # fails on its first call, the probe medians', and works after it.
    sigma = PMSpace.sigma

    def failing(self, X):
        monkeypatch.setattr(PMSpace, "sigma", sigma)
        raise ValueError("sigma failed")

    monkeypatch.setattr(PMSpace, "sigma", failing)
    with pytest.raises(ValueError, match="sigma failed"):
        B._proposal_scales(SPACES["rational_from"], np.zeros((3, 2)), np.full(3, 0.5),
                           np.ones(3), np.random.default_rng(0), 256)


def scales_like_the_reference(space, centers, levels, scales, seed, rows):
    """_proposal_scales against reference_scale_from_probe lane by lane on
    one stream: the scales' bits and the generator state after the call."""
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = B._proposal_scales(space, centers, levels, scales, rng, rows)
    probes = rng_ref.standard_normal((len(centers), rows, space.dim))
    want = [reference_scale_from_probe(B.Ball(space, c, a, t), probe)
            for c, a, t, probe in zip(centers, levels, scales, probes)]
    assert got.tobytes() == np.array(want).tobytes(), (len(centers), rows)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("family", ["rational_from", "step_from"])
def test_member_lanes_match_the_reference_at_lane_block_edges(family):
    # Every lane is evaluated in one pass.  The lane counts sit on each side
    # of where blocks of 8,192 floats would split a dim-2 call: the
    # calibration at 32 * dim floats a lane on count 1's probe and 256 * dim
    # on the largest, and the draws at 64 * dim.  Each gives the reference's
    # scales, rows and generator state; band 0.2 sends some lanes past their
    # first draw round.
    space = SPACES[family]
    counts = (1, 15, 16, 17, 63, 64, 65, 100, 127, 128, 129)
    draws = random_ball_draws(np.random.default_rng(5), max(counts), space.dim)
    for n in counts:
        centers, levels, scales = (a[:n] for a in draws)
        for rows in (32, 256):
            scales_like_the_reference(space, centers, levels, scales, n, rows)
        lanes_like_the_reference(space, centers, levels, scales, n, 1, 0.2)


@pytest.mark.parametrize("dim", [1, 3, 4, 8])
def test_member_lanes_match_the_reference_at_other_dims(dim):
    # 100 lanes, the scale-witness draw's call, at dims other than SPACES'
    # 2: on both families, the reference's scales on both probes, and its
    # rows and generator state at count 1 with band 0.2.
    rho = p.WeightedAbs(weights=tuple(np.linspace(0.5, 2.0, dim)))
    draws = random_ball_draws(np.random.default_rng(dim), 100, dim)
    later = False
    for space in (PMSpace(dim, RationalFrom(rho)), p.step_space(p.PPower(p=2.0), dim)):
        for rows in (32, 256):
            scales_like_the_reference(space, *draws, dim, rows)
        later |= bool(np.any(lanes_like_the_reference(space, *draws, dim, 1, 0.2) > 1))
    assert later


def lanes_like_the_reference(space, centers, levels, scales, seed, count, band):
    """sample_member_lanes against reference_member_lanes on one stream: the
    rows, ok and the generator state after the call; returns the rounds."""
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    rows, ok = B.sample_member_lanes(space, centers, levels, scales, rng, count, band)
    want, want_ok, rounds = reference_member_lanes(space, centers, levels, scales, rng_ref,
                                                   count, band)
    assert np.array_equal(ok, want_ok)
    assert rows[ok].tobytes() == want[ok].tobytes()
    assert np.all(np.isnan(rows[~ok]))
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    return rounds


def record_first_rounds(monkeypatch):
    """A list that gets, for each _first_round_members call, whether it
    settled its sample_members call (returned rows)."""
    settled, first_round_members = [], B._first_round_members

    def recording(*args):
        rows = first_round_members(*args)
        settled.append(rows is not None)
        return rows

    monkeypatch.setattr(B, "_first_round_members", recording)
    return settled


def record_lane_calls(monkeypatch):
    """A list that gets an entry for each sample_member_lanes call."""
    calls, sample_member_lanes = [], B.sample_member_lanes

    def recording(*args):
        calls.append(args)
        return sample_member_lanes(*args)

    monkeypatch.setattr(B, "sample_member_lanes", recording)
    return calls


@pytest.mark.parametrize("family", sorted(SPACES))
def test_first_round_settles_where_the_lane_call_takes_one_round(monkeypatch, family):
    # One-ball calls at count 1 (a 32-row probe and a 64-row batch) and 200
    # (a 256-row probe and an 800-row batch), each against the lane call and
    # the scalar reference; band 0.2 sends some balls on to round 2.  sample_members
    # settles in its first round exactly where the calibration moves no
    # scale in its first round and the lane call needs no round 2, and runs
    # the lane call otherwise.
    space = SPACES[family]
    settled = record_first_rounds(monkeypatch)
    lane_calls = record_lane_calls(monkeypatch)
    cases = set()
    for count in (1, 200):
        for band in (1e-9, 0.2):
            for seed, ball in enumerate(random_balls(space, np.random.default_rng(count), 12)):
                rounds = lanes_like_the_reference(space, ball.center[None, :], [ball.level],
                                                  [ball.scale], seed, count, band)
                probe = np.random.default_rng(seed).standard_normal(
                    (reference_probe_rows(count), space.dim))
                still = (reference_scale_from_probe(ball, probe, rounds=1)
                         == reference_scale_from_probe(ball, probe, rounds=0))
                exits, calls = len(settled), len(lane_calls)
                sample_members_like_the_reference(ball, seed, count, band)
                assert len(settled) == exits + 1
                assert settled[-1] == (still and rounds[0] == 1)
                assert len(lane_calls) == calls + (not settled[-1])
                cases.add((still, rounds[0] > 1))
    # Round 2 is reached and not; the calibration stays put on every family,
    # and moves where no closed form seeds the scale at a usable value.
    assert {further for _, further in cases} == {False, True}
    assert {still for still, _ in cases} == (
        {True} if family in ("rational_from", "step_from") else {False, True})


def sample_members_like_the_reference(ball, seed, count, band):
    """sample_members against reference_sample_members on one stream: the
    rows or the starvation message, and the generator state after the call."""
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        want = reference_sample_members(ball, rng_ref, count, band)
    except VerificationError as exc:
        with pytest.raises(VerificationError, match=f"^{re.escape(str(exc))}$"):
            B.sample_members(ball, rng, count, band)
    else:
        got = B.sample_members(ball, rng, count, band)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("band", [0.0, 1e-9, 0.2])
@pytest.mark.parametrize("family", sorted(SPACES))
def test_sample_members_settle_in_the_first_round_like_the_reference(monkeypatch, family,
                                                                      band):
    # sample_members settles a call in its first round, or runs the lane path
    # from the state it entered with: random balls that settle, move the
    # calibration or reach round 2, balls that starve (a level under
    # EPS_STRICT leaves no strict member; at band 0.2 a level of 0.15 none
    # outside the band), a ball whose closed-form seed is held at 1e-12 (a
    # scale of 1e-13), and counts on each side of the FIRST_ROUND_FLOATS
    # edge: at dim 2 the probe and first batch of count 960 fill its floats.
    space = SPACES[family]
    settled = record_first_rounds(monkeypatch)
    for count in (1, 50, 200):
        for seed, ball in enumerate(random_balls(space, np.random.default_rng(count), 12)):
            sample_members_like_the_reference(ball, seed, count, band)
    for level, scale in ((0.5 * EPS_STRICT, 1.0), (0.15, 1.0), (0.5, 1e-13)):
        sample_members_like_the_reference(B.Ball(space, np.zeros(2), level, scale), 3, 1, band)
    ball = random_balls(space, np.random.default_rng(0), 1)[0]
    assert (reference_probe_rows(960) + 4 * 960) * 2 == B.FIRST_ROUND_FLOATS
    for count in (960, 961):
        exits = len(settled)
        sample_members_like_the_reference(ball, count, count, band)
        assert len(settled) == exits + (count == 960)
    assert set(settled) == {False, True}
    if family not in ("rational_from", "step_from"):
        return  # no closed form seeds the scale, so no probe median is taken
    # The seed from a probe median of 0 or NaN is 1, as is the reference's.
    # Sigma gives that median on the probe's normals, the call's first rows
    # (the probe of a fall-through, and of the reference, too).
    sigma = PMSpace.sigma
    ball = B.Ball(space, np.array([0.3, -0.2]), 0.5, 1.0)
    for median in (np.zeros_like, lambda S: np.full_like(S, np.nan)):
        for count in (1, 200):
            probe = np.random.default_rng(count).standard_normal((reference_probe_rows(count), 2))

            def on_probe(self, X, median=median, probe=probe):
                S = sigma(self, X)
                return median(S) if np.array_equal(X, probe) else S

            monkeypatch.setattr(PMSpace, "sigma", on_probe)
            exits = len(settled)
            sample_members_like_the_reference(ball, count, count, band)
            # Seeded at 1, the one-member call settles in its first round.
            assert len(settled) == exits + 1 and (settled[-1] or count > 1)

    def failing(self, X):
        monkeypatch.setattr(PMSpace, "sigma", sigma)
        raise ValueError("sigma failed")

    # An error in sigma's first call, the probe median's, is raised where the
    # lane path raises it, with the lane path's generator state.
    states = []
    for sample in (lambda rng: B.sample_members(ball, rng, 200, band),
                   lambda rng: B.sample_member_lanes(space, ball.center[None, :], [0.5], [1.0],
                                                     rng, 200, band)):
        monkeypatch.setattr(PMSpace, "sigma", failing)
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="sigma failed"):
            sample(rng)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]


@pytest.mark.parametrize("epsilon", [0.2, 0.35])
@pytest.mark.parametrize("family", sorted(SPACES))
def test_member_lanes_take_further_rounds_and_starve_like_the_reference(family,
                                                                         epsilon):
    # The predicate's own balls: at epsilon 0.2 some first batches keep
    # nothing, so lanes go on to later rounds; at 0.35 some lanes starve.
    space = SPACES[family]
    draws = random_ball_draws(np.random.default_rng(len(family)), 100, space.dim)
    rng, rng_ref = np.random.default_rng(0), np.random.default_rng(0)
    rows, ok = B.sample_member_lanes(space, *draws, rng, 1, epsilon)
    want, want_ok, rounds = reference_member_lanes(space, *draws, rng_ref, 1, epsilon)
    assert np.array_equal(ok, want_ok)
    assert rows[ok].tobytes() == want[ok].tobytes()
    assert np.all(np.isnan(rows[~ok]))
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    if epsilon == 0.2 and family in ("floored", "rational_from"):
        assert np.any(rounds[ok] > 1)
    if epsilon == 0.35:
        assert not np.all(ok)
        # A level of at most epsilon leaves no member outside the band.
        i = np.flatnonzero(~ok & (draws[1] <= epsilon))[0]
        starved = B.Ball(space, draws[0][i], draws[1][i], draws[2][i])
        for sample in (B.sample_members, reference_sample_members):
            with pytest.raises(VerificationError, match="starved"):
                sample(starved, np.random.default_rng(1), 1, epsilon)


@pytest.mark.parametrize("epsilon", [1e-9, 0.2, 0.35])
@pytest.mark.parametrize("family", sorted(SPACES))
def test_scale_witness_predicates_match_per_trial_loops(family, epsilon):
    # epsilon 0.2 sends some lanes past their first batch; 0.35 starves some
    # trials outright.
    space = SPACES[family]
    budget = p.SampleBudget(n_vectors=100, epsilon=epsilon, rng_seed=len(family))
    count = 100 if epsilon < 0.35 else 40
    got = F._random_scale_witnesses(space, budget, count)
    if epsilon == 0.35:
        assert got.record["pairs"] < count
    assert got.to_record() == reference_random_scale_witnesses(space, budget,
                                                               count).to_record()
    assert (F._boundary_pairs(space, budget, count).to_record()
            == reference_boundary_pairs(space, budget, count).to_record())


def test_boundary_pairs_leave_tiny_sigma_levels_unused():
    # sigma(u) <= 1e-9 makes a trial ineligible; its level is drawn and unused.
    space = p.rational_space(p.WeightedAbs(weights=(1e-9, 1e-9)), 2)
    budget = p.SampleBudget(n_vectors=100, rng_seed=2)
    got = F._boundary_pairs(space, budget, 100)
    assert 0 < got.record["eligible"] < 100
    assert got.to_record() == reference_boundary_pairs(space, budget, 100).to_record()


def reference_find_delta2(space, budget, candidates):
    """The first candidate with no broken row, by the records' count."""
    for c in sorted(candidates):
        if not reference_delta2_records(space, c, budget)[1]:
            return float(c)
    return None


def reference_delta2_broken(space, c, grid, lhs, S, eps):
    """The doubling inequality on a whole (rows, grid) matrix: (rows that
    break it, rhs, rhs - lhs)."""
    rhs = space.kernel(grid[None, :] / c, S)
    gap = rhs - lhs
    return np.max(gap, axis=1) > eps, rhs, gap


def reference_delta2_records(space, c, budget):
    """The unblocked doubling records: one full-matrix evaluation of every
    row, then the first MAX_STORED_VIOLATIONS records and the count."""
    X = sample_vectors(check_rng(budget.rng_seed, "delta2"), budget.n_vectors,
                       space.dim)
    grid = budget.grid_array()
    lhs = space.mu_matrix(2.0 * X, grid)
    bad, rhs, gap = reference_delta2_broken(space, c, grid, lhs,
                                            space.sigma(X)[:, None], budget.epsilon)

    def rec(i):
        j = int(np.argmax(gap[i]))
        return {"x": X[i].tolist(), "t": float(grid[j]), "c": c,
                "lhs": float(lhs[i, j]), "rhs": float(rhs[i, j])}

    return first_records(bad, rec)


def reference_check_delta2_declared(space, budget):
    viol, count = reference_delta2_records(space, space.declared_c, budget)
    return reference_report("delta2_declared", viol, budget.n_vectors,
                            budget.rng_seed, notes={"c": space.declared_c},
                            n_violations=count)


def reference_find_delta2_full_scan(space, budget, candidates):
    """_Delta2Scan.smallest before its block-wise early exit: each candidate
    is tested on every row at once."""
    X = sample_vectors(check_rng(budget.rng_seed, "delta2"), budget.n_vectors,
                       space.dim)
    grid = budget.grid_array()
    lhs = space.mu_matrix(2.0 * X, grid)
    S = space.sigma(X)[:, None]
    for c in sorted(candidates):
        if not np.any(reference_delta2_broken(space, c, grid, lhs, S,
                                              budget.epsilon)[0]):
            return float(c)
    return None


@pytest.mark.parametrize("space", [
    p.rational_space(p.PPower(p=1.0), 2),
    p.rational_space(p.PPower(p=2.0), 3),
    p.step_space(p.WeightedAbs(weights=(0.5, 2.0)), 2),
    p.step_space(p.PPower(p=2.0), 1),
], ids=["rational-p1", "rational-p2", "step-weighted", "step-p2"])
def test_find_delta2_matches_first_empty_violation_list(space):
    # 1500 rows end in a partial block; on step-p2 the candidate 3.999 is
    # first broken at row 948, past the first block.
    for n_vectors in (DELTA2_CHUNK // 2, 1500):
        assert n_vectors < DELTA2_CHUNK or n_vectors % DELTA2_CHUNK
        budget = p.SampleBudget(n_vectors=n_vectors, n_scalar_pairs=10, rng_seed=5)
        scan = _Delta2Scan(space, budget)
        for candidates in (p.DELTA2_CANDIDATES, (4.0, 1.0, 2.0), (1.0, 1.5),
                           (3.0, 2.5, 8.0), (1.9,), (1.999, 3.999, 8.0)):
            found = scan.smallest(candidates)
            assert found == reference_find_delta2_full_scan(space, budget, candidates)
            assert found == reference_find_delta2(space, budget, candidates)


DELTA2_SPACES = {
    "rational-p1": p.rational_space(p.PPower(p=1.0), 2, declared_c=2.0),
    "rational-p2": p.rational_space(p.PPower(p=2.0), 3, declared_c=4.0),
    "step-weighted": p.step_space(p.WeightedAbs(weights=(0.5, 2.0)), 2, declared_c=2.0),
    # Broken at rows past the first block: 3.999 is first broken at row 948.
    "step-p2": p.step_space(p.PPower(p=2.0), 1, declared_c=3.999),
    # Every row but one breaks the declared constant, across every block.
    "break_delta2_declaration": F.generate_instance(0, "rational_from",
                                                    "break_delta2_declaration"),
}


def canonical_report(rep):
    return json.dumps(rep.to_record(), sort_keys=True)


@pytest.mark.parametrize("name", sorted(DELTA2_SPACES))
def test_delta2_scan_matches_the_unblocked_reference_in_every_sharing_order(name):
    space = DELTA2_SPACES[name]
    # Below one block, not a multiple of a block, and the criterion-7
    # registry budget's 10,000 rows.
    for n in (DELTA2_CHUNK // 2 + 3, 1500, 10_000):
        assert n < DELTA2_CHUNK or n % DELTA2_CHUNK
        budget = p.SampleBudget(n_vectors=n, n_scalar_pairs=10, rng_seed=5)
        declared = canonical_report(reference_check_delta2_declared(space, budget))
        found = reference_find_delta2_full_scan(space, budget, p.DELTA2_CANDIDATES)

        scan = _Delta2Scan(space, budget)   # smallest, then declared
        assert scan.smallest(p.DELTA2_CANDIDATES) == found
        assert canonical_report(scan.declared()) == declared
        scan = _Delta2Scan(space, budget)   # declared, then smallest
        assert canonical_report(scan.declared()) == declared
        assert scan.smallest(p.DELTA2_CANDIDATES) == found
    if name == "break_delta2_declaration":
        rep = scan.declared()
        assert rep.n_violations > 9_990 and len(rep.violations) == 50


def scan_spaces():
    """Valid spaces of both families on every modular kind, a valid closed
    step space and a floored step space, and every mutation: a FlooredMap
    (break_pm1), a ClosedStepFrom (break_left_continuity) and functionals
    whose pair rows are partly or wholly unsettled."""
    spaces = {f"{make.__name__}-{name}": make(rho, 2, declared_c=c)
              for make in (p.rational_space, p.step_space)
              for name, rho, c in (("weighted", p.WeightedAbs(weights=(0.5, 2.0)), 2.0),
                                   ("p1", p.PPower(p=1.0), 2.0),
                                   ("p2", p.PPower(p=2.0), 4.0))}
    weighted = p.WeightedAbs(weights=(0.5, 2.0))
    spaces["closed_step-weighted"] = PMSpace(dim=2, modular_map=ClosedStepFrom(weighted),
                                             declared_c=2.0)
    spaces["floored_step-weighted"] = PMSpace(
        dim=2, modular_map=FlooredMap(StepFrom(weighted), 0.1), declared_c=2.0)
    for mutation in F.MUTATION_KINDS:
        spaces[mutation] = F.generate_instance(0, F.MUTATION_FAMILY[mutation], mutation)
    return spaces


STEP_BASES = (StepFrom, ClosedStepFrom)

# The interval clause's relative widening of [min(u, w), max(u, w)].
STEP_DELTA = 2.0 ** -51


def step_interval(u, v, k):
    """The interval clause's [lo, hi] of each row, w = k * v."""
    with np.errstate(all="ignore"):
        w = k * v
        return np.minimum(u, w) * (1.0 - STEP_DELTA), np.maximum(u, w) * (1.0 + STEP_DELTA)


def reference_step_settled(grid, u, v, k):
    """The rows the interval clause settles, by scanning every grid point:
    those in its domain with no grid point in the closed [lo, hi]."""
    tiny = np.finfo(float).tiny
    lo, hi = step_interval(u, v, k)
    with np.errstate(all="ignore"):
        domain = ((u >= tiny) & (k * v >= tiny) & (hi < np.inf)
                  & (grid[0] / k >= tiny) & (grid[-1] / k < np.inf))
    inside = np.any((grid[:, None] >= lo) & (grid[:, None] <= hi), axis=0)
    return domain & ~inside


# The default candidates, and CLI candidates below 1, too large to scale a
# sigma value finitely, and not a power of two at the top of the float range.
SCAN_CANDIDATES = P.DELTA2_CANDIDATES + (0.5, 2.0 ** 40, 2.0 ** 1000, 1e308)


def exact_scaling_rows(grid, u, v, k):
    """The rows exact scaling settles, k one number or one per row, by the
    definition: k a power of two, every t/k and k * v scaled exactly (each
    multiplied and divided back to the bits it came from, both below
    2**1022), and k * v with the bits of u."""
    k = np.broadcast_to(np.asarray(k, dtype=float), u.shape)

    def exact(x, y):
        return (x * k == y) & (y / k == x) & (np.abs(x) < 2.0 ** 1022) & (np.abs(y) < 2.0 ** 1022)

    with np.errstate(all="ignore"):
        kv = k * v
        bits = [np.ascontiguousarray(w, dtype=np.float64).view(np.int64) for w in (kv, u)]
        return ((np.frexp(k)[0] == 0.5) & exact(grid[:, None] / k, grid[:, None]).all(axis=0)
                & exact(v, kv) & (bits[0] == bits[1]))


def pair_values_with_settled_rows_checked(space, grid, u, v, k, label):
    """A scaled pair's values on every row, once every row it settles is
    checked: a row exact scaling settles has a gap of exactly 0, and a row
    _pair_settled settles has no gap above eps, below the gap bound's margin
    (1e-15), at it (4e-15), at the default and far above it.  With k one
    number _pair_exact gives the exact rows and _pair_settled settles them;
    with k one per row only the kernel's clauses are tried.  On a step
    kernel, floored or not, the settled rows are exactly those
    reference_step_settled settles, and with k one number also the exact
    ones.  A k of 0 divides by zero here only."""
    with np.errstate(divide="ignore"):
        full = P._pair_values(space, grid, u, v, k, np.arange(u.size))
    gap = np.abs(full["rhs"] - full["lhs"])
    exact = exact_scaling_rows(grid, u, v, k)
    assert np.all(gap[:, exact] == 0.0), label
    one_k = np.ndim(k) == 0
    if one_k:
        assert np.array_equal(P._pair_exact(grid, u, v, k), exact), label
    step = P._kernel_class(space) in STEP_BASES
    for eps in (1e-15, 4e-15, 1e-9, 0.5):
        settled = P._pair_settled(space, grid, u, v, k, eps)
        assert np.all(gap[:, settled] <= eps), (label, eps)
        assert not one_k or np.all(settled[exact]), (label, eps)
        if step:
            want = (exact & one_k) | reference_step_settled(grid, u, v, k)
            assert np.array_equal(settled, want), (label, eps)
    return full


@pytest.mark.parametrize("name", sorted(scan_spaces()))
def test_delta2_scan_masks_equal_the_evaluated_block_masks(name):
    # The one settle rule is sound on all three scaled pairs (the doubling
    # pair at every candidate, pm3's, and homogeneity's at beta 1 and 0.5),
    # and the scan's open rows give the full evaluation's verdicts.
    space = scan_spaces()[name]
    X = _Delta2Scan(space, p.SampleBudget(n_vectors=1500, rng_seed=3)).X   # any grid's draw
    S = space.sigma(X)
    a = P.sample_scalars(np.random.default_rng(3), 1500)
    a[:6] = [1.0, -1.0, 2.0, 0.5, -0.5, 1.0]   # homogeneity's structured probes
    a[6:8] = [0.0, 1e-307]   # k = 0, and at beta = 1 a t/k that overflows
    S_ax = space.sigma(a[:, None] * X)
    grids = {"default": D.default_t_grid()}
    step = P._kernel_class(space) in STEP_BASES
    if name.endswith("-weighted") or name == "break_left_continuity":
        # t/2 subnormal and exact, so c = 2 still settles rows; and t/2
        # rounded to 0, so no row is settled at c = 2.
        grids["subnormal-exact"] = (2.0 ** -1073, 3 * 2.0 ** -1070, 1e-3, 1.0)
        grids["subnormal-inexact"] = (5e-324, 1e-3, 1.0)
    if step:
        # Homogeneity rows with a grid point at u, at w = fl(k*v) or one ulp
        # to either side, all inside the interval; and with grid points at
        # both ends of the interval, which is closed.
        rows = np.arange(8, 40)
        at_u_w, at_ends = set(), set()
        for beta in (1.0, 0.5):
            u, w = S_ax[rows], np.abs(a[rows]) ** beta * S[rows]
            at_u_w.update(np.concatenate([u, w, *(np.nextafter(x, end) for x in (u, w)
                                                   for end in (-np.inf, np.inf))]))
            at_ends.update(np.concatenate(step_interval(S_ax[rows], S[rows],
                                                        np.abs(a[rows]) ** beta)))
        grids["at-u-and-w"], grids["at-interval-ends"] = sorted(at_u_w), sorted(at_ends)
    every = np.arange(1500)
    for grid_name, t_grid in grids.items():
        budget = p.SampleBudget(n_vectors=1500, t_grid=t_grid, rng_seed=3)
        grid, eps = budget.grid_array(), budget.epsilon
        scan = _Delta2Scan(space, budget)
        S2 = scan._S2
        for c in SCAN_CANDIDATES + (space.declared_c,):
            full = pair_values_with_settled_rows_checked(space, grid, S2, S, c, (grid_name, c))
            want = np.max(P._gap(full, False), axis=0) > eps
            rows = np.flatnonzero(~P._pair_exact(grid, S2, S, c))
            got = np.zeros(1500, dtype=bool)
            got[rows] = np.max(P._gap(P._pair_values(space, grid, S2, S, c, rows), False),
                               axis=0) > eps
            assert np.array_equal(got, want), (grid_name, c)
            assert scan.smallest((c,)) == (None if want.any() else c)
        assert scan.declared().n_violations == want.sum()   # want: the declared c's
        pair_values_with_settled_rows_checked(space, grid, space.sigma(-X), S, 1.0,
                                              (grid_name, "pm3"))
        for beta in (1.0, 0.5):
            k = np.abs(a) ** beta
            pair_values_with_settled_rows_checked(space, grid, S_ax, S, k, (grid_name, beta))
            if grid_name == "default":
                # The kernel's clauses settle every homogeneity row exact
                # scaling settles, but those with sigma 0 on both sides and,
                # on the rational kernel, at eps below the gap bound's margin.
                exact = exact_scaling_rows(grid, S_ax, S, k) & ((S_ax != 0) | (S != 0))
                assert exact.any(), beta
                for eps in (4e-15, 1e-9, 0.5) + ((1e-15,) if step else ()):
                    settled = P._pair_settled(space, grid, S_ax, S, k, eps)
                    assert np.all(settled[exact]), (beta, eps)
        declared = np.flatnonzero(~P._pair_exact(grid, S2, S, space.declared_c))
        settled_at_2 = np.flatnonzero(P._pair_exact(grid, S2, S, 2.0))
        if name == "break_pm2":
            # sigma is 0 on both sides of some rows only: those are settled
            # at c = 2, and some of the open rows break it.
            assert 0 < settled_at_2.size < 1500
            assert scan.smallest((2.0,)) is None
        elif name == "break_delta2_declaration":
            assert np.array_equal(declared, every)
            assert scan.declared().n_violations > 0
        elif grid_name == "subnormal-inexact":
            assert settled_at_2.size == 0
        elif name not in F.MUTATION_KINDS:
            assert declared.size == 0
            assert scan.declared().n_violations == 0


def test_step_clause_leaves_open_the_rows_its_proof_does_not_cover():
    # Rows (u, v, k) against a grid of their own, on every step kernel and
    # with k one number or one per row.  With u = w = fl(k*v), a grid point
    # at w or one ulp to either side can have a gap of 1, on the open step
    # or on the closed one: an interval of width 0 would settle the rows one
    # ulp away, and open at its ends also those at w.  A NaN settles
    # nothing, and a subnormal t/k can round onto v, a gap of 1 that only
    # the domain keeps open; k = 0 and an overflowing t/k stay open too.
    def at_w(k, v, ulps):
        w = k * v
        return (w + ulps * np.spacing(w),), w, v, k

    v_sub, k_big = 7 * 2.0 ** -1074, 1.5 * 2.0 ** 60
    w_sub = k_big * v_sub
    cases = {   # name: ((grid, u, v, k), largest gap on the open and the closed step)
        "one-ulp-above-w": (at_w(1.1987577381478085, 9.807564626014374, 1), (1.0, 0.0)),
        "one-ulp-below-w": (at_w(1.3577951967090702, 5.411612282006679, -1), (0.0, 1.0)),
        "at-w-closed": (at_w(1.6369616873214543, 10.104930571884328, 0), (0.0, 1.0)),
        "at-w-open": (at_w(1.4226872211976584, 13.54370617953049, 0), (1.0, 0.0)),
        "nan-u": (((2.0,), np.nan, 1.0, 1.5), (1.0, 1.0)),
        "nan-v": (((2.0,), 1.0, np.nan, 1.5), (1.0, 1.0)),
        "subnormal-t-over-k": (((w_sub * (1.0 + 2.0 ** -40),), w_sub, v_sub, k_big), (1.0, 0.0)),
        "k-zero": (((0.5, 2.0), 1.0, 1.0, 0.0), (1.0, 1.0)),
        "overflowing-t-over-k": (((1e-3, 1e10), 2e-10, 1e290, 1e-300), (0.0, 0.0)),
    }
    assert cases["one-ulp-above-w"][0][1] == 11.756893987819447
    rho = p.WeightedAbs(weights=(1.0,))
    maps = {"open": StepFrom(rho), "closed": ClosedStepFrom(rho),
            "floored": FlooredMap(StepFrom(rho), 0.1)}
    for name, ((t, u, v, k), gaps) in cases.items():
        grid = np.asarray(t)
        for kind, mm in maps.items():
            space = PMSpace(dim=1, modular_map=mm)
            for k_rows in (k, np.array([k])):
                full = pair_values_with_settled_rows_checked(space, grid, np.array([u]),
                                                             np.array([v]), k_rows, name)
                gap = np.max(np.abs(full["rhs"] - full["lhs"]))
                assert gap == {"open": gaps[0], "closed": gaps[1],
                               "floored": 0.9 * gaps[0]}[kind], (name, kind)
                assert not P._pair_settled(space, grid, np.array([u]), np.array([v]),
                                           k_rows, 0.5).any(), (name, kind)


def float_bits_equal(x, y):
    """Elementwise: the same float64 bits, or NaN on both sides."""
    return (P._float_bits(x) == P._float_bits(y)) | (np.isnan(x) & np.isnan(y))


# Twenty grid points within 1e-9 of 1: neighbouring gaps differ by about as
# much as rounding moves them, so a window's certificate often fails there.
CLUSTERED_GRID = tuple(1.0 + i * 1e-10 for i in range(-10, 10))

PEAK_GRIDS = {
    "default": D.default_t_grid(),
    "clustered": CLUSTERED_GRID,
    "one-point": (1.0,),
    "two-points": (0.5, 2.0),
    # Each point followed by its next float and by a copy of that.
    "ulp-adjacent-and-duplicate": tuple(itertools.chain.from_iterable(
        (t, np.nextafter(t, np.inf), np.nextafter(t, np.inf))
        for t in D.default_t_grid(1e-2, 1e2, 12))),
    # The last point at MAX_GRID_T: t/k overflows at k = 1e-30.
    "to-max-grid-t": D.default_t_grid(1e-3, D.MAX_GRID_T, 64),
}


def peak_pairs(space, n, seed):
    """The scaled pairs (u, v, k, absolute) of pm3, of doubling at the
    declared constant, half and twice it and two other candidates, at
    k = 1e-30 (t/k overflows at the grid's top) and at k = 1e300 (t/k
    subnormal at its bottom), and of homogeneity at beta 1 and 0.5, over n
    rows; u holds a NaN and an inf, and v too, in rows of their own."""
    X = sample_vectors(np.random.default_rng(seed), n, space.dim)
    a = sample_scalars(np.random.default_rng(seed + 1), n)
    S, S2, S_ax = space.sigma(X), space.sigma(2.0 * X), space.sigma(a[:, None] * X)
    c = space.declared_c or 2.0
    pairs = {"pm3": (space.sigma(-X), S, 1.0, True)}
    for k in (c, c / 2, 2 * c, 1.5, 2 ** 0.25, 1e-30, 1e300):
        pairs[f"doubling-{k}"] = (S2, S, k, False)
    for beta in (1.0, 0.5):
        pairs[f"homogeneity-{beta}"] = (S_ax, S, np.abs(a) ** beta, True)
    for u, v, k, absolute in pairs.values():
        u[:2], v[2:4] = (np.nan, np.inf), (np.nan, np.inf)
    return pairs


def peak_spaces():
    """Valid rational spaces, and each rational mutation at two seeds:
    break_pm1's FlooredMap among them."""
    spaces = {f"rational-{name}": p.rational_space(rho, 2, declared_c=c)
              for name, rho, c in (("weighted", p.WeightedAbs(weights=(0.5, 2.0)), 2.0),
                                   ("p1", p.PPower(p=1.0), 2.0),
                                   ("p2", p.PPower(p=2.0), 4.0))}
    for kind in F.MUTATION_KINDS:
        if F.MUTATION_FAMILY[kind] == "rational_from":
            for seed in (0, 3):
                spaces[f"{kind}-{seed}"] = F.generate_instance(seed, "rational_from", kind)
    return spaces


@pytest.mark.parametrize("name", sorted(peak_spaces()))
def test_peak_windows_give_the_whole_grids_verdicts_gaps_and_first_argmax(monkeypatch, name):
    # Every row of every scaled pair, settled or not, read by _pair_gaps and
    # _pair_peaks against _pair_values on the whole grid: the same verdict
    # for every row, and for every broken row, and every row of an absolute
    # pair, the bits of its largest gap; and for every broken row the t, lhs
    # and rhs at its first argmax.
    space = peak_spaces()[name]
    if name == "break_pm1-0":
        assert type(space.modular_map) is FlooredMap
    evaluated = {}
    values = P._pair_values

    def counted(space, grid, u, v, k, rows):
        key = (grid_name, "window" if grid.ndim == 2 else "grid")
        evaluated[key] = evaluated.get(key, 0) + np.size(rows)
        return values(space, grid, u, v, k, rows)

    monkeypatch.setattr(P, "_pair_values", counted)
    for grid_name, t_grid in PEAK_GRIDS.items():
        grid = np.asarray(t_grid)
        for pair_name, (u, v, k, absolute) in peak_pairs(space, 1000, 11).items():
            every = np.arange(u.size)
            with np.errstate(all="ignore"):
                full = values(space, grid, u, v, k, every)
                gap = P._gap(full, absolute)
                top, first = np.max(gap, axis=0), np.argmax(gap, axis=0)
            for eps in (1e-15, 1e-9, 0.5):
                label = (grid_name, pair_name, eps)
                got = P._pair_gaps(space, grid, u, v, k, every, eps, absolute)
                broken = top > eps
                assert np.array_equal(got > eps, broken), label
                exact = every if absolute else np.flatnonzero(broken)
                assert float_bits_equal(got[exact], top[exact]).all(), label
                rows = np.flatnonzero(broken)
                peak, named = P._pair_peaks(space, grid, u, v, k, rows, eps, absolute)
                assert float_bits_equal(peak, top[rows]).all(), label
                named_gap = P._gap(named, absolute)
                at = np.argmax(named_gap, axis=0), np.arange(rows.size)
                for key, value in named.items():
                    want = np.broadcast_to(full[key], gap.shape)[first[rows], rows]
                    got_at = np.broadcast_to(value, named_gap.shape)[at]
                    assert float_bits_equal(got_at, want).all(), (label, key)
    # Both paths ran on every grid longer than a window, and none on the
    # grids of one and two points, which are read on the grid.
    for grid_name, t_grid in PEAK_GRIDS.items():
        windows = evaluated.get((grid_name, "window"), 0)
        assert (windows > 0) == (len(t_grid) > P.PEAK_WINDOW), (grid_name, evaluated)
        assert evaluated[grid_name, "grid"] > 0, (grid_name, evaluated)


@pytest.mark.parametrize("mutation", [None, "break_delta2_declaration"])
def test_check_delta2_evaluates_no_block_at_a_settled_declared_constant(
        tmp_path, monkeypatch, mutation):
    space = F.generate_instance(0, "rational_from", mutation)
    evaluated, on_grid = [], []
    values = P._pair_values

    def recorded(space, grid, u, v, k, rows):
        # pm3's k = 1 leaves no row of a valid instance open, and
        # homogeneity's k is one number per row, so the calls with one
        # number k are the doubling scan's.  Every row evaluated goes
        # through here: a rational row on its peak window (a 2-d grid of
        # each row's points), and on the whole grid where it falls back.
        if np.ndim(k) == 0:
            evaluated.extend((k, int(r)) for r in rows)
            if grid.ndim == 1:
                on_grid.extend((k, int(r)) for r in rows)
        return values(space, grid, u, v, k, rows)

    monkeypatch.setattr(P, "_pair_values", recorded)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"instance": space.to_config(),
                               "budget": {"n_vectors": 2000, "rng_seed": 0}}))
    code = cli.main(["check-delta2", "--config", str(cfg),
                     "--out", str(tmp_path / "report.ndjson")])
    at_declared = {row for c, row in evaluated if c == space.declared_c}
    if mutation is not None:
        # Every row is open at the declared constant, and read on its window.
        assert code == 1 and at_declared == set(range(2000)) and not on_grid
        return
    # The candidates below the declared 2 are still ruled out by evaluation.
    assert code == 0 and evaluated and not at_declared
    assert len(set(evaluated)) == len(evaluated)
    # Nor does a registry run, whose two doubling predicates share one scan,
    # evaluate any (c, row) twice on a valid instance, or any row at its
    # declared constant.
    for family in ("rational_from", "step_from"):
        spaces = [F.generate_instance(seed, family) for seed in (0, 1, 2, 4)]
        assert sorted(space.dim for space in spaces) == [1, 2, 3, 4]
        for seed, space in enumerate(spaces):
            evaluated.clear()
            run = p.run_registry(space, p.SampleBudget(
                n_vectors=10_000, n_scalar_pairs=10_000, epsilon=1e-9, rng_seed=seed))
            assert run.results["delta2_declared"].outcome == "pass"
            assert run.results["delta2_estimate"].record["estimated_c"] == space.declared_c
            assert evaluated and len(set(evaluated)) == len(evaluated), (family, space.dim)
            assert all(c != space.declared_c for c, _ in evaluated)


def reference_check_beta_homogeneous(space, beta, budget):
    """check_beta_homogeneous on whole (rows, grid) matrices."""
    rng = check_rng(budget.rng_seed, "homogeneous")
    n = max(budget.n_vectors, budget.n_scalar_pairs)
    X = sample_vectors(rng, n, space.dim)
    a = P.sample_scalars(rng, n)    # looked up when run, so a test can force |a|
    a[: min(6, n)] = [1.0, -1.0, 2.0, 0.5, -0.5, 1.0][: min(6, n)]
    grid = budget.grid_array()
    lhs = space.mu_matrix(a[:, None] * X, grid)
    rhs = space.kernel(grid[None, :] / (np.abs(a) ** beta)[:, None],
                       space.sigma(X)[:, None])
    diff = np.max(np.abs(lhs - rhs), axis=1)

    def rec(i):
        j = int(np.argmax(np.abs(lhs[i] - rhs[i])))
        return {"x": X[i].tolist(), "a": float(a[i]), "t": float(grid[j]),
                "lhs": float(lhs[i, j]), "rhs": float(rhs[i, j])}

    viol, count = first_records(diff > budget.epsilon, rec)
    return reference_report("beta_homogeneous", viol, n, budget.rng_seed,
                            notes={"beta": beta}, n_violations=count)


RATIONAL_P1 = p.rational_space(p.PPower(p=1.0), 2)

# (space, beta, t_grid or None for the default, |a| forced or None).
HOMOGENEITY_CASES = {
    "rational-p1": (RATIONAL_P1, 1.0, None, None),
    "step-weighted": (p.step_space(p.WeightedAbs(weights=(0.5, 2.0)), 2), 1.0, None, None),
    # A degree-one space declared with beta 0.5: most rows break, in every block.
    "half-beta-on-degree-one": (p.rational_space(p.WeightedAbs(weights=(1.0,)), 1), 0.5,
                                None, None),
    "rational-p2": (p.rational_space(p.PPower(p=2.0), 3), 1.0, None, None),
    # The ends of the scalar law, and sigma values and grid points at the
    # ends of the normal range, where t/|a| and sigma(a x) stay normal.
    "abs-a-1e-2": (RATIONAL_P1, 1.0, None, 1e-2),
    "abs-a-1e2": (RATIONAL_P1, 1.0, None, 1e2),
    "half-beta-abs-a-1e2": (RATIONAL_P1, 0.5, None, 1e2),
    "sigma-near-1e-300": (p.rational_space(p.WeightedAbs(weights=(1e-300, 3e-300)), 2),
                          1.0, None, None),
    "sigma-near-1e300": (p.rational_space(p.WeightedAbs(weights=(1e300, 3e300)), 2), 1.0,
                         None, None),
    "grid-to-1e-300": (RATIONAL_P1, 1.0, D.default_t_grid(1e-300, 1e3, 64), None),
    # Maps the bound does not cover, and a functional that breaks symmetry.
    "step-p2": (p.step_space(p.PPower(p=2.0), 2), 1.0, None, None),
    "floored": (PMSpace(dim=2, modular_map=FlooredMap(RationalFrom(p.PPower(p=1.0)), 0.1)),
                1.0, None, None),
    "break_pm3": (F.generate_instance(0, "rational_from", "break_pm3"), 1.0, None, None),
}


@pytest.mark.parametrize("name", list(HOMOGENEITY_CASES))
def test_blocked_homogeneity_matches_the_full_matrix_reference(monkeypatch, name):
    # Rows the gap bound settles are never evaluated; below its margin
    # (1e-15), at it (4e-15), at the default and far above it, every report
    # is the full matrices' report.
    space, beta, t_grid, abs_a = HOMOGENEITY_CASES[name]
    if abs_a is not None:
        draw = P.sample_scalars
        monkeypatch.setattr(P, "sample_scalars",
                            lambda rng, n: np.copysign(abs_a, draw(rng, n)))
    grid = {} if t_grid is None else {"t_grid": t_grid}
    for eps in (1e-15, 4e-15, 1e-9, 0.5):
        for n_vectors, n_pairs in ((DELTA2_CHUNK // 2 + 3, 10), (1500, 900), (300, 5000)):
            budget = p.SampleBudget(n_vectors=n_vectors, n_scalar_pairs=n_pairs,
                                    epsilon=eps, rng_seed=n_vectors, **grid)
            got = p.check_beta_homogeneous(space, beta, budget)
            ref = reference_check_beta_homogeneous(space, beta, budget)
            assert canonical_report(got) == canonical_report(ref), (eps, n_vectors)
            assert got.passed == ref.passed
            if name == "half-beta-on-degree-one" and eps == 1e-9:
                assert ref.n_violations > 0.9 * max(n_vectors, n_pairs)
                assert len(got.violations) == 50


def homogeneity_rows_evaluated(monkeypatch, space, beta, budget):
    """The rows check_beta_homogeneous passes to the kernel before it builds
    its records: each block's two kernel calls take the same rows, on the
    rows' peak windows or, for the rows that fall back, on the whole grid,
    so a row read on both counts twice."""
    sizes, scanned = [], []
    kernel = type(space.modular_map).kernel
    monkeypatch.setattr(type(space.modular_map), "kernel",
                        lambda self, T, S: sizes.append(np.size(S)) or kernel(self, T, S))
    make = P._make_report
    monkeypatch.setattr(P, "_make_report",
                        lambda *args, **kw: scanned.append(sum(sizes)) or make(*args, **kw))
    rep = p.check_beta_homogeneous(space, beta, budget)
    (rows,) = scanned
    assert rows % 2 == 0
    return rows // 2, rep


def test_homogeneity_evaluates_no_row_of_a_valid_degree_one_rational_space(monkeypatch):
    spaces = {}
    for seed in range(64):
        space = F.generate_instance(seed, "rational_from")
        if space.declared_beta is not None:
            spaces.setdefault(space.dim, space)
    assert sorted(spaces) == [1, 2, 3, 4]
    budget = p.SampleBudget(n_vectors=5000, n_scalar_pairs=5000, rng_seed=7)
    for space in spaces.values():
        # break_pm1's FlooredMap settles its rows by its base's gap bound.
        for checked in (space, F.apply_mutation(space, "break_pm1", 0)):
            rows, rep = homogeneity_rows_evaluated(monkeypatch, checked, 1.0, budget)
            assert rows == 0 and rep.passed and rep.samples_run == 5000
            monkeypatch.undo()
    # On a degree-two space at beta = 1 every row is open but the a = 1, -1
    # and 1 probes, where sigma(a x) is exactly |a| sigma(x), and each is
    # read once, on its peak window: none falls back.
    rows, rep = homogeneity_rows_evaluated(
        monkeypatch, p.rational_space(p.PPower(p=2.0), 3), 1.0, budget)
    assert rows == 5000 - 3 and rep.n_violations == 5000 - 3


def test_registry_evaluates_no_homogeneity_row_of_a_valid_step_space(monkeypatch):
    # At the criterion-7 budget the interval clause settles every row of
    # homogeneity's pair, the one pair with a k per row, on valid step
    # spaces: in beta_declared and in scaling_identity's precondition.
    evaluated = []
    values = P._pair_values

    def recorded(space, grid, u, v, k, rows):
        if np.ndim(k) > 0:
            evaluated.append((space.dim, rows.size))
        return values(space, grid, u, v, k, rows)

    monkeypatch.setattr(P, "_pair_values", recorded)
    spaces = [F.generate_instance(seed, "step_from") for seed in (0, 1, 2, 4)]
    assert sorted(space.dim for space in spaces) == [1, 2, 3, 4]
    for seed, space in enumerate(spaces):
        run = p.run_registry(space, p.SampleBudget(
            n_vectors=10_000, n_scalar_pairs=10_000, epsilon=1e-9, rng_seed=seed))
        assert run.results["beta_declared"].outcome == "pass"
        assert run.results["scaling_identity"].outcome == "pass"
    assert evaluated == []


def test_homogeneity_counts_the_same_violations_with_a_grid_point_at_the_bound():
    # t/|a| at a last grid point up to MAX_GRID_T stays finite, so the point
    # adds no NaN gap that would hide a violation.
    space = p.rational_space(p.PPower(p=2.0), 2)
    counts = [p.check_beta_homogeneous(space, 1.0, p.SampleBudget(
        n_vectors=200, n_scalar_pairs=200, t_grid=grid)).n_violations
        for grid in ((1e-3, 1.0, 1e3), (1e-3, 1.0, 1e3, D.MAX_GRID_T))]
    assert counts == [197, 197]


def reference_confirm_limit(f, start, target, eps):
    """The scalar limit confirmation: probe one point at a time."""
    probe = start
    for _ in range(D.LIMIT_EXTENSION_DECADES + 1):
        val = float(f(probe))
        if target == "inf" and val <= eps:
            return True, probe, val
        if target == "sup" and val >= 1.0 - eps:
            return True, probe, val
        probe = probe * 10.0 if target == "sup" else (
            probe * 10.0 if probe < 0 else -max(abs(probe), 1.0))
    return False, probe / 10.0, float(f(probe / 10.0))


def reference_check_delta_membership(f, budget):
    """The admissibility violations of one function, clause by clause."""
    ts = np.asarray(list(D.NEGATIVE_PROBES) + [0.0] + list(budget.t_grid), dtype=float)
    vals = f(ts)
    violations = []
    for i in np.nonzero((vals < -0.0) | (vals > 1.0))[0]:
        violations.append({"clause": "range", "t": float(ts[i]), "value": float(vals[i])})
    for i in np.nonzero(vals[:-1] > vals[1:])[0]:
        violations.append({"clause": "monotone",
                           "t1": float(ts[i]), "f1": float(vals[i]),
                           "t2": float(ts[i + 1]), "f2": float(vals[i + 1])})
    inf_ok, p_inf, v_inf = reference_confirm_limit(f, float(ts[0]), "inf", budget.epsilon)
    if not inf_ok:
        violations.append({"clause": "inf_limit", "t": p_inf, "value": v_inf})
    sup_ok, p_sup, v_sup = reference_confirm_limit(f, float(ts[-1]), "sup", budget.epsilon)
    if not sup_ok:
        violations.append({"clause": "sup_limit", "t": p_sup, "value": v_sup})
    return violations


def piecewise_linear(*breakpoints):
    """The linear interpolation through (t, v) breakpoints, at an array or a
    scalar t: 0 left of the first breakpoint and the last value right of the
    last one.  It takes shapes no kernel produces (a decreasing segment, a
    capped supremum, a jump or a flat interior stretch)."""
    xs, vs = (np.array(c, dtype=float) for c in zip(*breakpoints))

    def f(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < xs[0], 0.0, np.interp(t, xs, vs))

    return f


MEMBERSHIP_FUNCTIONS = [
    piecewise_linear((0.0, 0.0), (1.0, 1.0)),
    piecewise_linear((0.0, 0.0), (1.0, 0.999)),
    piecewise_linear((0.0, 0.5), (1.0, 0.2), (2.0, 1.0)),
    piecewise_linear((-1e3, 0.3), (1.0, 1.0)),
    # Both limits fail: positive far left of every probe, capped on the right.
    piecewise_linear((-1e13, 0.2), (1.0, 0.5)),
    piecewise_linear((-3e13, 0.1), (2.0, 0.4), (5e14, 0.9)),
]


@pytest.mark.parametrize("budget", [
    p.SampleBudget(n_vectors=10),
    p.SampleBudget(n_vectors=10, t_grid=(0.3, 7.3), epsilon=0.05),
], ids=["default-grid", "short-grid"])
def test_batched_admissibility_matches_the_per_function_reference(budget):
    # The reference also steps a non-negative inf probe; the batched check
    # has no such step, as its inf probes start below zero and stay there.
    assert D.NEGATIVE_PROBES[0] < 0
    fns = MEMBERSHIP_FUNCTIONS
    batch = D.check_delta_memberships(lambda t: np.stack([f(t) for f in fns]), budget)
    for f, got in zip(fns, batch):
        ref = reference_check_delta_membership(f, budget)
        assert json.dumps(got, sort_keys=True) == json.dumps(ref, sort_keys=True)
    both = [{v["clause"]: v for v in violations} for violations in batch[-2:]]
    for f, clauses in zip(fns[-2:], both):
        # The reported probe is the step past the last one, divided by ten.
        last_sup = budget.t_grid[-1]
        for _ in range(D.LIMIT_EXTENSION_DECADES + 1):
            last_sup *= 10.0
        assert clauses["inf_limit"]["t"] == -1e13 / 10.0
        assert clauses["inf_limit"]["value"] == f(-1e12)
        assert clauses["sup_limit"]["t"] == last_sup / 10.0
        assert clauses["sup_limit"]["value"] == f(last_sup / 10.0)
    if budget.t_grid[-1] == 1e3:
        assert [c["sup_limit"]["t"] for c in both] == [1e15, 1e15]


def reference_regularity_scan(evaluate, V, grid, eps):
    """_regularity_scan as it ran before the lane bisection: a fixed 48
    steps for every jump row, with no per-lane stop."""
    rows, cols = np.nonzero(V[:, 1:] - V[:, :-1] > D.JUMP_FLOOR)
    jumps = (rows, np.zeros(0), np.zeros(0))
    if rows.size:
        lo, hi = grid[cols], grid[cols + 1]
        target = 0.5 * (V[rows, cols] + V[rows, cols + 1])
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            up = evaluate(mid, rows) >= target
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        tau = 0.5 * (lo + hi)
        d_small, d_wide = D.LEFT_PROBES[-1], D.LEFT_PROBES[0]
        g_small = (evaluate(tau + d_small, rows)
                   - evaluate(np.maximum(tau - d_small, 0.0), rows))
        g_wide = (evaluate(tau + d_wide, rows)
                  - evaluate(np.maximum(tau - d_wide, 0.0), rows))
        jumpy = (g_small > eps) & (g_small >= 0.5 * g_wide)
        jumps = (rows[jumpy], tau[jumpy], g_small[jumpy])
    interior = (V > eps) & (V < 1.0 - eps)
    pair_ok = interior[:, :-1] & interior[:, 1:]
    flat = pair_ok & ~(V[:, 1:] > V[:, :-1] + D.EPS_STRICT)
    return jumps, np.nonzero(flat), int(np.sum(pair_ok))


def jump_functions():
    """Piecewise-linear functions with jumps (a rise between adjacent
    floats), steep ramps and flat stretches."""
    rng = np.random.default_rng(11)
    out = []
    for k in range(12):
        ts = np.sort(rng.uniform(1e-3, 1e2, 5))
        vs = np.sort(rng.uniform(0.0, 0.8, 5))
        bps = []
        for t, v in zip(ts, vs):
            bps.append((float(t), float(v)))
            if k % 3 != 2:  # a jump of 0.2 just right of t
                bps.append((float(np.nextafter(t, np.inf)), float(v) + 0.2))
        last = 0.0
        for i, (t, v) in enumerate(bps):
            last = max(last, v)
            bps[i] = (t, min(last, 1.0))
        out.append(piecewise_linear(*bps))
    return out


def bound_edge_functions(grid):
    """Two jumpy functions on the edges of the lane-retirement bound, each a
    jump of 0.2 or 0.3 at a point T1 that the scan finds.

    With a floor at 0: 0 for t < 0, 0.5 on [0, T1) and 0.7 from T1, with T1
    below the widest probe step, so the wide probe's left end is clamped to
    t = 0.  Read unclamped there, it gives f = 0 and a wide gap of 0.7.

    With rises just outside the bracket: T1 sits mid-way in its bracket after
    RETIRE_STAGE steps (the bracket is far wider than two widest probe
    steps), and f rises by 0.2 just left of the bracket and by 0.3 just right
    of it, each within one widest probe step of the bracket's end and beyond
    one smallest one.  Neither rise lies within a widest probe step of T1."""
    d_small, d_wide = D.LEFT_PROBES[-1], D.LEFT_PROBES[0]
    t1 = 5e-4
    assert grid[0] < t1 < d_wide and np.sum(grid < t1) == 2
    floor_at_zero = piecewise_linear((0.0, 0.5), (t1, 0.5), (float(np.nextafter(t1, np.inf)), 0.7))
    c = int(np.searchsorted(grid, 10.0))
    a, b = grid[c], grid[c + 1]
    t1 = a + 100.5 * (b - a) / 2 ** D.RETIRE_STAGE
    lo, hi = D.bisect_lanes(lambda mid: mid >= t1, a, b, D.RETIRE_STAGE)
    assert a + d_wide < lo - d_wide and t1 - d_wide > lo and t1 + d_wide < hi
    assert 0.4 * d_wide > d_small
    outside = piecewise_linear(
        (float(lo - 0.5 * d_wide), 0.0), (float(lo - 0.4 * d_wide), 0.2), (float(t1), 0.2),
        (float(np.nextafter(t1, np.inf)), 0.5), (float(hi + 0.4 * d_wide), 0.5),
        (float(hi + 0.5 * d_wide), 0.8))
    return [floor_at_zero, outside]


def regularity_spaces():
    """Each family (generated on four seeds, the closed step as the step
    space's modular closed), a FlooredMap over each, and every mutation on
    each family it applies to, with the fixed spaces of SPACES and a
    floored step space."""
    spaces = [SPACES[name] for name in sorted(SPACES)]
    spaces.append(PMSpace(2, FlooredMap(StepFrom(RHO), 0.1)))
    for seed in range(4):
        rational = F.generate_instance(seed, "rational_from")
        step = F.generate_instance(seed, "step_from")
        closed = replace(step, modular_map=ClosedStepFrom(step.modular_map.rho))
        for space in (rational, step, closed):
            spaces += [space, replace(space, modular_map=FlooredMap(space.modular_map, 0.1))]
            for mutation in F.MUTATION_KINDS:
                try:
                    spaces.append(F.apply_mutation(space, mutation, seed))
                except ValueError:   # break_left_continuity needs an open step
                    assert mutation == "break_left_continuity" and space is not step
    return spaces


def assert_scans_match(got, want):
    """Two _regularity_scan results hold the same bits."""
    (rows, at, gap), flat, pairs = got
    (want_rows, want_at, want_gap), want_flat, want_pairs = want
    for a, b in zip((rows, at, gap, *flat), (want_rows, want_at, want_gap, *want_flat)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert pairs == want_pairs


@pytest.mark.parametrize("epsilon", [1e-9, 1e-3])
def test_lane_bisection_keeps_the_fixed_step_regularity_bits(monkeypatch, epsilon):
    # The staged scan retires lanes a monotone bound proves continuous; every
    # jump it keeps must have the bits of the fixed 48-step scan, and no lane
    # it retired may be jumpy there.  Both scans run on every space's
    # evaluate, and all their arrays are compared, not just the 50 records a
    # report keeps.
    budget = p.SampleBudget(n_vectors=100, epsilon=epsilon, rng_seed=4)
    spaces = regularity_spaces()
    jumps = []

    def both_scans(*args):
        scan = D._regularity_scan(*args)
        assert_scans_match(scan, reference_regularity_scan(*args))
        jumps.append(scan[0][0].size)
        return scan

    monkeypatch.setattr(P, "_regularity_scan", both_scans)
    got = [canonical_report(p.check_space_regularity(sp, budget)) for sp in spaces]
    monkeypatch.setattr(P, "_regularity_scan", reference_regularity_scan)
    want = [canonical_report(p.check_space_regularity(sp, budget)) for sp in spaces]
    assert got == want
    assert len(jumps) == len(spaces) and sum(n > 0 for n in jumps) >= len(spaces) // 3
    # The scan itself on shapes no kernel produces, one function at a time.
    grid = D._regularity_grid(budget.t_grid)
    jumps = []
    for f in jump_functions() + bound_edge_functions(grid):
        args = (lambda t, rows: f(t), f(grid)[None, :], grid, budget.epsilon)
        scan = D._regularity_scan(*args)
        assert_scans_match(scan, reference_regularity_scan(*args))
        jumps.append(scan[0][0].size)
    assert sum(n > 0 for n in jumps[:-2]) >= 6 and jumps[-2:] == [1, 1]


def test_regularity_scan_evaluates_at_most_half_the_fixed_step_points(monkeypatch):
    # On a continuous kernel no lane is jumpy, and the monotone bound retires
    # most lanes after a stage or two.  Counted through the evaluate callable
    # (bisection, bound and probe points alike), the staged scan reads about
    # 0.37 of the points the fixed 48-step scan reads at epsilon 1e-9.
    space = F.generate_instance(0, "rational_from")
    budget = p.SampleBudget(n_vectors=64, rng_seed=0)
    assert budget.grid_array().size == 64
    points = {}

    def counting(scan, key):
        def run(evaluate, V, grid, eps):
            def counted(t, rows):
                points[key] = points.get(key, 0) + np.size(t)
                return evaluate(t, rows)
            return scan(counted, V, grid, eps)
        return run

    reports = []
    for scan, key in ((D._regularity_scan, "staged"), (reference_regularity_scan, "fixed")):
        monkeypatch.setattr(P, "_regularity_scan", counting(scan, key))
        reports.append(canonical_report(p.check_space_regularity(space, budget)))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["samples"] == 64
    assert 0 < points["staged"] <= 0.5 * points["fixed"], points


def reference_check_axioms(space, budget):
    """check_axioms before its parts were split: all four axioms, with both
    pm3 matrices in full."""
    seed = budget.rng_seed
    eps = budget.epsilon
    grid = budget.grid_array()
    n = budget.n_vectors

    rng = check_rng(seed, "axioms")
    X = sample_vectors(rng, n, space.dim)
    S_x = space.sigma(X)
    M = space.mu_matrix(X, grid)

    v0 = space.kernel(np.asarray(0.0), S_x)
    bad = np.abs(v0) > eps
    viol, count = first_records(bad, lambda i: {
        "x": X[i].tolist(), "mu_at_0": float(v0[i])})
    pm1 = reference_report("pm1", viol, n, seed, n_violations=count)

    mu0 = space.mu_matrix(space.zero()[None, :], grid)[0]
    fwd_bad = not np.all(mu0 == 1.0)
    nonzero = np.any(X != 0.0, axis=1)
    stuck = nonzero & np.all(M >= 1.0 - eps, axis=1)
    if np.any(stuck):
        ext = grid[0] * np.power(10.0, -np.arange(1.0, 13.0))
        M_ext = space.kernel(ext[None, :], S_x[stuck][:, None])
        still = np.all(M_ext >= 1.0 - eps, axis=1)
        stuck[np.nonzero(stuck)[0]] = still
    pm2_viol, count = first_records(stuck, lambda i: {
        "x": X[i].tolist(), "min_mu": float(np.min(M[i]))})
    if fwd_bad:
        pm2_viol.insert(0, {"x": space.zero().tolist(),
                            "min_mu": float(np.min(mu0))})
        count += 1
    pm2 = reference_report("pm2", pm2_viol, n + 1, seed, n_violations=count)

    M_neg = space.mu_matrix(-X, grid)
    asym = np.max(np.abs(M_neg - M), axis=1)
    bad = asym > eps
    viol, count = first_records(bad, lambda i: {
        "x": X[i].tolist(), "max_gap": float(asym[i])})
    pm3 = reference_report("pm3", viol, n, seed, n_violations=count)

    Y = sample_vectors(rng, n, space.dim)
    a = sample_convex_weights(rng, n)
    mids = a[:, None] * X + (1.0 - a[:, None]) * Y
    S_y = space.sigma(Y)
    S_m = space.sigma(mids)
    s_rand = grid[rng.integers(0, grid.size, n)]
    t_rand = grid[rng.integers(0, grid.size, n)]
    zeros = np.zeros(n)
    probe_s = np.stack([s_rand, zeros, s_rand, zeros, S_x], axis=1)
    probe_t = np.stack([t_rand, t_rand, zeros, zeros, S_y], axis=1)
    lhs = space.kernel(probe_s + probe_t, S_m[:, None])
    rhs = np.minimum(space.kernel(probe_s, S_x[:, None]),
                     space.kernel(probe_t, S_y[:, None]))
    gap = rhs - lhs
    bad = np.max(gap, axis=1) > eps

    def pm4_record(i):
        j = int(np.argmax(gap[i]))
        return {"x": X[i].tolist(), "y": Y[i].tolist(), "a": float(a[i]),
                "s": float(probe_s[i, j]), "t": float(probe_t[i, j]),
                "lhs": float(lhs[i, j]), "rhs": float(rhs[i, j])}

    viol, count = first_records(bad, pm4_record)
    pm4 = reference_report("pm4", viol, n * probe_s.shape[1], seed, n_violations=count)

    parts = {"pm1": pm1, "pm2": pm2, "pm3": pm3, "pm4": pm4}
    all_viol = [dict(v, axiom=k) for k, r in parts.items() for v in r.violations]
    rep = reference_report("axioms", all_viol, sum(r.samples_run for r in parts.values()),
                           seed, n_violations=sum(r.n_violations for r in parts.values()))
    rep.parts = parts
    # passed is n_violations == 0, which must be the verdict of all four parts.
    assert rep.passed == all(r.passed for r in parts.values())
    return rep


@dataclass(frozen=True)
class TiltedAbs(SigmaFunctional):
    """sum |x_i| plus the excess of x_0 over 1: convex, and symmetric
    exactly on the samples with |x_0| <= 1."""

    def rho(self, X):
        return np.sum(np.abs(X), axis=-1) + np.maximum(X[..., 0] - 1.0, 0.0)


AXIOM_SPACES = {
    **SPACES,
    **{m: F.generate_instance(seed, "rational_from", m)
       for seed, m in enumerate(("break_pm1", "break_pm2", "break_pm3", "break_pm4"))},
    "tilted": PMSpace(2, RationalFrom(TiltedAbs())),
    # Most samples sit at 1 over the whole grid and drop below it.
    "tiny_step": PMSpace(2, StepFrom(p.WeightedAbs(weights=(1e-4, 1e-4)))),
}


def canonical(rep):
    return json.dumps(rep.to_record(), sort_keys=True)


@pytest.mark.parametrize("name", sorted(AXIOM_SPACES))
def test_axiom_subsets_match_the_all_four_reference(name):
    space = AXIOM_SPACES[name]
    budget = p.SampleBudget(n_vectors=400, n_scalar_pairs=400, rng_seed=len(name))
    ref = reference_check_axioms(space, budget)
    full = p.check_axioms(space, budget)
    assert canonical(full) == canonical(ref) and full.passed == ref.passed
    for k in range(1, len(AXIOMS) + 1):
        for subset in itertools.combinations(AXIOMS, k):
            got = p.check_axioms(space, budget, subset)
            assert list(got.parts) == list(subset)
            assert ({a: canonical(r) for a, r in got.parts.items()}
                    == {a: canonical(ref.parts[a]) for a in subset})
            assert got.passed == all(ref.parts[a].passed for a in subset)
    assert list(p.check_axioms(space, budget, ("pm4", "pm1")).parts) == ["pm1", "pm4"]
    if name in F.MUTATION_KINDS:
        assert not ref.parts[F.MUTATION_TARGETS[name]].passed
    if name == "tiny_step":
        assert ref.parts["pm2"].passed and ref.parts["pm4"].passed
    if name == "tilted":
        # Both pm3 branches run: bit-equal sigma rows and evaluated ones.
        X = sample_vectors(check_rng(budget.rng_seed, "axioms"), 400, 2)
        same = space.sigma(-X) == space.sigma(X)
        assert 0 < np.count_nonzero(same) < len(X)
        assert not ref.parts["pm3"].passed
        assert ref.parts["pm3"].n_violations == np.count_nonzero(~same)


# Valid spaces and all six mutations.  break_pm3 sends every sample, and
# tiny_step and break_pm2 most samples, into the row blocks of pm2 and pm3.
EDGE_SPACES = {
    **AXIOM_SPACES,
    "generated_rational": F.generate_instance(4, "rational_from", None),
    "generated_step": F.generate_instance(5, "step_from", None),
    "break_left_continuity": F.generate_instance(6, "step_from", "break_left_continuity"),
    "break_delta2_declaration": F.generate_instance(7, "rational_from",
                                                    "break_delta2_declaration"),
}


@pytest.mark.parametrize("count", [None, 1024])
@pytest.mark.parametrize("n", [1, DELTA2_CHUNK - 1, DELTA2_CHUNK, DELTA2_CHUNK + 1, 10_000,
                               PM4_CHUNK - 1, PM4_CHUNK, PM4_CHUNK + 1])
def test_blocked_axioms_match_the_full_matrix_reference_at_block_edges(n, count):
    grid = {} if count is None else {"t_grid": p.default_t_grid(count=count)}
    budget = p.SampleBudget(n_vectors=n, n_scalar_pairs=n, rng_seed=n, **grid)
    assert set(F.MUTATION_KINDS) <= set(EDGE_SPACES)
    for name, space in EDGE_SPACES.items():
        ref = reference_check_axioms(space, budget)
        got = p.check_axioms(space, budget)
        assert canonical(got) == canonical(ref), name
        assert ({a: canonical(r) for a, r in got.parts.items()}
                == {a: canonical(r) for a, r in ref.parts.items()}), name
    if n > 1:
        # The blocks cover every row: break_pm3 flags every sample.
        assert p.check_axioms(EDGE_SPACES["break_pm3"], budget, ("pm3",)).n_violations == n


def test_pm4_keeps_records_from_several_blocks():
    # About one sample in a hundred breaks pm4 here, so the first fifty
    # broken samples lie in several pm4 blocks.
    space = F.generate_instance(1, "rational_from", "break_pm4")
    n = 4 * PM4_CHUNK
    budget = p.SampleBudget(n_vectors=n, n_scalar_pairs=n, rng_seed=1)
    got = p.check_axioms(space, budget, ("pm4",)).parts["pm4"]
    assert canonical(got) == canonical(reference_check_axioms(space, budget).parts["pm4"])
    X = sample_vectors(check_rng(budget.rng_seed, "axioms"), n, space.dim).tolist()
    rows = [X.index(v["x"]) for v in got.violations]
    assert len(rows) == MAX_STORED_VIOLATIONS and rows == sorted(rows)
    assert len({r // PM4_CHUNK for r in rows}) > 1


@pytest.mark.parametrize("axioms", [(), ("pm5",), ("pm1", "PM2")])
def test_check_axioms_rejects_an_empty_or_unknown_axiom_list(axioms):
    with pytest.raises(ValueError, match="subset"):
        p.check_axioms(SPACES["rational_from"], p.SampleBudget(n_vectors=10), axioms)


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
    monkeypatch.setattr(F, "_random_scale_witnesses", reference_random_scale_witnesses)
    monkeypatch.setattr(F, "_boundary_pairs", reference_boundary_pairs)
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
    rep = _Delta2Scan(space, budget).declared()
    assert rep.n_violations == 9_999 and not rep.passed
    assert rep.violations == reference_delta2_records(space, space.declared_c, budget)[0]


# -- one record path --------------------------------------------------------------
#
# The hand-written to_record bodies that the field records replaced, the
# per-ball disjointness loop that the evidence builder replaced, and the
# cumprod suffix rule that convergence.settled_from replaced.

REFERENCE_RECORDS = {
    T.RefinementWitness: lambda w: {
        "inner": w.inner.to_config(), "split": w.split, "mu_at_split": w.mu_at_split,
        "slack": w.slack, "member_level": w.member_level,
        "evidence": w.evidence.to_record()},
    T.SeparationWitness: lambda w: {
        "ball_a": w.ball_a.to_config(), "ball_b": w.ball_b.to_config(),
        "sep_scale": w.sep_scale, "chosen_level": w.chosen_level,
        "variant": w.variant, "evidence": w.evidence.to_record()},
    T.AdditionContinuityWitness: lambda w: {
        "ball_a": w.ball_a.to_config(), "ball_b": w.ball_b.to_config(),
        "evidence": w.evidence.to_record()},
    T.ScalarContinuityWitness: lambda w: {
        "ball": w.ball.to_config(), "scalar_center": w.scalar_center,
        "scalar_window": w.scalar_window, "evidence": w.evidence.to_record()},
    T.IntersectionWitness: lambda w: {
        "ball": w.ball.to_config(), "left": reference_record(w.left),
        "right": reference_record(w.right), "evidence": w.evidence.to_record()},
    C.ConvergenceVerdict: lambda v: {
        "converges": v.converges, "per_t": v.per_t, "n_used": v.n_used},
    C.TopologicalVerdict: lambda v: {
        "converges": v.converges, "per_ball": v.per_ball, "n_used": v.n_used},
}


def reference_record(obj):
    return REFERENCE_RECORDS[type(obj)](obj)


def reference_disjointness_evidence(name, ball_a, ball_b, budget, samples):
    rng = check_rng(budget.rng_seed, name)
    viol = []
    half = max(samples // 2, 1)
    for src, other, tag in ((ball_a, ball_b, "a"), (ball_b, ball_a, "b")):
        Y = B.sample_members(src, rng, half, band=budget.epsilon)
        overlap = B.contains_many(other, Y)
        viol.extend({"y": Y[i].tolist(), "sampled_from": tag}
                    for i in np.nonzero(overlap)[0])
    return reference_report(name, viol, 2 * half, budget.rng_seed)


def reference_settled_from(ns, ok):
    suffix_ok = np.flip(np.cumprod(np.flip(ok))).astype(bool)
    hits = np.nonzero(suffix_ok)[0]
    return int(ns[hits[0]]) if hits.size else None


def witnesses(space, seed):
    """The six witness constructors on random inputs; those the space cannot
    build (an infeasible chain, a starved sampler) are left out."""
    rng = np.random.default_rng(seed)
    budget = p.SampleBudget(n_vectors=64, rng_seed=seed)
    dim = space.dim
    x, y = rng.standard_normal(dim), rng.standard_normal(dim)
    outer = p.Ball(space, x, float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.5, 2.0)))
    z = x + 0.05 * rng.standard_normal(dim)
    other = p.Ball(space, z + 0.02 * rng.standard_normal(dim),
                   min(outer.level * 1.2, 0.9), outer.scale * 1.3)
    target = p.Ball(space, space.zero(), float(rng.uniform(0.2, 0.8)),
                    float(rng.uniform(0.3, 3.0)))
    builds = [
        lambda: T.refine_ball(space, outer, z, budget, samples=60),
        lambda: T.separation_witness(space, x, y, budget, samples=60),
        lambda: T.homogeneous_separation_witness(space, x, budget, samples=60),
        lambda: T.addition_continuity_witness(space, target, budget, samples=60),
        lambda: T.scalar_continuity_witness(space, target, float(rng.uniform(-3, 3)),
                                            budget, samples=60),
        lambda: T.basis_intersection_witness(space, outer, other, z, budget,
                                             samples=60),
    ]
    out = []
    for build in builds:
        try:
            out.append(build())
        except (p.InfeasibleConstruction, p.PreconditionError, VerificationError):
            pass
    return out


# Valid spaces record no violations.  A too-small declared doubling constant
# (0.3) makes the separation evidence record some; a degree-8 modular with
# c = 0.05 and beta = 0.5 makes every kind of witness evidence record some.
RECORD_SPACES = [
    p.rational_space(p.WeightedAbs(weights=(1.0, 0.5)), 2, declared_c=2.0,
                     declared_beta=1.0),
    p.rational_space(p.WeightedAbs(weights=(1.0,)), 1, declared_c=0.3, declared_beta=1.0),
    p.rational_space(p.PPower(p=8.0), 1, declared_c=0.05, declared_beta=0.5),
]


def test_witness_records_match_the_hand_written_records():
    kinds, failing = set(), set()
    for space in RECORD_SPACES:
        for seed in range(6):
            for w in witnesses(space, seed):
                kinds.add(type(w))
                if not w.evidence.passed:
                    failing.add(type(w))
                assert w.passed == w.evidence.passed
                assert (json.dumps(w.to_record(), sort_keys=True)
                        == json.dumps(reference_record(w), sort_keys=True))
                assert F._from_report(w) == PredicateResult(
                    "pass" if w.evidence.passed else "fail", reference_record(w))
    assert kinds == failing == set(REFERENCE_RECORDS) - {C.ConvergenceVerdict,
                                                         C.TopologicalVerdict}


def test_disjointness_evidence_matches_the_per_ball_loop():
    failing = 0
    for space in RECORD_SPACES:
        for seed in range(6):
            rng = np.random.default_rng(seed)
            budget = p.SampleBudget(n_vectors=64, rng_seed=seed)
            level, scale = float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.5, 4.0))
            a = p.Ball(space, rng.standard_normal(space.dim), level, scale)
            b = p.Ball(space, rng.standard_normal(space.dim), level, scale)
            for samples in (1, 60, 101):
                got = T._disjointness_evidence("separation", a, b, budget, samples)
                ref = reference_disjointness_evidence("separation", a, b, budget, samples)
                assert got == ref
                failing += not got.passed
    assert failing >= 10


def anchor_spaces():
    """Valid spaces of both families and instances of every mutation."""
    return ([p.rational_space(p.PPower(p=2.0), 2, declared_c=4.0)]
            + [F.generate_instance(seed, family) for family in ("rational_from", "step_from")
               for seed in range(4)]
            + [F.generate_instance(seed, F.MUTATION_FAMILY[kind], kind)
               for kind in F.MUTATION_KINDS for seed in range(2)])


def test_chain_feasible_is_the_hand_formula():
    # Row by row, chain_feasible is strict membership in the outer ball and
    # the doubling-chain anchor mu_(x-z)(t/c) clearing 1 - level by eps, both
    # read from the scalar sigma1 of the offset x - z.
    rng = np.random.default_rng(5)
    seen = set()
    for space in anchor_spaces():
        for rows in (1, 7, 50):
            outer = p.Ball(space, rng.standard_normal(space.dim), float(rng.uniform(0.3, 0.7)),
                           float(rng.uniform(0.5, 2.0)))
            Z = outer.center + 0.3 * rng.standard_normal((rows, space.dim))
            for eps in (EPS_STRICT, 0.05, 0.3):
                got = T.chain_feasible(space, outer, Z, eps)
                want = []
                for z in Z:
                    sig = space.sigma1(outer.center - z)
                    mu, anchor = (float(space.kernel(np.asarray(t), sig))
                                  for t in (outer.scale, outer.scale / space.declared_c))
                    cut = 1.0 - outer.level
                    want.append(mu > cut + EPS_STRICT and anchor > cut + eps)
                assert got.shape == (rows,) and got.tolist() == want
                seen |= {(m, f) for m, f in zip(B.contains_many(outer, Z), want)}
    # Members the chain refuses, members it takes, and rows outside the ball.
    assert seen == {(True, True), (True, False), (False, False)}
    undeclared = p.rational_space(p.PPower(p=2.0), 2)
    with pytest.raises(p.PreconditionError, match="doubling constant"):
        T.chain_feasible(undeclared, p.Ball(undeclared, np.zeros(2), 0.5, 1.0),
                         np.zeros((1, 2)), EPS_STRICT)


def reference_feasible_refinement_input(space, rng, eps,
                                        reason="no feasible refinement input found"):
    """The refinement-input search one candidate at a time, each a scalar
    membership test and a scalar doubling-chain anchor that must clear
    1 - level by eps, refine_ball's test at a budget of epsilon eps."""
    c = T._require_c(space)
    for _ in range(200):
        x = rng.standard_normal(space.dim)
        level = float(rng.uniform(0.3, 0.7))
        scale = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
        outer = B.Ball(space, x, level, scale)
        for _ in range(50):
            z = x + 0.3 * rng.standard_normal(space.dim)
            anchor = float(space.kernel(np.asarray(scale / c), space.sigma1(x - z)))
            if B.contains(outer, z) and anchor > 1.0 - level + eps:
                return outer, z
    raise p.InfeasibleConstruction(reason)


def refinement_search(search, space, rng, eps):
    """The search's (outer, z) bits, or its error, and the stream state after it."""
    try:
        outer, z = search(space, rng, eps)
        got = (outer.to_config(), P._float_bits(z).tolist())
    except p.InfeasibleConstruction as exc:
        got = str(exc)
    return got, rng.bit_generator.state


def test_refinement_input_search_replays_the_one_candidate_stream():
    # The criterion-5 spaces, the generated ones, and each at declared
    # constants that make the search hit at once (0.5), late or never (1e6),
    # at the default epsilon and at a wide one, where the anchor must clear
    # 1 - level by 0.3.
    spaces = [p.rational_space(p.PPower(p=1.0), d, declared_c=2.0) for d in (1, 2)]
    spaces += anchor_spaces()[1:]
    infeasible = 0
    for i, space in enumerate(spaces):
        for c in (space.declared_c, 1.01, 0.5) + ((1e6,) if i < 2 else ()):
            space_c = replace(space, declared_c=c)
            for eps in (p.SampleBudget().epsilon, 0.3):
                ref, got = np.random.default_rng(i), np.random.default_rng(i)
                for _ in range(1 if c == 1e6 else 4):
                    want = refinement_search(reference_feasible_refinement_input, space_c,
                                             ref, eps)
                    assert refinement_search(F._feasible_refinement_input, space_c,
                                             got, eps) == want
                    infeasible += isinstance(want[0], str)
    assert infeasible >= 2


def reference_refinement(space, outer, z, epsilon):
    """refine_ball's split, bound at the split, slack and inner ball, with mu
    read from the array kernel at a 0-d t; or the name of the bound that
    makes it infeasible, or "member" where z is no member of outer."""
    if not B.contains(outer, z):
        return "member"
    c = space.declared_c
    alpha, t = outer.level, outer.scale
    sig = space.sigma1(outer.center - z)
    cut = 1.0 - alpha

    def mu(tau):
        return float(space.kernel(np.asarray(tau / c), sig))

    if not mu(t) > cut + epsilon:
        return "anchor"
    tau_lo = T._bisect_infimum(lambda tau: mu(tau) > cut, t)
    if tau_lo >= t:
        return "granularity"
    split = 0.5 * (tau_lo + t)
    mu_split = mu(split)
    member_level = 1.0 - alpha / 2.0
    m = min(mu_split, member_level)
    slack = 0.5 * ((1.0 - m) + alpha)
    if not (m > 1.0 - slack > 1.0 - alpha):
        return "slack"
    inner = p.Ball(space, z, 1.0 - member_level, (t - split) / c)
    return P._float_bits([split, mu_split, slack]).tolist(), inner.to_config()


INFEASIBLE_REFINEMENTS = {"anchor": "fails to clear", "granularity": "float granularity",
                          "slack": "slack selection failed"}


def test_refine_ball_matches_the_array_kernel_reference(monkeypatch):
    # Every family, the floored maps, every mutation, and declared constants
    # that make most inputs feasible (1.01) or none (1e6), at points z in
    # and out of the outer ball.  The step space with z at sigma just below
    # t/c has no interior split.
    rho = p.PPower(p=1.0)
    spaces = anchor_spaces() + [
        PMSpace(dim=2, modular_map=ClosedStepFrom(rho), declared_c=2.0),
        PMSpace(dim=1, modular_map=FlooredMap(StepFrom(rho), 0.1), declared_c=2.0),
        PMSpace(dim=1, modular_map=FlooredMap(RationalFrom(rho), 0.1), declared_c=2.0)]
    step = p.step_space(rho, 1, declared_c=2.0)
    inputs = [(step, p.Ball(step, np.zeros(1), 0.5, 1.0),
               -np.array([np.nextafter(0.5, 0.0)]))]
    rng = np.random.default_rng(8)
    for space in spaces:
        for c in (space.declared_c, 1.01, 1e6):
            space_c = replace(space, declared_c=c)
            for _ in range(8):
                x = rng.standard_normal(space.dim)
                outer = p.Ball(space_c, x, float(rng.uniform(0.3, 0.7)),
                               float(rng.uniform(0.5, 2.0)))
                inputs.append((space_c, outer, x + 0.3 * rng.standard_normal(space.dim)))
    # Without its sampled evidence, refine_ball evaluates no array kernel: the
    # membership test of z reads kernel1 on the one sigma of x - z, as the
    # anchor and the bisection do.
    monkeypatch.setattr(T, "containment_report", lambda *args: None)
    shapes = []
    kernel = p.PMSpace.kernel

    def counting(space, T_, S):
        shapes.append(np.shape(T_))
        return kernel(space, T_, S)

    monkeypatch.setattr(p.PMSpace, "kernel", counting)
    budget = p.SampleBudget()
    outcomes = set()
    for space, outer, z in inputs:
        want = reference_refinement(space, outer, z, budget.epsilon)
        shapes.clear()
        try:
            w = T.refine_ball(space, outer, z, budget)
            got = (P._float_bits([w.split, w.mu_at_split, w.slack]).tolist(),
                   w.inner.to_config())
        except p.InfeasibleConstruction as exc:
            got = next(k for k, text in INFEASIBLE_REFINEMENTS.items() if text in str(exc))
        except p.PreconditionError:
            got = "member"
        assert got == want
        assert shapes == []
        outcomes.add(want if isinstance(want, str) else "feasible")
    assert outcomes == {"feasible", "anchor", "granularity", "member"}


def test_convergence_verdict_records_and_suffix_rule_match_the_references():
    rng = np.random.default_rng(0)
    ns = C.probe_schedule(1000)
    for _ in range(200):
        ok = rng.random(len(ns)) < rng.uniform(0.2, 1.0)
        assert C.settled_from(ns, ok) == reference_settled_from(ns, ok)
    space = p.rational_space(p.PPower(p=1.0), 1, declared_c=2.0)
    for kind in C.SEQUENCE_KINDS:
        seq = C.SequenceSpec(kind=kind, base=np.zeros(1), direction=np.array([0.3]),
                             ratio=0.5 if kind == "geometric" else None)
        for verdict in (C.check_mu_convergence(space, seq, n_max=4096),
                        C.check_topological_convergence(space, seq, n_max=4096),
                        C.check_topological_convergence(space, seq, depth=2)):
            assert verdict.to_record() == reference_record(verdict)


def reference_kernel(mm, T, S):
    """The modular kernels as they were before they let the ufuncs broadcast:
    both arguments broadcast to one shape first."""
    T, S = np.broadcast_arrays(np.asarray(T, dtype=float), np.asarray(S, dtype=float))
    if isinstance(mm, FlooredMap):
        return np.where(T < 0, 0.0, np.maximum(reference_kernel(mm.base, T, S), mm.floor))
    if isinstance(mm, StepFrom):
        return ((T > S) & (T > 0)).astype(float)
    if isinstance(mm, ClosedStepFrom):
        return ((T >= S) & (T > 0)).astype(float)
    out = np.zeros(T.shape, dtype=float)
    np.divide(T, T + S, out=out, where=T > 0)
    return out


def test_kernels_commute_with_exact_power_of_two_scaling():
    # The contract of ModularMap the doubling scan settles rows by: for c a
    # power of two, kernel(t, c*s) has the bits of kernel(t/c, s) wherever
    # t/c and c*s are exact and t, s, t/c and c*s lie below 2**1022.
    rho = p.PPower(p=1.0)
    maps = [family(rho) for family in P._FAMILIES.values()]
    maps += [FlooredMap(mm, 0.3) for mm in maps]
    tiny = np.finfo(float).tiny
    s = np.concatenate([[0.0, 5e-324, 3e-323, 1e-320, tiny / 3, tiny / 2, tiny, 3 * tiny],
                        np.geomspace(1e-300, 1e300, 601)])
    grid = D.SampleBudget().grid_array()
    for c in (0.5, 2.0, 4.0, 8.0, 2.0 ** 40):
        with np.errstate(over="ignore", under="ignore"):
            t_c, c_s = grid / c, c * s
            exact = (c_s / c == s) & (c_s < 2.0 ** 1022) & (s < 2.0 ** 1022)
        assert np.array_equal(t_c * c, grid)
        # Every subnormal doubles exactly; halving keeps the even ones.
        assert exact.sum() >= s.size - 5
        for mm in maps:
            got = mm.kernel(grid[:, None], c_s[exact])
            assert got.tobytes() == mm.kernel(t_c[:, None], s[exact]).tobytes(), (mm, c)


def test_kernels_match_the_broadcasting_reference_in_bits_and_shape():
    rng = np.random.default_rng(11)
    rho = p.PPower(p=1.0)
    maps = [RationalFrom(rho), StepFrom(rho), ClosedStepFrom(rho),
            FlooredMap(RationalFrom(rho), 0.3), FlooredMap(StepFrom(rho), 0.3)]
    row = np.concatenate([[-1.0, -0.0, 0.0, 1e-300, 0.5, 1.0],
                          np.exp(rng.uniform(-7.0, 7.0, 58))])
    sigmas = np.concatenate([[0.0, 0.5, 1.0], np.exp(rng.uniform(-7.0, 7.0, 253))])
    # Strictly positive t, where the kernels that mask t > 0 skip it: the budget
    # grid as a row and divided by the doubling constant, and the grid over
    # the |a|^beta scales of the homogeneity blocks.
    grid = D.SampleBudget().grid_array()
    scales = np.abs(sample_scalars(rng, 256)) ** 0.5
    shapes = [(0.5, 0.5), (0.0, 0.0), (-1.0, 2.0), (1.0, 1.0),      # 0-d
              (np.asarray(0.5), sigmas[:64]), (row, 0.5),            # scalar with a row
              (row, sigmas[:64]),                                    # 64-point row
              (row[None, :], sigmas[:, None]),                       # 256 x 64 block
              (grid, sigmas[:64]), (grid[None, :], sigmas[:, None]),
              (grid[None, :] / 2.0, sigmas[:, None]),
              (grid[None, :] / scales[:, None], sigmas[:, None]),
              (grid[None, :] / scales[:, None], np.zeros((256, 1)))]
    # pm4's probe-major blocks: (5, n) probes against an (n,) sigma row, with
    # all-zero probe rows, t = 0 at sigma = 0, negative and NaN t, and NaN and
    # inf sigma.
    s_row = sigmas.copy()
    s_row[:6] = [0.0, 0.0, np.nan, np.inf, 1.0, 0.0]
    t_row = np.where(np.isinf(s_row), 2.0, s_row)     # an inf t is no probe scale
    picks = grid[rng.integers(0, grid.size, s_row.size)]
    zeros = np.zeros(s_row.size)
    negative = -np.abs(rng.standard_normal(s_row.size))
    shapes += [(np.stack([picks, zeros, picks, zeros, t_row]), s_row),
               (np.stack([picks + picks, picks, zeros, negative, t_row + zeros]), s_row),
               (np.stack([zeros] * 5), s_row), (np.stack([picks] * 5), s_row),
               (np.stack([negative, zeros, picks, zeros, -t_row]), zeros)]
    for mm in maps:
        for T, S in shapes:
            got, want = mm.kernel(T, S), reference_kernel(mm, T, S)
            assert isinstance(got, np.ndarray)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        for t in (0.5, 0.0, -1.0):
            got = mm.kernel(np.asarray(t), np.asarray(0.5))
            assert isinstance(got, np.ndarray) and got.shape == ()
        # A 0-d t takes the scalar compare instead of the min reduction.  An
        # infinite t divides inf by inf in both kernels.
        for t in (np.nan, -0.0, 0.0, np.inf, -1.0, 1e-300, 0.5):
            for s in (0.0, 0.5, 2.0):
                with np.errstate(invalid="ignore"):
                    got, want = mm.kernel(np.asarray(t), s), reference_kernel(mm, t, s)
                assert isinstance(got, np.ndarray) and got.shape == ()
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (t, s)


def scalar_kernel_maps():
    """Every family, and each floored at 0.3, at the steps' 1.0 and at -0.0."""
    rho = p.PPower(p=1.0)
    maps = [family(rho) for family in P._FAMILIES.values()]
    return maps + [FlooredMap(mm, floor) for mm in maps for floor in (0.3, 1.0, -0.0)]


def test_scalar_kernels_match_the_array_kernels_in_bits():
    # kernel1 on floats against kernel on 0-d arrays.  The contract takes
    # s >= 0 or NaN: Python raises ZeroDivisionError where numpy divides t by
    # t + s = 0, and only s = -t < 0 reaches that.  A floor of -0.0 checks
    # which of two equal values np.maximum keeps.
    for mm in scalar_kernel_maps():
        for t in (np.nan, -0.0, 0.0, -1.0, 5e-324, 1e-300, 0.5, 1e300, np.inf, -np.inf):
            for s in (0.0, 5e-324, 0.5, 2.0, 1e300, np.inf, np.nan):
                got = mm.kernel1(t, s)
                with np.errstate(invalid="ignore"):
                    want = mm.kernel(np.asarray(t), np.asarray(s))
                assert type(got) is float
                assert np.float64(got).tobytes() == want.tobytes(), (mm, t, s)


def ulp_walk(start, first, stop):
    """The floats first, ..., stop - 1 ulps above the positive float start."""
    return (np.asarray(start).view(np.int64) + np.arange(first, stop)).view(float)


def test_kernels_are_non_decreasing_in_t_along_ulp_walks():
    # The monotonicity contract of ModularMap: along consecutive floats t,
    # the step kernels never fall, and the rational kernel falls by less than
    # four ulps of its value, where the rounding of t + s moves.  These walks
    # fall by one or two.  Half the walks cross t = s, where the steps jump;
    # three cross t = 0 below the normal range, where the floored maps jump.
    rng = np.random.default_rng(21)
    steps = 40_000
    subnormals = ulp_walk(5e-324, 0, steps // 2)
    walks = [(np.concatenate([-subnormals[::-1], [-0.0, 0.0], subnormals]), s)
             for s in (0.0, 5e-324, 1e-320)]
    for i in range(200):
        s = float(np.exp(rng.uniform(-20.0, 20.0)))
        walks.append((ulp_walk(s, -steps // 2, steps // 2) if i % 2 else
                      ulp_walk(s * float(np.exp(rng.uniform(-5.0, 5.0))), 0, steps), s))
    backs = 0
    for mm in scalar_kernel_maps():
        rational = isinstance(getattr(mm, "base", mm), RationalFrom)
        for t, s in walks:
            k = mm.kernel(t, s)
            fall = k[:-1] - k[1:]
            if not rational:
                assert np.all(fall <= 0), (mm, s)
                continue
            back = fall > 0
            assert np.all(fall[back] < 4 * np.spacing(k[:-1][back])), (mm, s)
            backs += int(back.sum())
    assert backs > 1000


# Values where a float sum or maximum is easy to get wrong: signed zeros,
# subnormals, the ends of the float range and the infinities.
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1e300, 1.7e308,
                        np.inf, -np.inf, 1.0, 3.0, -2.5])


def float_error(f, *args, **kwargs):
    """Whether f(*args, **kwargs) signals a floating-point error."""
    with np.errstate(all="raise"):
        try:
            f(*args, **kwargs)
        except FloatingPointError:
            return True
    return False


def test_row_sums_reproduce_numpy_sum_bit_for_bit():
    # Both functionals' rho against np.sum over their term matrix: below 8
    # columns numpy adds a row's terms in order, and _row_sums adds the same
    # columns one at a time (WeightedAbs makes each column's terms |x_j| w_j
    # as it goes); at 8 numpy sums pairwise, and _row_sums keeps np.sum.
    rng = np.random.default_rng(12)
    for dim in range(1, MAX_DIM + 1):
        weights = tuple(np.exp(rng.uniform(-3, 3, dim)))
        functionals = [(P.PPower(p=q), lambda A, q=q: A ** q) for q in (1.0, 1.5, 2.0, 3.0)]
        functionals.append((P.WeightedAbs(weights), lambda A: A * np.asarray(weights)))
        for lead in [(1,), (3,), (1000,), (5, 256)]:   # 2-D, and the lane shape
            size = lead + (dim,)
            inputs = [rng.standard_normal(size) * np.exp(rng.uniform(-50, 50, size)),
                      rng.choice(EDGE_VALUES, size),
                      np.zeros(size),
                      np.full(size, -0.0),
                      rng.standard_normal(size[::-1]).T,       # a transposed copy's view
                      rng.standard_normal(lead + (dim + 2,))[..., 1:dim + 1],  # a column slice
                      rng.choice(EDGE_VALUES, (2 * lead[0],) + size[1:])[::2]]  # every other row
            for X in inputs:
                for sigma, term in functionals:
                    def want():
                        return np.sum(term(np.abs(X)), axis=-1)
                    # An overflow or underflow raises in both or in neither.
                    assert float_error(sigma.rho, X) == float_error(want)
                    with np.errstate(all="ignore"):
                        got, expected = sigma.rho(X), want()
                    assert got.shape == expected.shape and got.dtype == expected.dtype
                    assert got.tobytes() == expected.tobytes(), (dim, lead, sigma)


def test_gap_in_place_gives_row_major_numpy_max_verdicts():
    # pm4 takes each block's gap in place of rhs and reduces it along the
    # probes: the verdicts of np.max over each row of the row-major gap,
    # with NaN rows never broken, for the signed and the absolute gap.
    rng = np.random.default_rng(13)
    rows = [[np.nan, 1.0, 2.0], [1.0, np.nan, 2.0], [1.0, 2.0, np.nan],
            [np.inf, 1.0, np.nan], [-np.inf, -np.inf, -np.inf], [np.inf, np.inf, 0.0],
            [2.0, 2.0, 1.0], [1.0, 2.0, 2.0], [0.0, -0.0, 0.0], [1e-9, 1e-9, 0.0],
            [-1.0, -2.0, -3.0], [5e-324, 0.0, -5e-324]]
    edges = rng.choice(EDGE_VALUES, (256, 64))
    edges[rng.random((256, 64)) < 0.005] = np.nan      # about one row in four
    blocks = [np.array(rows), edges,
              rng.standard_normal((256, 64)) * 1e-9,
              np.zeros((0, 64))]
    for A in blocks:
        lhs = rng.choice(EDGE_VALUES, A.shape)
        for absolute in (False, True):
            with np.errstate(invalid="ignore"):
                gap = np.abs(A - lhs) if absolute else A - lhs
                for eps in (1e-12, 1e-9, 0.5):
                    values = {"lhs": lhs.T.copy(), "rhs": A.T.copy()}
                    got = np.max(P._gap(values, absolute, in_place=True), axis=0) > eps
                    assert got.shape == (len(A),) and got.dtype == bool
                    assert np.array_equal(got, np.max(gap, axis=1) > eps)
                    # The gap was taken in place of rhs.
                    assert np.array_equal(values["rhs"], gap.T, equal_nan=True)
