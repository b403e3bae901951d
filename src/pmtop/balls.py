"""Membership balls of a probabilistic modular and their sampled algebra.

B(x, alpha, t) = { y : mu_{x-y}(t) > 1 - alpha } with level alpha in (0,1)
and scale t > 0.  Membership at the exact decision boundary is not
decidable in floating point, so the one membership rule (strict_mask)
demands a strict margin of EPS_STRICT and the samplers re-draw points in
the epsilon band around the boundary (band_mask).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Collection, Sequence

import numpy as np

from .distfn import (EPS_STRICT, CheckReport, FieldError, SampleBudget, _make_report,
                     bisect_lanes, check_number, check_rng)
from .pmspace import (
    PMSpace,
    PreconditionError,
    Vector,
    VerificationError,
    as_vector,
    check_beta_homogeneous,
    oracle_threshold,
)

# Bisection depth for scale witnesses; resolution is scale * 2**-60.
WITNESS_BISECTION_STEPS = 60

# Rejection sampling must keep at least this acceptance rate; a sampler that
# is still short after MAX_DRAW_ROUNDS draw rounds has starved.
MIN_ACCEPTANCE = 0.10
MAX_DRAW_ROUNDS = 200

# The calibration probe's size (_probe_rows).  At 32 rows the acceptance
# estimate's standard error is about 0.09 at acceptance 0.5, so the [0.2, 0.8]
# window spans +-3.4 of them, and the draw rounds still halve a scale whose
# acceptance falls below MIN_ACCEPTANCE.
PROBE_ROWS = 256
PROBE_ROWS_PER_MEMBER = 32

# Floats of candidates in a block of lanes of _lane_mu and the probe medians.
# 100-lane draws, count 1, dims 1-4, both families (2-core Xeon VM, medians
# of 15 passes): 79 ms at 1,024, 48 at 4,096, 42 at 8,192, 40 at 16,384, 44
# at 32,768, 49 unblocked; 6,144-24,576 within the quartiles, smaller peaks.
LANE_BLOCK = 8192

# Bounds on a ball's level and scale, as check_number takes them.
LEVEL = {"above": 0, "below": 1}
SCALE = {"above": 0}

# The fields each monotonicity check orders, low <= high.
ORDERED = {"monotone_in_scale": ("scale", "scale2"), "monotone_in_level": ("level", "level2")}


@dataclass(frozen=True, eq=False)
class Ball:
    space: PMSpace
    center: Vector
    level: float
    scale: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_vector(self.center, self.space.dim))
        object.__setattr__(self, "level", float(check_number(self.level, "level", **LEVEL)))
        object.__setattr__(self, "scale", float(check_number(self.scale, "scale", **SCALE)))

    def to_config(self) -> dict[str, Any]:
        return {"center": self.center.tolist(), "level": self.level,
                "scale": self.scale}


def mu_of_offsets(ball: Ball, Y: np.ndarray) -> np.ndarray:
    """mu_{center - Y[i]}(scale) for a batch of candidate points."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    S = ball.space.sigma(ball.center[None, :] - Y)
    return ball.space.kernel(np.asarray(ball.scale, dtype=float), S)


def strict_mask(mu: Any, level: Any, margin: float = EPS_STRICT) -> Any:
    """The membership rule on mu values, mu > (1 - level) + EPS_STRICT; at the
    budget's epsilon as margin, the doubling chain's test (topology).  Every
    membership decision reads it: contains_many, the samplers, the
    precondition of smaller_scale_witnesses, the falsifier's boundary pairs
    and the topological convergence criterion."""
    return mu > (1.0 - level) + margin


def band_mask(mu: Any, level: Any, band: float) -> Any:
    """The undecided band on mu values: |mu - (1 - level)| <= band."""
    return np.abs(mu - (1.0 - level)) <= band


def contains_many(ball: Ball, Y: np.ndarray) -> np.ndarray:
    return strict_mask(mu_of_offsets(ball, Y), ball.level)


def contains(ball: Ball, y: Vector) -> bool:
    """Strict membership with the EPS_STRICT boundary guard."""
    y = as_vector(y, ball.space.dim)
    return bool(contains_many(ball, y[None, :])[0])


def boundary_band(ball: Ball, Y: np.ndarray, band: float) -> np.ndarray:
    """Mask of candidates within the undecidable band around the boundary."""
    return band_mask(mu_of_offsets(ball, Y), ball.level, band)


# ---------------------------------------------------------------------------
# Sampling.
# ---------------------------------------------------------------------------


def _lane_mu(space: PMSpace, centers: np.ndarray, scales: np.ndarray, steps: np.ndarray,
             Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Y, mu): the candidates Y[i] = centers[i] + steps[i] * Z[i] of each
    lane and mu_of_offsets of each against the ball (centers[i], scales[i]),
    in blocks of lanes of about LANE_BLOCK floats, so the temporaries stay
    cache-sized.  A block repeats its centers row by row, as a center
    broadcast over rows makes numpy loop over one row's dim coordinates."""
    step = max(1, LANE_BLOCK // Z[0].size)
    Y, m = np.empty(Z.shape), np.empty(Z.shape[:2])
    for i in range(0, len(Z), step):
        b = slice(i, i + step)
        off = np.repeat(centers[b, None, :], Z.shape[1], axis=1)
        y = np.multiply(steps[b, None, None], Z[b], out=Y[b])
        y += off
        off -= y
        S = space.sigma(off.reshape(-1, Z.shape[2])).reshape(off.shape[:2])
        m[b] = space.kernel(scales[b, None], S)
    return Y, m


def _probe_rows(count: int) -> int:
    """The rows of the calibration probe of a call asking count members:
    PROBE_ROWS_PER_MEMBER each, at most PROBE_ROWS (an even number, so the
    probe's median is the mean of its two _middle_rows)."""
    return min(PROBE_ROWS, PROBE_ROWS_PER_MEMBER * count)


def _middle_rows(rows: int) -> slice:
    """The two middle rows of a sorted probe of rows rows."""
    return slice(rows // 2 - 1, rows // 2 + 1)


def _proposal_scales(space: PMSpace, centers: np.ndarray, levels: np.ndarray,
                     scales: np.ndarray, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Per lane, the scale of the Gaussian proposal around the center that
    gives a usable acceptance rate.  Each lane gets a probe of rows rows
    (_probe_rows of a member call's count), drawn for all lanes at once, and
    is seeded from the closed-form radius over its probe's median sigma when
    oracle_threshold has one, and at 1 otherwise; then each lane doubles or
    halves its scale until the share of strict members (_lane_mu,
    strict_mask) in its probe lies in [0.2, 0.8], for at most 80 rounds,
    stopping on its own.  A round where no lane moves ends it.

    A lane's next scale reads only its current one (its probe, center,
    scale and cut are fixed), so a lane whose new scale has the bits of its
    scale two rounds back alternates between the two until round 80: it
    leaves the live lanes with the one of the two that round 80 ends on."""
    n, dim = centers.shape
    probes = rng.standard_normal((n, rows, dim))
    try:
        thr = oracle_threshold(space, levels, scales)
    except ValueError:  # no closed form: every lane starts at 1
        s = np.ones(n)
    else:
        # Each lane's median sigma as np.median computes it (the mean of the two
        # middle values), without its per-call overhead; np.sort took under
        # np.partition's time on 1-32 lanes of PROBE_ROWS rows.
        step = max(1, LANE_BLOCK // (rows * dim))
        mid = np.concatenate([
            np.sort(space.sigma(probes[i:i + step].reshape(-1, dim)).reshape(-1, rows),
                    axis=1)[:, _middle_rows(rows)] for i in range(0, n, step)])
        med = (mid[:, 0] + mid[:, 1]) / 2.0
        # thr / med where the median is positive, 1 elsewhere, with no divide by 0.
        s = np.maximum(np.divide(thr, med, out=np.ones(n), where=med > 0), 1e-12)
    # The lanes still searching, their arguments and scales, compacted as lanes
    # stop, and each one's scale two rounds back (NaN, equal to none, in round 1).
    live, c, lv, t, sl, back = np.arange(n), centers, levels[:, None], scales, s.copy(), np.nan
    for rounds_left in range(79, -1, -1):
        inside = strict_mask(_lane_mu(space, c, t, sl, probes)[1], lv)
        acc = inside.sum(axis=1) / rows
        up, down = acc > 0.8, acc < 0.2
        if not (moving := up | down).any():
            break
        new = np.where(up, sl * 2.0, np.where(down, sl * 0.5, sl))
        cycled = new == back
        # An odd number of rounds left ends a cycling lane on its current scale.
        new = np.where(cycled & (rounds_left % 2 == 1), sl, new)
        going = moving & ~cycled
        s[live] = new
        if not going.all():
            if not going.any():
                break
            live, c, lv, t, probes, sl, new = (a[going] for a in (live, c, lv, t, probes, sl, new))
        back, sl = sl, new
    return s


def sample_member_lanes(space: PMSpace, centers: np.ndarray, levels: np.ndarray,
                        scales: np.ndarray, rng: np.random.Generator, count: int,
                        band: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample count members of each of a batch of balls, re-drawing
    boundary-band hits.  The one rejection sampler: sample_members settles a
    one-ball call that its first round settles on its own, with the bits of
    this one, and runs every other one-ball call here.

    Lane i is the ball (centers[i], levels[i], scales[i]).  After the
    calibration (_proposal_scales), each of at most MAX_DRAW_ROUNDS rounds
    draws one candidate batch for every lane still short of count, as one
    standard normal array in lane order, keeps the strict members outside
    the band, and halves the scale of each lane still short whose
    acceptance fell below MIN_ACCEPTANCE.  The draws depend only on which
    lanes are still live, so the same inputs and stream give the same bits,
    with no rewind.
    Returns (rows, ok):
    rows[i] holds lane i's count members when ok[i]; a lane still short after
    MAX_DRAW_ROUNDS rounds has starved, with ok[i] False and rows[i] NaN.
    """
    centers = np.asarray(centers, dtype=float)
    levels, scales = np.asarray(levels, dtype=float), np.asarray(scales, dtype=float)
    n, dim = centers.shape
    batch = max(4 * count, 64)
    s = _proposal_scales(space, centers, levels, scales, rng, _probe_rows(count))
    rows = np.empty((n, count, dim))
    ok = np.ones(n, dtype=bool)
    # The arguments of the lanes still short, compacted as lanes fill up.
    live, c, lv, t, got = np.arange(n), centers, levels[:, None], scales, np.zeros(n, int)
    for _ in range(MAX_DRAW_ROUNDS):
        Y, m = _lane_mu(space, c, t, s, rng.standard_normal((live.size, batch, dim)))
        keep = strict_mask(m, lv) & ~band_mask(m, lv, band)
        kept = keep.sum(axis=1)
        # Each kept row's place in its lane's output, counted from 1.
        place = keep.cumsum(axis=1) + got[:, None]
        lane, j = np.nonzero(keep & (place <= count))
        rows[live[lane], place[lane, j] - 1] = Y[lane, j]
        got = got + kept
        short = got < count
        if not short.any():
            break
        s = np.where(short & (kept / batch < MIN_ACCEPTANCE), s * 0.5, s)
        if not short.all():
            live, c, lv, t, got, s = (a[short] for a in (live, c, lv, t, got, s))
    else:
        ok[live] = False
        rows[live] = np.nan
    return rows, ok


def _first_round_members(ball: Ball, rng: np.random.Generator, count: int, band: float,
                         probe: int, batch: int) -> np.ndarray | None:
    """Round 1 of sample_member_lanes for one ball whose calibration probe of
    probe = _probe_rows(count) rows and first batch of batch rows fit in one
    LANE_BLOCK, its bookkeeping in Python floats: the probe drawn, the seed
    scale (_proposal_scales' for one lane), the batch drawn after the probe
    in one array (that call's draws, in its order, so an error in sigma
    leaves its generator state), one pass over probe and batch at the seed,
    and the strict members of the batch outside the band.  Returns the first
    count of them when the probe's acceptance lies in [0.2, 0.8] (the
    calibration moves nothing) and the batch holds count of them, else None,
    with the generator past both draws."""
    space, center, level, scale = ball.space, ball.center, ball.level, ball.scale
    Z = np.empty((probe + batch, space.dim))
    rng.standard_normal(out=Z[:probe])
    try:
        thr = oracle_threshold(space, level, scale)
    except ValueError:  # no closed form: the scale starts at 1
        s = 1.0
    else:
        lo, hi = np.sort(space.sigma(Z[:probe]))[_middle_rows(probe)].tolist()
        med = (lo + hi) / 2.0
        # thr / med where the median is positive (not 0, not NaN), 1 elsewhere.
        s = max(thr / med, 1e-12) if med > 0 else 1.0
    rng.standard_normal(out=Z[probe:])
    # The center repeated row by row, as in _lane_mu.
    off = np.repeat(center[None, :], len(Z), axis=0)
    Y = np.multiply(s, Z, out=Z)
    Y += off
    off -= Y
    m = space.kernel(scale, space.sigma(off))
    inside = strict_mask(m, level)
    if not 0.2 <= np.count_nonzero(inside[:probe]) / probe <= 0.8:
        return None
    rows = Y[probe:][inside[probe:] & ~band_mask(m[probe:], level, band)][:count]
    return rows if len(rows) == count else None


def sample_members(ball: Ball, rng: np.random.Generator, count: int,
                   band: float = 0.0) -> np.ndarray:
    """Rejection-sample count members of the ball, re-drawing boundary-band
    hits, with the rows and stream of sample_member_lanes' one-lane call.
    Where the calibration probe (_probe_rows(count) rows) and first batch
    fit in one LANE_BLOCK (so one pass over both keeps to _lane_mu's block
    size), _first_round_members runs round 1 and returns its members when
    that round settles the call.  Every other call runs sample_member_lanes,
    from the generator state the call entered with, so rounds 2 and later
    have one implementation.  The exit settles every one-ball call of the
    benchmark's witness_batch workload and most of registry_valid's."""
    probe, batch = _probe_rows(count), max(4 * count, 64)
    if (probe + batch) * ball.space.dim <= LANE_BLOCK:
        state = rng.bit_generator.state
        rows = _first_round_members(ball, rng, count, band, probe, batch)
        if rows is not None:
            return rows
        rng.bit_generator.state = state
    rows, ok = sample_member_lanes(ball.space, ball.center[None, :], [ball.level],
                                   [ball.scale], rng, count, band)
    if not ok[0]:
        raise VerificationError(
            f"member sampler starved for ball level={ball.level} scale={ball.scale}")
    return rows[0]


def sample_around(ball: Ball, rng: np.random.Generator, count: int,
                  band: float = 0.0) -> np.ndarray:
    """Sample a mixed in/out cloud around the ball for boolean comparisons,
    at twice the calibrated scale of a PROBE_ROWS probe (the cloud asks for
    points, not members).  A cloud still short of count after
    MAX_DRAW_ROUNDS rounds has starved: VerificationError."""
    s = 2.0 * float(_proposal_scales(ball.space, ball.center[None, :], np.asarray([ball.level]),
                                     np.asarray([ball.scale]), rng, PROBE_ROWS)[0])
    out: list[np.ndarray] = []
    got, batch = 0, max(2 * count, 64)
    for _ in range(MAX_DRAW_ROUNDS):
        Y = ball.center[None, :] + s * rng.standard_normal((batch, ball.space.dim))
        kept = Y[~boundary_band(ball, Y, band)]
        out.append(kept)
        got += kept.shape[0]
        if got >= count:
            return np.concatenate(out, axis=0)[:count]
    raise VerificationError("cloud sampler starved")


# ---------------------------------------------------------------------------
# Scale witness: membership persists at some strictly smaller scale.
# ---------------------------------------------------------------------------


def smaller_scale_witnesses(space: PMSpace, sigma: np.ndarray, scale: np.ndarray,
                            level: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
    """Smaller-scale witnesses for a batch of lanes, one bisection for all.

    Lane i is a ball with the given scale and level and a member whose
    offset from the center has modular value sigma[i] (1-D arrays,
    broadcast together).  Each lane bisects the monotone predicate
    kernel(s, sigma) > 1 - level over (0, scale] and stops on its own at
    float granularity, within WITNESS_BISECTION_STEPS steps.  Its witness
    is the midpoint of the maximal feasible subinterval, away from both
    boundaries.

    Returns (t_star, reasons): reasons[i] is None when t_star[i] is a
    witness in (0, scale[i]), else the diagnostic, with t_star[i] NaN.  No
    interior feasible scale down to scale * 2**-60 is a left-continuity
    violation at the scale.  Raises PreconditionError when a lane is not a
    ball member.
    """
    sigma, scale, level = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (sigma, scale, level)))
    if not strict_mask(space.kernel(scale, sigma), level).all():
        raise PreconditionError("witness requires a ball member")
    cut = 1.0 - level
    _, hi = bisect_lanes(lambda mid: space.kernel(mid, sigma) > cut, 0.0, scale,
                         WITNESS_BISECTION_STEPS)
    t_star = 0.5 * (hi + scale)
    held = space.kernel(t_star, sigma) > cut
    reasons: list[str | None] = []
    for i in range(len(scale)):
        if hi[i] >= scale[i]:  # no interior feasible scale was ever probed
            reasons.append(
                "no scale in (0, t) keeps membership at resolution t*2^-60: "
                f"mu jumps at t={float(scale[i])} (left-continuity violation), "
                f"sigma={float(sigma[i])}")
        elif not held[i]:  # monotone predicate makes this unreachable
            reasons.append(f"witness midpoint {float(t_star[i])} infeasible")
        else:
            reasons.append(None)
    t_star[[r is not None for r in reasons]] = np.nan
    return t_star, reasons


# ---------------------------------------------------------------------------
# Ball algebra, checked by sampling.  Each check's notes name the level and
# scale of every ball it tests (scaling_identity's t is its scale).
# ---------------------------------------------------------------------------


def translate_identity(space: PMSpace, x: Vector, level: float, scale: float,
                       budget: SampleBudget) -> CheckReport:
    """B(x, alpha, t) equals x + B(0, alpha, t), point by sampled point."""
    x = as_vector(x, space.dim)
    ball_x = Ball(space, x, level, scale)
    ball_0 = Ball(space, space.zero(), level, scale)
    rng = check_rng(budget.rng_seed, "translate_identity")
    Y = sample_around(ball_x, rng, budget.n_vectors, band=budget.epsilon)
    lhs = contains_many(ball_x, Y)
    rhs = contains_many(ball_0, Y - x[None, :])
    notes = {"members": int(np.sum(lhs)), "level": ball_x.level, "scale": ball_x.scale}
    return point_report("translate_identity", lhs == rhs,
                        {"y": Y, "in_translated": lhs, "in_centered": rhs}, budget.rng_seed, notes)


def scaling_identity(space: PMSpace, exponent: float, level: float, scale: float,
                     budget: SampleBudget) -> CheckReport:
    """B(0, alpha, t^beta) equals t * B(0, alpha, 1) for a beta-homogeneous
    modular; fails with a precondition note when homogeneity does not hold."""
    pre = check_beta_homogeneous(space, exponent, replace(budget, n_vectors=200,
                                                          n_scalar_pairs=200))
    if not pre.passed:
        return replace(pre, name="scaling_identity", violations=pre.violations[:5],
                       notes={"precondition_failed": "beta_homogeneous", "beta": exponent})

    ball_pow = Ball(space, space.zero(), level, scale ** exponent)
    ball_unit = Ball(space, space.zero(), level, 1.0)
    rng = check_rng(budget.rng_seed, "scaling_identity")
    Y = sample_around(ball_pow, rng, budget.n_vectors, band=budget.epsilon)
    Y = Y[~boundary_band(ball_unit, Y / scale, budget.epsilon)]
    lhs = contains_many(ball_pow, Y)
    rhs = contains_many(ball_unit, Y / scale)
    return point_report("scaling_identity", lhs == rhs,
                        {"y": Y, "in_scaled": lhs, "in_unit": rhs}, budget.rng_seed,
                        notes={"beta": exponent, "level": ball_unit.level, "t": scale})


def point_report(name: str, held: np.ndarray, points: dict[str, np.ndarray], seed: int,
                 notes: dict[str, Any] | None = None) -> CheckReport:
    """Report of a sampled check over len(held) points: each point i where
    held[i] is false is recorded as {key: points[key][i]} for every key.  The
    one evidence-record builder: the ball identities, the balanced and convex
    probes, containment_report and the witnesses' evidence use it."""
    return _make_report(name, np.flatnonzero(~held), len(held), seed, notes=notes,
                        record=lambda i: {k: v[i].tolist() for k, v in points.items()})


def containment_report(name: str, inner: Ball, outers: Sequence[Ball], budget: SampleBudget,
                       samples: int, notes: dict[str, Any] | None = None) -> CheckReport:
    """The one sampled subset check, that inner lies in every ball of outers
    (the monotonicity checks, refinement, the local base and basis
    intersection use it): samples members of inner from check_rng(seed,
    name), outside the epsilon band, and records {"y": ...} for each one
    that escapes some outer ball."""
    rng = check_rng(budget.rng_seed, name)
    Y = sample_members(inner, rng, samples, band=budget.epsilon)
    inside = np.logical_and.reduce([contains_many(outer, Y) for outer in outers])
    return point_report(name, inside, {"y": Y}, budget.rng_seed, notes)


def check_order(name: str, values: dict[str, Any], defaults: Collection[str] = ()) -> None:
    """values[low] <= values[high] for name's ORDERED fields, else a FieldError naming
    high, or low where high is in defaults (at name's default), and a default bound."""
    low, high = ORDERED[name]
    field, other, bound = (low, high, "at_most") if high in defaults else (high, low, "at_least")
    try:
        check_number(values[field], field, **{bound: values[other]})
    except FieldError as exc:
        whose = f" ({other} {values[other]} is the default of {name})" if other in defaults else ""
        raise FieldError(f"{exc}{whose}") from None


def monotone_in_scale(space: PMSpace, level: float, scale: float, scale2: float,
                      budget: SampleBudget) -> CheckReport:
    """Sampled subset check B(0, alpha, t) within B(0, alpha, t2), t <= t2."""
    check_order("monotone_in_scale", {"scale": scale, "scale2": scale2})
    inner, outer = (Ball(space, space.zero(), level, t) for t in (scale, scale2))
    return containment_report("monotone_in_scale", inner, [outer], budget, budget.n_vectors,
                              {"level": inner.level, "scale": inner.scale, "scale2": outer.scale})


def monotone_in_level(space: PMSpace, level: float, level2: float, scale: float,
                      budget: SampleBudget) -> CheckReport:
    """Sampled subset check B(0, a, t) within B(0, a2, t), a <= a2."""
    check_order("monotone_in_level", {"level": level, "level2": level2})
    inner, outer = (Ball(space, space.zero(), a, scale) for a in (level, level2))
    return containment_report("monotone_in_level", inner, [outer], budget, budget.n_vectors,
                              {"level": inner.level, "level2": outer.level, "scale": inner.scale})


def _require_centered(ball: Ball, subject: str = "check applies to balls") -> None:
    if np.any(ball.center != 0.0):
        raise PreconditionError(f"{subject} centered at the origin")


def is_balanced_sampled(ball: Ball, budget: SampleBudget) -> CheckReport:
    """lambda * B subset of B for |lambda| <= 1, probed on sampled members."""
    _require_centered(ball)
    rng = check_rng(budget.rng_seed, "balanced")
    Y = sample_members(ball, rng, budget.n_vectors, band=budget.epsilon)
    lam = rng.uniform(-1.0, 1.0, len(Y))
    lam[: min(3, len(lam))] = [0.0, 1.0, -1.0][: min(3, len(lam))]
    inside = contains_many(ball, lam[:, None] * Y)
    return point_report("balanced", inside, {"y": Y, "lambda": lam}, budget.rng_seed,
                        {"level": ball.level, "scale": ball.scale})


def is_convex_sampled(ball: Ball, budget: SampleBudget) -> CheckReport:
    """Chords between sampled members stay inside the ball."""
    _require_centered(ball)
    rng = check_rng(budget.rng_seed, "convex")
    n = budget.n_vectors
    A = sample_members(ball, rng, n, band=budget.epsilon)
    B = sample_members(ball, rng, n, band=budget.epsilon)
    B[: min(2, n)] = A[: min(2, n)]  # degenerate chords x = y
    lam = rng.uniform(0.0, 1.0, len(A))
    mids = lam[:, None] * A + (1.0 - lam)[:, None] * B
    return point_report("convex", contains_many(ball, mids), {"x": A, "y": B, "lambda": lam},
                        budget.rng_seed, {"level": ball.level, "scale": ball.scale})
