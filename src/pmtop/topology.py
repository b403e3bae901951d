"""Executable witnesses for the ball topology of a probabilistic modular.

Each operation here turns an existential statement about the induced
topology into a concrete parameter choice plus sampled evidence:

refine_ball                    an inner ball around an interior point of a
                               given ball, certified through the doubling
                               chain mu_{u+v}(s+t) >= mu_{2u}(s) ^ mu_{2v}(t)
                               followed by the doubling constant c.
local_base_containment         the index n for which B(x, 1/n, 1/n) fits
                               inside a given ball around x.
separation_witness             disjoint balls around two distinct points
                               (doubling-constant route).
homogeneous_separation_witness disjoint balls around 0 and a nonzero point
                               (homogeneity route; needs mu_x to take a
                               value strictly between 0 and 1 on the grid).
addition_continuity_witness    ball pair whose pointwise sums land in a
                               target ball.
scalar_continuity_witness      ball and scalar window whose products land
                               in a target ball.
basis_intersection_witness     a ball inside the intersection of two balls
                               through a common point, via refine_ball on
                               both and the minimum of levels and scales.

Free parameters are always the midpoints of their feasible intervals, so
witnesses are deterministic and stay clear of the boundary.  Constructors
raise InfeasibleConstruction (with the failing inequality) when no
feasible parameters exist, and attach a sampled-evidence CheckReport
otherwise; the evidence can fail without raising, which is exactly what
happens when a declared constant is wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distfn import CheckReport, FieldRecord, SampleBudget, check_number, check_rng
from .balls import (Ball, _require_centered, contains_many,
                    containment_report, point_report, sample_members, strict_mask)
from .pmspace import (
    InfeasibleConstruction,
    PMSpace,
    PreconditionError,
    Vector,
    VerificationError,
    as_vector,
)

# Sample count backing each containment / disjointness claim.
WITNESS_SAMPLES = 200

# Guard for the scalar-window division when the scalar sits at 0.
SCALAR_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class Witness(FieldRecord):
    """A witness records its fields and holds when its sampled evidence does."""

    evidence: CheckReport

    @property
    def passed(self) -> bool:
        return self.evidence.passed


@dataclass(frozen=True, eq=False)
class RefinementWitness(Witness):
    inner: Ball
    split: float          # the scale split point t* in (0, t)
    mu_at_split: float    # mu_{x-z}(t*/c), certified above 1 - level
    slack: float          # level s with  mu_at_split ^ member_level > 1-s > 1-alpha
    member_level: float   # the inner ball's membership level parameter


@dataclass(frozen=True, eq=False)
class SeparationWitness(Witness):
    ball_a: Ball
    ball_b: Ball
    sep_scale: float      # the scale t0 at which the points separate
    chosen_level: float   # level parameter picked from its feasible interval
    variant: str          # "doubling" or "homogeneous"

    def __post_init__(self) -> None:
        if self.ball_a.level != self.ball_b.level or self.ball_a.scale != self.ball_b.scale:
            raise ValueError("separation balls must share level and scale")


@dataclass(frozen=True, eq=False)
class AdditionContinuityWitness(Witness):
    ball_a: Ball
    ball_b: Ball


@dataclass(frozen=True, eq=False)
class ScalarContinuityWitness(Witness):
    ball: Ball
    scalar_center: float
    scalar_window: float


@dataclass(frozen=True, eq=False)
class IntersectionWitness(Witness):
    ball: Ball
    left: RefinementWitness
    right: RefinementWitness


def _require_c(space: PMSpace) -> float:
    if space.declared_c is None:
        raise PreconditionError("operation needs a declared doubling constant")
    return space.declared_c


def _require_beta(space: PMSpace) -> float:
    if space.declared_beta is None:
        raise PreconditionError("operation needs a declared homogeneity exponent")
    return space.declared_beta


def _anchor_of(space: PMSpace, outer: Ball, S: np.ndarray) -> np.ndarray:
    """chain_anchor of the rows z whose offsets x - z have sigma S."""
    return space.kernel(np.asarray(outer.scale / _require_c(space)), S)


def chain_anchor(space: PMSpace, outer: Ball, Z: np.ndarray) -> np.ndarray:
    """mu_(x-z)(t/c) for each row z of Z and outer = B(x, alpha, t): the doubling
    chain certifies an inner ball around z only where this clears 1 - alpha."""
    return _anchor_of(space, outer, space.sigma(outer.center - Z))


def chain_feasible(space: PMSpace, outer: Ball, Z: np.ndarray, eps: float) -> np.ndarray:
    """Which rows z of Z refine_ball takes inside outer = B(x, alpha, t) at a
    budget's epsilon eps: strict members whose chain_anchor clears 1 - alpha by
    eps, both read from one sigma of the offsets x - z."""
    S = space.sigma(outer.center - Z)
    member = strict_mask(space.kernel(np.asarray(outer.scale), S), outer.level)
    return member & strict_mask(_anchor_of(space, outer, S), outer.level, eps)


def _evidence_samples(samples: int) -> None:
    """Each constructor's first step: no witness certifies on no evidence."""
    check_number(samples, "samples", integer=True, at_least=1)


def _parameter(name: str, compute: Callable[[], float]) -> float:
    """compute(), a witness parameter; InfeasibleConstruction naming it when
    it overflows or is not a positive finite float."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise InfeasibleConstruction(f"witness parameter {name} = {value} is not positive finite")
    return value


# Scalar: as a batch of one on the array kernel, distfn.bisect_lanes took
# refine_ball 0.31 -> 1.45 ms (2-core Xeon, Python 3.11.7, numpy 2.4.6).
def _bisect_infimum(predicate, hi: float) -> float:
    """Infimum of a monotone-true-region (lo, hi] located by at most 60
    bisection steps; the predicate must hold at hi.  Returns hi unchanged
    when no interior point tests true down to float granularity."""
    lo, h = 0.0, hi
    for _ in range(60):
        mid = 0.5 * (lo + h)
        if mid <= lo or mid >= h:
            break
        if predicate(mid):
            h = mid
        else:
            lo = mid
    return h


def refine_ball(space: PMSpace, outer: Ball, z: Vector, budget: SampleBudget,
                samples: int = WITNESS_SAMPLES) -> RefinementWitness:
    """Inner ball around z inside outer, certified by the doubling chain.

    Needs a scale split t* in (0, t) with mu_{x-z}(t*/c) > 1 - alpha; the
    chain then bounds mu_{x-y}(t) below by
    mu_{x-z}(t*/c) ^ mu_{z-y}((t-t*)/c) for every member y of the inner
    ball B(z, alpha/2, (t-t*)/c).  z must pass chain_feasible's test at the
    budget's epsilon, strictly stronger than membership whenever c > 1, so
    interior points close to the boundary are reported as infeasible.
    """
    _evidence_samples(samples)
    c = _require_c(space)
    z = as_vector(z, space.dim)
    alpha, t = outer.level, outer.scale
    sig = space.sigma1(outer.center - z)
    kernel1 = space.modular_map.kernel1
    if not strict_mask(kernel1(t, sig), alpha):   # contains(outer, z), on this sigma
        raise PreconditionError("refinement point must lie inside the outer ball")
    cut = 1.0 - alpha

    def mu(tau: float) -> float:   # mu_(x-z)(tau/c), the chain's bound at split tau
        return kernel1(tau / c, sig)

    anchor = mu(t)
    if not strict_mask(anchor, alpha, budget.epsilon):
        raise InfeasibleConstruction(
            f"mu_(x-z)(t/c) = {anchor} fails to clear 1 - alpha = {cut}: "
            "the doubling chain cannot certify any inner ball here "
            "(doubling constant too small or point too close to the boundary)")

    tau_lo = _bisect_infimum(lambda tau: mu(tau) > cut, t)
    if tau_lo >= t:
        raise InfeasibleConstruction(
            "no interior scale split satisfies the doubling-chain bound "
            f"down to float granularity (outer scale {t})")
    split = 0.5 * (tau_lo + t)
    mu_split = mu(split)
    member_level = 1.0 - alpha / 2.0           # midpoint of (1 - alpha, 1)
    m = min(mu_split, member_level)
    slack = 0.5 * ((1.0 - m) + alpha)          # midpoint of (1 - m, alpha)
    if not (m > 1.0 - slack > 1.0 - alpha):
        raise InfeasibleConstruction(
            f"slack selection failed: min({mu_split}, {member_level}) "
            f"vs 1 - {slack} vs 1 - {alpha}")

    inner = Ball(space, z, 1.0 - member_level, (t - split) / c)
    evidence = containment_report("refine_ball", inner, [outer], budget, samples)
    return RefinementWitness(inner=inner, split=split, mu_at_split=mu_split,
                             slack=slack, member_level=member_level,
                             evidence=evidence)


def local_base_containment(space: PMSpace, x: Vector, outer: Ball,
                           budget: SampleBudget,
                           samples: int = WITNESS_SAMPLES) -> int:
    """Least n with 1/n < min(scale, level); B(x, 1/n, 1/n) then sits in
    the outer ball, which is verified on samples."""
    _evidence_samples(samples)
    x = as_vector(x, space.dim)
    if np.any(outer.center != x):
        raise PreconditionError("outer ball must be centered at x")
    m = min(outer.level, outer.scale)
    n = int(np.floor(1.0 / m)) + 1
    while n > 2 and 1.0 / (n - 1) < m:
        n -= 1
    small = Ball(space, x, 1.0 / n, 1.0 / n)
    evidence = containment_report("local_base", small, [outer], budget, samples)
    if not evidence.passed:
        raise VerificationError(
            f"B(x, 1/{n}, 1/{n}) leaked out of the outer ball on "
            f"{evidence.n_violations} samples")
    return n


def _pick_separation_scale(space: PMSpace, sig: float, budget: SampleBudget,
                           need_above: float | None = None) -> tuple[float, float]:
    """Grid scale whose mu value is closest to 1/2 among the admissible
    ones (mu < 1 - eps, optionally mu > eps); ties resolve to the larger
    scale.  Extends two decades below the grid before giving up."""
    eps = budget.epsilon
    grid = budget.grid_array()
    # The extension below the grid is built only when no grid scale is admissible.
    for candidate_grid in (grid, None):
        if candidate_grid is None:
            candidate_grid = np.geomspace(grid[0] / 100.0, grid[0], 9, endpoint=False)
        vals = np.asarray(space.kernel(candidate_grid, sig), dtype=float)
        ok = vals < 1.0 - eps
        if need_above is not None:
            ok &= vals > need_above
        if np.any(ok):
            ts, vs = candidate_grid[ok], vals[ok]
            dist = np.abs(vs - 0.5)
            best = len(dist) - 1 - int(np.argmin(dist[::-1]))
            return float(ts[best]), float(vs[best])
    if need_above is not None:
        raise InfeasibleConstruction(
            "no grid scale with 0 < mu_x(t) < 1: the distribution jumps "
            "straight from 0 to 1 (regularity precondition unmet)")
    raise InfeasibleConstruction(
        "mu_(x-y) >= 1 - eps on the whole grid and two decades below it: "
        "x - y behaves like 0 (value-separation axiom violated)")


def _disjointness_evidence(name: str, ball_a: Ball, ball_b: Ball,
                           budget: SampleBudget, samples: int) -> CheckReport:
    rng = check_rng(budget.rng_seed, name)
    half = max(samples // 2, 1)
    Ya = sample_members(ball_a, rng, half, band=budget.epsilon)
    Yb = sample_members(ball_b, rng, half, band=budget.epsilon)
    apart = ~np.concatenate([contains_many(ball_b, Ya), contains_many(ball_a, Yb)])
    return point_report(name, apart, {"y": np.vstack([Ya, Yb]),
                                      "sampled_from": np.repeat(["a", "b"], half)},
                        budget.rng_seed)


def separation_witness(space: PMSpace, x: Vector, y: Vector,
                       budget: SampleBudget,
                       samples: int = WITNESS_SAMPLES) -> SeparationWitness:
    """Disjoint balls around distinct x and y via the doubling constant.

    Picks the grid scale t0 whose value mu_{x-y}(t0) sits closest to 1/2,
    takes the level parameter as the midpoint of (mu_{x-y}(t0), 1) and
    returns the two balls at scale t0 / 2 / c: t0 / (2c) where 2c does not overflow.
    """
    _evidence_samples(samples)
    c = _require_c(space)
    x = as_vector(x, space.dim)
    y = as_vector(y, space.dim)
    if np.array_equal(x, y):
        raise PreconditionError("separation needs two distinct points")
    sig = space.sigma1(x - y)
    t0, mu0 = _pick_separation_scale(space, sig, budget)
    chosen = 0.5 * (mu0 + 1.0)
    level = 1.0 - chosen
    scale = _parameter("scale", lambda: t0 / 2.0 / c)
    ball_a = Ball(space, x, level, scale)
    ball_b = Ball(space, y, level, scale)
    evidence = _disjointness_evidence("separation", ball_a, ball_b, budget, samples)
    return SeparationWitness(ball_a=ball_a, ball_b=ball_b, sep_scale=t0,
                             chosen_level=chosen, variant="doubling",
                             evidence=evidence)


def homogeneous_separation_witness(space: PMSpace, x: Vector,
                                   budget: SampleBudget,
                                   samples: int = WITNESS_SAMPLES,
                                   ) -> SeparationWitness:
    """Disjoint balls around 0 and a nonzero x via beta-homogeneity.

    Needs a grid scale where mu_x lies strictly between 0 and 1; the
    level is the midpoint of (0, 1 - mu_x(t0)) and both balls live at
    scale t0 / 2^(beta+1).
    """
    _evidence_samples(samples)
    beta = _require_beta(space)
    x = as_vector(x, space.dim)
    if not np.any(x != 0.0):
        raise PreconditionError("separation from the origin needs a nonzero point")
    sig = space.sigma1(x)
    t0, mu0 = _pick_separation_scale(space, sig, budget,
                                     need_above=budget.epsilon)
    level = 0.5 * (1.0 - mu0)
    scale = _parameter("scale", lambda: t0 / (2.0 ** (beta + 1.0)))
    ball_a = Ball(space, space.zero(), level, scale)
    ball_b = Ball(space, x, level, scale)
    evidence = _disjointness_evidence("homogeneous_separation", ball_a, ball_b,
                                      budget, samples)
    return SeparationWitness(ball_a=ball_a, ball_b=ball_b, sep_scale=t0,
                             chosen_level=level, variant="homogeneous",
                             evidence=evidence)


def addition_continuity_witness(space: PMSpace, target: Ball,
                                budget: SampleBudget,
                                samples: int = WITNESS_SAMPLES,
                                ) -> AdditionContinuityWitness:
    """Ball pair with B1 + B2 inside the target ball at the origin.

    Takes both balls as B(0, alpha/2, t / 2^(beta+2)): levels strictly
    below alpha and scales strictly below the t / 2^(beta+1) bound that
    the homogeneity estimate for sums requires.
    """
    _evidence_samples(samples)
    beta = _require_beta(space)
    _require_centered(target, "target ball must be")
    b = Ball(space, space.zero(), target.level / 2.0,
             _parameter("scale", lambda: target.scale / (2.0 ** (beta + 2.0))))
    rng = check_rng(budget.rng_seed, "addition_continuity")
    X = sample_members(b, rng, samples, band=budget.epsilon)
    Y = sample_members(b, rng, samples, band=budget.epsilon)
    X[0] = 0.0
    Y[0] = 0.0
    evidence = point_report("addition_continuity", contains_many(target, X + Y),
                            {"x": X, "y": Y}, budget.rng_seed)
    return AdditionContinuityWitness(ball_a=b, ball_b=b, evidence=evidence)


def scalar_continuity_witness(space: PMSpace, target: Ball, scalar: float,
                              budget: SampleBudget,
                              samples: int = WITNESS_SAMPLES,
                              ) -> ScalarContinuityWitness:
    """Ball and scalar window mapping into the target under multiplication.

    With m = max(|scalar|, SCALAR_FLOOR), the ball scale is
    t / (4 m^beta), strictly below the t / (2 m^beta) bound, and the
    window radius is (t / (2 t1))^(1/beta).  Tiny |scalar| only loosens
    the required bound, so the floor never invalidates the witness.
    """
    _evidence_samples(samples)
    beta = _require_beta(space)
    _require_centered(target, "target ball must be")
    m = max(abs(scalar), SCALAR_FLOOR)
    t1 = _parameter("scale", lambda: target.scale / (4.0 * m ** beta))
    window = _parameter("scalar window", lambda: (target.scale / (2.0 * t1)) ** (1.0 / beta))
    b1 = Ball(space, space.zero(), target.level / 2.0, t1)
    rng = check_rng(budget.rng_seed, "scalar_continuity")
    X = sample_members(b1, rng, samples, band=budget.epsilon)
    u = rng.uniform(-1.0, 1.0, len(X))
    u[0] = 0.0  # the unperturbed scalar itself
    xi = scalar + window * u * (1.0 - 1e-9)
    evidence = point_report("scalar_continuity", contains_many(target, xi[:, None] * X),
                            {"x": X, "xi": xi}, budget.rng_seed)
    return ScalarContinuityWitness(ball=b1, scalar_center=scalar,
                                   scalar_window=window, evidence=evidence)


def basis_intersection_witness(space: PMSpace, ball_a: Ball, ball_b: Ball,
                               y: Vector, budget: SampleBudget,
                               samples: int = WITNESS_SAMPLES,
                               ) -> IntersectionWitness:
    """A ball around a common point inside the intersection of two balls.

    Refines both balls around y, then takes the minimum of the two inner
    levels and scales; monotonicity in level and scale puts the combined
    ball inside both refinements.
    """
    _evidence_samples(samples)
    y = as_vector(y, space.dim)
    left = refine_ball(space, ball_a, y, budget, samples=samples)
    right = refine_ball(space, ball_b, y, budget, samples=samples)
    combined = Ball(space, y,
                    min(left.inner.level, right.inner.level),
                    min(left.inner.scale, right.inner.scale))
    evidence = containment_report("basis_intersection", combined, [ball_a, ball_b],
                                  budget, samples)
    return IntersectionWitness(ball=combined, left=left, right=right,
                               evidence=evidence)
