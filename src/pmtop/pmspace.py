"""Probabilistic modular spaces over R^n and their sampled verification.

A probabilistic modular assigns every vector x a distribution function
mu_x subject to four axioms:

    PM1  mu_x(0) = 0
    PM2  mu_x(t) = 1 for all t > 0  iff  x = 0
    PM3  mu_{-x} = mu_x
    PM4  mu_{a x + b y}(s + t) >= mu_x(s) ^ mu_y(t)
         for all s, t >= 0 and convex weights a, b >= 0, a + b = 1

Two reference families are provided, both driven by a classical modular
rho (a nonnegative, even, convexly subadditive functional vanishing only
at 0):

    rational_from(rho)   mu_x(t) = t / (t + rho(x))  for t > 0, else 0
    step_from(rho)       mu_x(t) = 1_{t > rho(x)}    for t > 0, else 0

For both families every modular value reduces to a scalar kernel
kappa(t, sigma) evaluated at sigma = rho(x).  The kernel is the only
definition of mu_x: PMSpace.kernel and mu_matrix evaluate it, and the
vectorized checkers and closed-form membership oracles below use them.

Naming note: the convexity weights of PM4 are called a, b here; the
symbol alpha is reserved for ball levels and beta for the homogeneity
exponent, so the three never collide in code.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from .distfn import (
    LIMIT_EXTENSION_DECADES,
    MAX_STORED_VIOLATIONS,
    CheckReport,
    FieldError,
    SampleBudget,
    _make_report,
    _regularity_grid,
    _regularity_scan,
    check_number,
    check_numbers,
    check_rng,
)

MAX_DIM = 8

# Bounds on a homogeneity exponent beta, as check_number takes them.
EXPONENT = {"above": 0, "at_most": 1}

# Candidate grid for doubling-constant estimation: quarter powers of two,
# bracketing both reference families (2 for degree-1, 4 for degree-2).
DELTA2_CANDIDATES = tuple(float(2 ** (k / 4)) for k in range(17))

# Sampled points of check_space_regularity.  On the valid and mutated
# instances of seeds 0-39 (320 spaces), 200 points gave the verdict 64
# give on every one, at 2.4 times the cost.
REGULARITY_POINTS = 64

# Samples per block of the full-grid checks (pm2 and pm3 of check_axioms,
# the doubling inequality and homogeneity): each block is one grid-major
# (grid, samples) matrix that lives for that block only, so memory does not
# grow with the samples times the grid, and the doubling search rules a
# candidate out at the first block holding a sample that breaks it.  A block
# of peak windows holds as many values (_pair_gaps).
DELTA2_CHUNK = 256

# Grid points of the window on which an open rational row of a scaled pair is
# read first, and the rounding margin that certifies it (_pair_peaks).  On the
# registry_mutated seed-0 pool no pm3 or doubling row of the default grid
# failed the certificate.
PEAK_WINDOW = 4
PEAK_MARGIN = 2e-15

# Samples per block of pm4, whose blocks are (5, samples) probe matrices.
# check-axioms at 2e4 samples took 9.1-9.9 ms per call with blocks of 1,024
# to 4,096 samples, 10.7-11.8 ms with whole arrays and 17.2 ms with 256.
PM4_CHUNK = 2048

# The four axioms, in the order check_axioms reports them.
AXIOMS = ("pm1", "pm2", "pm3", "pm4")

Vector = np.ndarray


class InfeasibleConstruction(Exception):
    """A witness construction has no feasible parameters; carries the
    failing inequality as a diagnostic."""


class VerificationError(Exception):
    """Sampled evidence contradicts a constructed witness."""


class PreconditionError(ValueError):
    """A check or construction was asked for where its precondition fails."""


def as_vector(x: Any, dim: int | None = None) -> Vector:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"vectors must be one-dimensional, got shape {v.shape}")
    if not (1 <= v.size <= MAX_DIM):
        raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


# ---------------------------------------------------------------------------
# Classical modulars (the scalar functionals feeding the kernels).
# ---------------------------------------------------------------------------


class SigmaFunctional:
    """Nonnegative functional on R^n; rho operates on (N, dim) batches.  The
    classical modulars sum a row's terms in _row_sums' order."""

    def rho(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_config(self) -> dict[str, Any]:
        raise NotImplementedError


@dataclass(frozen=True)
class PPower(SigmaFunctional):
    """rho(x) = sum |x_i|^p with p >= 1."""

    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", float(check_number(self.p, "p", at_least=1)))

    def rho(self, X: np.ndarray) -> np.ndarray:
        """The terms |x_i|^p made in place in one (N, dim) temporary."""
        return _row_sums(operator.ipow(np.abs(X), self.p))

    def to_config(self) -> dict[str, Any]:
        return {"kind": "p_power", "p": self.p}


@dataclass(frozen=True)
class WeightedAbs(SigmaFunctional):
    """rho(x) = sum w_i |x_i| with positive weights."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        weights = check_numbers(self.weights, "weights", above=0)
        object.__setattr__(self, "weights", tuple(map(float, weights)))

    def rho(self, X: np.ndarray) -> np.ndarray:
        """Below 8 columns, each column's terms |x_j| w_j made as _row_sums
        adds them: weights broadcast along a row loop over dim.  On a 2-core
        Xeon VM (10,000 x 2) took 16-22 us against 78-82 and 256 x 7 12
        against 10.5; one rule at every length, as long batches dominate."""
        if X.shape[-1] != len(self.weights):
            raise ValueError(f"rho takes rows of {len(self.weights)} coordinates, "
                             f"got {X.shape[-1]}")
        if X.shape[-1] >= 8:
            return _row_sums(operator.imul(np.abs(X), self.weights))
        # |x_0| w_0 is never -0.0, so it equals _row_sums' 0.0 + |x_0| w_0.
        out = operator.imul(np.abs(X[..., 0]), self.weights[0])
        for j in range(1, X.shape[-1]):
            out += operator.imul(np.abs(X[..., j]), self.weights[j])
        return out

    def to_config(self) -> dict[str, Any]:
        return {"kind": "weighted_abs", "weights": list(self.weights)}


def _row_sums(A: np.ndarray) -> np.ndarray:
    """np.sum(A, axis=-1), bit for bit, one column at a time.

    Below 8 columns numpy adds the columns of a row in sequence to 0.0,
    and so does this, in a few passes over the long axis instead of one
    short sum per row; from 8 columns numpy sums pairwise, so np.sum stays
    there.
    """
    if A.shape[-1] >= 8:
        return np.sum(A, axis=-1)
    out = A[..., 0] + 0.0
    for j in range(1, A.shape[-1]):
        out += A[..., j]
    return out


def modular_from_config(cfg: dict[str, Any]) -> SigmaFunctional:
    kind = cfg.get("kind")
    if kind == "p_power":
        return PPower(p=cfg["p"])
    if kind == "weighted_abs":
        return WeightedAbs(weights=cfg["weights"])
    raise ValueError(f"unknown modular kind {kind!r}")


# ---------------------------------------------------------------------------
# Modular maps x -> mu_x.
# ---------------------------------------------------------------------------


class ModularMap:
    """Rule assigning each vector a distribution function.

    All concrete maps factor through a scalar kernel: mu_x(t) equals
    kernel(t, sigma(x)).  kernel must broadcast over numpy arrays and be
    elementwise: each value reads only its own (t, sigma) pair, so the
    checks may evaluate any rows, in blocks or in any layout, and get the
    bits one whole matrix holds.  The reference kernels vanish at t <= 0.
    The open step needs no t > 0 mask, as sigma >= 0; the others skip it
    when every t is positive, where it selects every point, and give the
    same bits.  Where some t is not positive, the rational kernel divides
    everywhere and then zeroes the points where t > 0 fails.  Every kernel
    returns an ndarray, a 0-d one for 0-d arguments.

    Every kernel also commutes with exact power-of-two scaling: for c a
    power of two, kernel(t, c*s) has the bits of kernel(t/c, s) wherever
    t/c and c*s are exact and t, s, t/c and c*s lie below 2**1022 in
    magnitude.  Scaling both operands by c leaves a compare as it is, a
    quotient's exact value as it is, and multiplies a sum's exact value by
    c; the bound keeps every sum of two such values finite, and a sum below
    the normal range is exact, so rounding commutes with the scaling.  The
    rational kernel also has a closed-form gap bound: over all t > 0,
    |t/(t+u) - t/(t+v)| <= |u-v|/(u+v).  The step kernels are indicators,
    [t > s] and [t >= s and t > 0], so kernel(t, u) and kernel(t/k, v) can
    differ only at a t between u and k*v, ends included.  pm3 and the
    doubling inequality settle rows by these three rules without evaluating
    them, and homogeneity, whose k is one per row, by the last two
    (_pair_settled gives them, with the rounding arguments and domains; a
    FlooredMap takes its base's).  Every kernel is also
    non-decreasing in t wherever t + s is finite: the step kernels exactly,
    the rational one up to rounding.  Its sum and quotient each lie within
    a relative 2**-53 of exact, so where the rounding of t + s moves it can
    fall by less than four ulps.  The regularity scan reads this contract:
    it retires a bisection lane once monotone bounds on the lane's bracket
    prove it cannot end in a jump, with a margin for that fall
    (distfn._regularity_scan).

    kernel1(t, s) is the scalar entry point: for floats t and s, s >= 0 or
    NaN, it returns as a float the bits kernel(t, s) holds, computed with
    the same IEEE operations on Python floats, without numpy's dispatch
    (topology.refine_ball's bisection reads it).
    """

    family: str = ""

    def __init__(self, rho: SigmaFunctional):
        self.rho = rho

    def kernel(self, T: np.ndarray, S: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def kernel1(self, t: float, s: float) -> float:
        raise NotImplementedError

    def to_config(self) -> dict[str, Any]:
        return {"family": self.family, "modular": self.rho.to_config()}


def _all_positive(T: np.ndarray) -> bool:
    """(T > 0).all() from one compare of a 0-d T's float, else one min
    reduction, which costs less on the small arrays the witnesses pass: a
    NaN is not > 0, and an empty T is all positive."""
    return (float(T) if T.ndim == 0 else T.min(initial=np.inf)) > 0


class RationalFrom(ModularMap):
    family = "rational_from"

    def kernel(self, T: np.ndarray, S: np.ndarray) -> np.ndarray:
        T = np.asarray(T, dtype=float)
        denominator = np.asarray(T + np.asarray(S, dtype=float))
        if _all_positive(T):
            return np.divide(T, denominator, out=denominator)
        # One unmasked divide, then +0.0 wherever t > 0 fails (a NaN t
        # included): the bits of a divide masked by t > 0 into zeros, at a
        # third of its cost on the probe blocks of pm4.
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(T, denominator, out=denominator)
        np.copyto(denominator, 0.0, where=~(T > 0))
        return denominator

    def kernel1(self, t: float, s: float) -> float:
        return t / (t + s) if t > 0 else 0.0


class StepFrom(ModularMap):
    family = "step_from"

    def kernel(self, T: np.ndarray, S: np.ndarray) -> np.ndarray:
        # S = sigma(x) >= 0, so t > S already implies t > 0.
        T, S = np.asarray(T, dtype=float), np.asarray(S, dtype=float)
        return np.asarray(T > S, dtype=float)

    def kernel1(self, t: float, s: float) -> float:
        return 1.0 if t > s else 0.0


class ClosedStepFrom(ModularMap):
    """Right-continuous step family; violates left continuity on purpose."""

    family = "step_closed_from"

    def kernel(self, T: np.ndarray, S: np.ndarray) -> np.ndarray:
        T, S = np.asarray(T, dtype=float), np.asarray(S, dtype=float)
        if _all_positive(T):
            return np.asarray(T >= S, dtype=float)
        return np.asarray((T >= S) & (T > 0), dtype=float)

    def kernel1(self, t: float, s: float) -> float:
        return 1.0 if t >= s and t > 0 else 0.0


class FlooredMap(ModularMap):
    """Wraps a base map so every mu_x is floored at a positive value on
    t >= 0; breaks the value-at-zero axiom and nothing else."""

    family = "floored"

    def __init__(self, base: ModularMap, floor: float):
        super().__init__(base.rho)
        self.base = base
        self.floor = float(floor)

    def kernel(self, T: np.ndarray, S: np.ndarray) -> np.ndarray:
        T = np.asarray(T, dtype=float)
        return np.where(T < 0, 0.0, np.maximum(self.base.kernel(T, S), self.floor))

    def kernel1(self, t: float, s: float) -> float:
        if t < 0:
            return 0.0
        v = self.base.kernel1(t, s)    # np.maximum keeps v where v > floor or v is NaN
        return v if v > self.floor or v != v else self.floor

    def to_config(self) -> dict[str, Any]:
        cfg = self.base.to_config()
        cfg["floored"] = self.floor
        return cfg


def _kernel_class(space: PMSpace) -> type[ModularMap]:
    """The map class whose kernel the checks reason about: a FlooredMap's base's."""
    return type(getattr(space.modular_map, "base", space.modular_map))


_FAMILIES = {"rational_from": RationalFrom, "step_from": StepFrom,
             "step_closed_from": ClosedStepFrom}


# ---------------------------------------------------------------------------
# The space itself.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PMSpace:
    dim: int
    modular_map: ModularMap
    declared_c: float | None = None
    declared_beta: float | None = None

    def __post_init__(self) -> None:
        check_number(self.dim, "dim", integer=True, at_least=1, at_most=MAX_DIM)
        rho = self.modular_map.rho
        if isinstance(rho, WeightedAbs) and len(rho.weights) != self.dim:
            raise FieldError(f"modular.weights must hold dim = {self.dim} numbers, "
                             f"got {len(rho.weights)}")
        if self.declared_c is not None:
            check_number(self.declared_c, "declared_c", above=0)
        if self.declared_beta is not None:
            check_number(self.declared_beta, "declared_beta", **EXPONENT)

    # Evaluation helpers ----------------------------------------------------

    def sigma(self, X: np.ndarray) -> np.ndarray:
        return self.modular_map.rho.rho(np.asarray(X, dtype=float))

    def sigma1(self, x: Vector) -> float:
        return float(self.sigma(as_vector(x, self.dim)[None, :])[0])

    def kernel(self, T: np.ndarray, S: np.ndarray) -> np.ndarray:
        return self.modular_map.kernel(T, S)

    def mu_matrix(self, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        """mu_{X[i]}(T[j]) as an (N, len(T)) matrix."""
        S = self.sigma(X)[:, None]
        return self.kernel(np.asarray(T, dtype=float)[None, :], S)

    def zero(self) -> Vector:
        return np.zeros(self.dim)

    def to_config(self) -> dict[str, Any]:
        cfg = {"dim": self.dim, **self.modular_map.to_config()}
        if self.declared_c is not None:
            cfg["declared_c"] = self.declared_c
        if self.declared_beta is not None:
            cfg["declared_beta"] = self.declared_beta
        return cfg


def space_from_config(cfg: dict[str, Any]) -> PMSpace:
    """The space a PMSpace.to_config record describes."""
    family = cfg.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown modular family {family!r}")
    try:
        mm = _FAMILIES[family](modular_from_config(cfg["modular"]))
    except FieldError as exc:
        raise FieldError(f"modular.{exc}") from None
    if "floored" in cfg:
        mm = FlooredMap(mm, cfg["floored"])
    return PMSpace(dim=cfg["dim"], modular_map=mm,
                   declared_c=cfg.get("declared_c"),
                   declared_beta=cfg.get("declared_beta"))


# Reference constructors used everywhere in tests and the CLI.

def rational_space(rho: SigmaFunctional, dim: int, declared_c: float | None = None,
                   declared_beta: float | None = None) -> PMSpace:
    return PMSpace(dim=dim, modular_map=RationalFrom(rho),
                   declared_c=declared_c, declared_beta=declared_beta)


def step_space(rho: SigmaFunctional, dim: int, declared_c: float | None = None,
               declared_beta: float | None = None) -> PMSpace:
    return PMSpace(dim=dim, modular_map=StepFrom(rho),
                   declared_c=declared_c, declared_beta=declared_beta)


# ---------------------------------------------------------------------------
# Closed-form membership oracles (testing backbone).
# ---------------------------------------------------------------------------


def rational_ball_radius(level: float, scale: float) -> float:
    """For the rational family, mu_x(t) > 1 - alpha iff rho(x) < t a/(1-a)."""
    return scale * level / (1.0 - level)


def oracle_threshold(space: PMSpace, level: float, scale: float) -> float:
    """Radius in rho-space of the ball with the given level and scale.

    Exact for the pure reference families; raises for anything else
    (including reference kernels wrapped around a mutated functional) so
    a mutated instance can never masquerade as its own oracle.
    """
    m = space.modular_map
    if not isinstance(m.rho, (PPower, WeightedAbs)):
        raise ValueError("no closed-form oracle for a mutated functional")
    if type(m) is RationalFrom:
        return rational_ball_radius(level, scale)
    if type(m) is StepFrom:
        return scale
    raise ValueError(f"no closed-form oracle for family {m.family!r}")


# ---------------------------------------------------------------------------
# Sampling laws.
# ---------------------------------------------------------------------------


def sample_vectors(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    return rng.standard_normal((n, dim))


def sample_convex_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """a = |g| / (|g| + |g'|); covers extreme weights with full support."""
    g = np.abs(rng.standard_normal(n))
    h = np.abs(rng.standard_normal(n))
    return g / (g + h)


def sample_scalars(rng: np.random.Generator, n: int) -> np.ndarray:
    """Log-uniform magnitudes in [1e-2, 1e2] with random sign."""
    mag = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n))
    sign = rng.choice([-1.0, 1.0], n)
    return sign * mag


# ---------------------------------------------------------------------------
# Axiom checks.
# ---------------------------------------------------------------------------


def check_axioms(space: PMSpace, budget: SampleBudget,
                 axioms: tuple[str, ...] = AXIOMS) -> CheckReport:
    """Run the requested axioms of PM1-PM4 over one draw of the budget's
    samples; the per-axiom breakdown is in parts, in AXIOMS order.

    Every call draws X from the "axioms" stream and computes sigma(X); only
    PM4 draws more (Y, a, then its random probe scales), after X, so each
    part reads the same samples and gives the same record whichever other
    parts are requested.  Only the requested parts are computed; the
    combined report covers them and counts the violations of all of them.

    PM4 is probed, for every sampled (x, y, a) triple, at a random grid
    pair, at structured pairs involving s = 0 or t = 0, and at the
    balanced pair (s, t) = (sigma(x), sigma(y)).  The balanced probe is
    where a convexity defect of the underlying functional surfaces first,
    so it gives the checker its detection power without any change to the
    inequality being tested.
    """
    if not axioms or any(name not in AXIOMS for name in axioms):
        raise ValueError(f"axioms must be a non-empty subset of {AXIOMS}, got {axioms}")
    rng = check_rng(budget.rng_seed, "axioms")
    X = sample_vectors(rng, budget.n_vectors, space.dim)
    S_x = space.sigma(X)
    build = {"pm1": lambda: _check_pm1(space, budget, X, S_x),
             "pm2": lambda: _check_pm2(space, budget, X, S_x),
             "pm3": lambda: _check_pm3(space, budget, X, S_x),
             "pm4": lambda: _check_pm4(space, budget, X, S_x, rng)}
    parts = {name: build[name]() for name in AXIOMS if name in axioms}
    # Each part keeps its first records, so the first of all the parts are among them.
    kept = [dict(v, axiom=k) for k, r in parts.items() for v in r.violations]
    rep = _make_report("axioms", range(sum(r.n_violations for r in parts.values())),
                       sum(r.samples_run for r in parts.values()), budget.rng_seed,
                       record=kept.__getitem__)
    rep.parts = parts
    return rep


def _check_pm1(space: PMSpace, budget: SampleBudget, X: np.ndarray,
               S_x: np.ndarray) -> CheckReport:
    """PM1: the value at zero vanishes for every sampled x."""
    v0 = space.kernel(np.asarray(0.0), S_x)
    bad = np.flatnonzero(np.abs(v0) > budget.epsilon)
    return _make_report("pm1", bad, len(X), budget.rng_seed, record=lambda i: {
        "x": X[i].tolist(), "mu_at_0": float(v0[i])})


def _check_pm2(space: PMSpace, budget: SampleBudget, X: np.ndarray,
               S_x: np.ndarray) -> CheckReport:
    """PM2 forward: the zero vector's distribution is exactly 1 on t > 0.
    PM2 reverse: no sampled nonzero x may sit at 1 across the whole grid.

    A sample stuck at 1 on the grid is re-probed at each of the
    LIMIT_EXTENSION_DECADES decades below the grid before it counts: a
    small x drops to 0 down there, while a genuine zero-identification
    defect stays at 1 everywhere.

    A row is stuck only if it is at 1 at every grid point, so the kernel
    is evaluated at the first grid point for every sample, and over the
    grid and the re-probe scales only for the rows still at 1 there, in
    blocks of DELTA2_CHUNK reduced along the scales to each row's minimum
    (at 1 everywhere iff the minimum is; a NaN fails both).  The kernel is
    elementwise, so these are the full (n, grid) matrix's values, up to
    the sign of a zero minimum.
    """
    eps = budget.epsilon
    grid = budget.grid_array()
    ext = grid[0] * np.power(10.0, -np.arange(1.0, LIMIT_EXTENSION_DECADES + 1.0))
    scales = np.concatenate([grid, ext])[:, None]
    mu0 = space.mu_matrix(space.zero()[None, :], grid)[0]
    rows = np.flatnonzero(np.any(X != 0.0, axis=1)
                          & (space.kernel(grid[0], S_x) >= 1.0 - eps))
    min_mu, min_ext = np.empty(rows.size), np.empty(rows.size)
    for b in _blocks(rows.size):
        M = space.kernel(scales, S_x[rows[b]])
        min_mu[b] = np.min(M[:grid.size], axis=0)
        min_ext[b] = np.min(M[grid.size:], axis=0)
    flagged = np.flatnonzero((min_mu >= 1.0 - eps) & (min_ext >= 1.0 - eps))
    if not np.all(mu0 == 1.0):  # the zero vector, flagged as -1, comes first
        flagged = np.concatenate([[-1], flagged])
    return _make_report("pm2", flagged, len(X) + 1, budget.rng_seed, record=lambda k: (
        {"x": space.zero().tolist(), "min_mu": float(np.min(mu0))} if k < 0
        else {"x": X[rows[k]].tolist(), "min_mu": float(min_mu[k])}))


def _check_pm3(space: PMSpace, budget: SampleBudget, X: np.ndarray,
               S_x: np.ndarray) -> CheckReport:
    """PM3: symmetry of the modular, max_t |mu_{-x}(t) - mu_x(t)| <= eps, the
    scaled pair (sigma(-x), sigma(x), 1).  Each open row's largest gap is
    read on a certified window around its peak on a rational kernel, or on
    the whole grid (_pair_gaps): the gaps and records the full (n, grid)
    matrices would give."""
    S_neg = space.sigma(-X)
    grid, eps = budget.grid_array(), budget.epsilon
    rows = np.flatnonzero(~_pair_settled(space, grid, S_neg, S_x, 1.0, eps))
    gap = _pair_gaps(space, grid, S_neg, S_x, 1.0, rows, eps, True)
    bad = np.flatnonzero(gap > eps)
    return _make_report("pm3", bad, len(X), budget.rng_seed, record=lambda k: {
        "x": X[rows[k]].tolist(), "max_gap": float(gap[k])})


def _float_bits(values: np.ndarray) -> np.ndarray:
    """The bit pattern of each float64: -0.0 and 0.0 differ, and a NaN
    equals a NaN with the same bits."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def _check_pm4(space: PMSpace, budget: SampleBudget, X: np.ndarray,
               S_x: np.ndarray, rng: np.random.Generator) -> CheckReport:
    """PM4 over sampled pairs, weights and probe (s, t) pairs; draws Y, a
    and the random probe scales from rng, in that order, for all samples.
    The midpoints, their sigma, sigma(y) and the five probes with their
    kernels and gaps are built in blocks of PM4_CHUNK samples: (5, samples)
    probes against (samples,) sigma rows.  sigma reads only its own row and
    the kernel is elementwise, so these are whole (5, n) matrices' values."""
    n = len(X)
    grid = budget.grid_array()
    Y = sample_vectors(rng, n, space.dim)
    a = sample_convex_weights(rng, n)
    s_rand = grid[rng.integers(0, grid.size, n)]
    t_rand = grid[rng.integers(0, grid.size, n)]

    def values(r: slice | np.ndarray) -> dict[str, np.ndarray]:
        S_y = space.sigma(Y[r])
        # a x + (1 - a) y with the weights repeated row by row, filled a column
        # at a time: broadcast, numpy would loop over a row's dim coordinates.
        w = np.empty(X[r].shape)
        for j in range(space.dim):
            w[:, j] = a[r]
        mid = w * X[r]
        np.subtract(1.0, w, out=w)
        w *= Y[r]
        mid += w
        S_m = space.sigma(mid)
        zeros = np.zeros(S_y.size)
        s = np.stack([s_rand[r], zeros, s_rand[r], zeros, S_x[r]])
        t = np.stack([t_rand[r], t_rand[r], zeros, zeros, S_y])
        return {"s": s, "t": t, "lhs": space.kernel(s + t, S_m),
                "rhs": np.minimum(space.kernel(s, S_x[r]), space.kernel(t, S_y))}

    broken = np.empty(n, dtype=bool)  # whether a sample's largest gap exceeds eps
    for b in _blocks(n, PM4_CHUNK):
        broken[b] = np.max(_gap(values(b), False, in_place=True), axis=0) > budget.epsilon
    return _gap_report("pm4", np.flatnonzero(broken), 5 * n, values,
                       lambda r: {"x": X[r].tolist(), "y": Y[r].tolist(), "a": float(a[r])},
                       budget, False, None)


def _blocks(n: int, size: int = DELTA2_CHUNK) -> list[slice]:
    """The blocks of size samples that cover the first n, in order: every grid
    check holds its grid-major (grid, samples) matrices one block at a time."""
    return [slice(lo, lo + size) for lo in range(0, n, size)]


def _gap(values: dict[str, np.ndarray], absolute: bool, in_place: bool = False) -> np.ndarray:
    """rhs - lhs of a block's values, or |rhs - lhs| where absolute, taken in
    place of rhs where in_place."""
    gap = np.subtract(values["rhs"], values["lhs"], out=values["rhs"] if in_place else None)
    return np.abs(gap, out=gap) if absolute else gap


def _gap_report(name: str, bad: np.ndarray, samples: int, read: Callable[..., dict],
                fields: Callable[[int], dict[str, Any]], budget: SampleBudget,
                absolute: bool, notes: dict[str, Any] | None) -> CheckReport:
    """The report, with samples run, of an inequality broken at the rows bad:
    it counts them and records the first MAX_STORED_VIOLATIONS, kept, each
    row r as fields(r) and its values at its first largest gap, from one more
    read(kept) of their grid-major values (lhs and rhs among them)."""
    kept = bad[:MAX_STORED_VIOLATIONS]

    @lru_cache(maxsize=1)
    def values() -> tuple[np.ndarray, dict[str, np.ndarray]]:
        named = read(kept)
        gap = _gap(named, absolute)
        return gap, {key: np.broadcast_to(value, gap.shape) for key, value in named.items()}

    def record(i: int) -> dict[str, Any]:
        gap, named = values()
        j = int(np.argmax(gap[:, i]))
        return {**fields(kept[i]), **{key: float(value[j, i]) for key, value in named.items()}}

    return _make_report(name, range(bad.size), samples, budget.rng_seed, notes, record=record)


def _scaled_exactly(x: np.ndarray, y: np.ndarray, c: Any) -> np.ndarray:
    """Where y is c * x exactly, for c a power of two, and x and y lie below
    2**1022 in magnitude: the domain of the kernels' scaling contract.  The
    caller ignores overflow and underflow."""
    return (x * c == y) & (y / c == x) & (np.abs(x) < 2.0 ** 1022) & (np.abs(y) < 2.0 ** 1022)


def _pair_exact(grid: np.ndarray, u: np.ndarray, v: np.ndarray, k: float) -> np.ndarray:
    """The rows of a scaled pair, kernel(t, u) against kernel(t/k, v) over
    the grid with k one number, that exact scaling settles: where k is a
    power of two, every t/k is exact and k * v is exact with the bits of u,
    the two sides are the same floats by the kernels' scaling contract
    (ModularMap), so the gap is exactly 0.  At k = 1 these are the rows
    whose u and v have the same bits, below 2**1022."""
    with np.errstate(over="ignore", under="ignore"):
        if math.frexp(k)[0] != 0.5 or not _scaled_exactly(grid / k, grid, k).all():
            return np.zeros(u.shape, dtype=bool)
        kv = k * v
        return _scaled_exactly(v, kv, k) & (_float_bits(kv) == _float_bits(u))


def _pair_settled(space: PMSpace, grid: np.ndarray, u: np.ndarray, v: np.ndarray, k: Any,
                  eps: float) -> np.ndarray:
    """Where the rows of a scaled pair provably hold, no gap over the sorted,
    non-empty, positive grid above eps: with k one number, the rows exact
    scaling settles (_pair_exact), and, when some row is left open, the rows
    a clause of the kernel settles, the gap bound on the rational kernel or
    the interval clause on the step kernels.  With k one per row
    (homogeneity) only the kernel's clause is tried; a row only exact
    scaling would settle is evaluated, and its gap is exactly 0.  A
    FlooredMap takes its base's clause: with t and t/k positive both sides
    are max(base value, floor), and max(., f) is 1-Lipschitz, so a floored
    row's gap is at most its base row's.

    Gap bound.  Over all real t > 0, |t/(t+u) - t/(t+z)| <= |u-z|/(u+z) =:
    D(u, z), its peak being at t = sqrt(uz).  With q = fl(t/k) = (t/k)(1+d),
    q/(q+v) is exactly t/(t+z) at z = kv/(1+d), and w = fl(k*v) is kv(1+d'),
    so z is w within a relative 2**-52; as z |dD/dz| <= 1/2, D(u, z) is
    D(u, w) within 2.3e-16.  Each computed kernel value is within 2.3e-16 of
    its exact value, the computed D(u, w) within 3.4e-16 of D(u, w) and the
    computed gap within 1.1e-16 of the exact difference, so a row with
    fl(D(u, w)) <= eps - 4e-15 has no gap above eps.  The argument needs u,
    w and every t/k positive and normal, and t + u, t/k + v and u + w finite
    (t/k is monotone in t, so the grid's ends decide); that domain is
    checked only when some row's D passes.  A NaN D settles nothing.

    Interval clause.  With m = min(u, w), M = max(u, w) and delta = 2**-51,
    a row is settled when no grid point lies in [lo, hi], lo = fl(m(1-delta))
    and hi = fl(M(1+delta)): one searchsorted of lo, then the first grid
    point at or above it compared with hi.  Both sides of such a row are then
    the same indicator at every t, so its gap is 0.  Let r = 2**-53.  Where w
    and every q = fl(t/k) are normal, kv = w(1+e) and t/k = q(1+e') with |e|,
    |e'| <= r; lo is within r m of m(1-delta) and hi within r M(1+delta) of
    M(1+delta), subnormal or not, as m >= 2**-1022.  So a grid t < lo has
    t < m(1-delta+r) < u and q <= t/(k(1-r)) < v(1+r)(1-delta+r)/(1-r) <= v,
    and both sides are 0; a grid t > hi has t > M(1+delta)(1-r) > u and
    q >= t/(k(1+r)) > v(1-r)**2 (1+delta)/(1+r) >= v, and both sides are 1.
    The two last steps need delta >= (3r + r**2)/(1+r) and delta >=
    (3r - r**2)/(1-r)**2, both below 4r = delta, and 1 - delta and 1 + delta
    are exact.  delta = 0 is wrong: at k = 1.1987577381478085 and
    v = 9.807564626014374, u = w = 11.756893987819447, and the grid point
    t = 11.75689398781945, one ulp above u, has fl(t/k) = v, so [t > u] is 1
    and [q > v] is 0.  The domain: u and w normal and hi finite, grid[0]/k
    normal and grid[-1]/k finite (q is monotone in t, so every q is normal);
    a NaN, k = 0 or an overflowing t/k leaves the row open.
    """
    settled = _pair_exact(grid, u, v, k) if np.ndim(k) == 0 else np.zeros(u.shape, dtype=bool)
    base = _kernel_class(space)
    if base not in (RationalFrom, StepFrom, ClosedStepFrom) or settled.all():
        return settled
    tiny = np.finfo(float).tiny
    with np.errstate(all="ignore"):
        w = k * v
        q_lo, q_hi = grid[0] / k, grid[-1] / k
        if base is not RationalFrom:
            lo, hi = np.minimum(u, w) * (1.0 - 2.0 ** -51), np.maximum(u, w) * (1.0 + 2.0 ** -51)
            first = np.append(grid, np.inf)[np.searchsorted(grid, lo)]
            return settled | ((first > hi) & (u >= tiny) & (w >= tiny) & (hi < np.inf)
                              & (q_lo >= tiny) & (q_hi < np.inf))
        total = u + w
        near = np.abs(u - w) / total <= eps - 4e-15
        if near.any():
            settled |= (near & (u >= tiny) & (w >= tiny) & (q_lo >= tiny) & (q_hi < np.inf)
                        & (grid[-1] + u < np.inf) & (q_hi + v < np.inf) & (total < np.inf))
    return settled


def _pair_values(space: PMSpace, grid: np.ndarray, u: np.ndarray, v: np.ndarray, k: Any,
                 rows: np.ndarray) -> dict[str, np.ndarray]:
    """The grid-major t, lhs = kernel(t, u) and rhs = kernel(t/k, v) of a
    scaled pair's given rows, t the whole grid or, where grid is a (points,
    rows) array, each row's own points.  Where t/k overflows, v's side is
    read at the largest float: at inf the rational kernel's inf/inf, a NaN,
    breaks no eps."""
    t = grid[:, None] if grid.ndim == 1 else grid
    with np.errstate(over="ignore"):
        q = t / (k if np.ndim(k) == 0 else k[rows])
    np.minimum(q, np.finfo(float).max, out=q)
    return {"t": t, "lhs": space.kernel(t, u[rows]), "rhs": space.kernel(q, v[rows])}


def _pair_windowed(space: PMSpace, grid: np.ndarray, eps: float, absolute: bool) -> bool:
    """Whether _pair_peaks reads a scaled pair's rows on peak windows: on the
    rational kernel, floored or not, over more grid points than a window
    holds, and for a signed pair only at eps above PEAK_MARGIN."""
    base = _kernel_class(space)
    return base is RationalFrom and grid.size > PEAK_WINDOW and (absolute or eps > PEAK_MARGIN)


def _pair_peaks(space: PMSpace, grid: np.ndarray, u: np.ndarray, v: np.ndarray, k: Any,
                rows: np.ndarray, eps: float,
                absolute: bool) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The given rows' largest gaps over the sorted, positive grid, and
    grid-major t, lhs and rhs of those rows at points whose first largest gap
    is the row's first over the grid: |rhs - lhs| where absolute, else rhs -
    lhs.  Where _pair_windowed, each row is read at the PEAK_WINDOW grid
    points around searchsorted(grid, sqrt(u k v)), with _pair_values'
    arithmetic, and a row the certificate below does not settle is read on
    the whole grid, its values at its first largest gap repeated over the
    window's points; elsewhere every row is read on the whole grid.  A
    signed row gets the grid's gap and values where it is broken, and the
    grid's verdict everywhere.

    Shape.  With w = kv (exact), the exact gap t/(t+w) - t/(t+u) is
    t(u-w)/((t+u)(t+w)), of u - w's sign at every t > 0, and 1/|gap| is
    t + u + w + uw/t over |u - w|, falling strictly up to t = sqrt(uw) and
    rising after.  So |gap| is unimodal: non-decreasing up to some p and
    non-increasing after.  A FlooredMap takes max(s, f) of each base side s,
    and the sides rise with t.  Where u > w, rhs is above lhs, so the floored
    gap is 0 while rhs < f, then rhs - f, rising, while lhs < f, and from
    there on the base gap, which it meets there: unimodal too, and >= 0.
    Where u < w the same holds with the sides swapped.

    Rounding.  Let the domain be u, v >= 0, t + u and t/k + v finite, and
    every q = fl(t/k) normal and finite: the grid's ends decide, as q is
    monotone in t.  There fl(t/fl(t + u)) is within 2.3e-16 of t/(t+u).  q is
    (t/k)(1+d) with |d| <= 2**-53, so q/(q+v) is t/(t+z) at z = w/(1+d),
    within |w-z|/(w+z) <= 5.6e-17 of t/(t+w) (_pair_settled's gap bound),
    and the computed rhs is within 2.3e-16 of q/(q+v).  The subtraction adds
    1.1e-16, and max(., f) and |.| are 1-Lipschitz.  So every computed gap
    G(t) is within d = 6.2e-16 of the exact gap g(t).

    Certificate.  Let j be the window's first largest computed gap, and a
    its first point.  If a is not the grid's first point and fl(G(j) - G(a))
    > PEAK_MARGIN, then G(j) - G(a) > 2e-15 (1 - 2**-53) > 2d, so g(t_j) >
    g(t_a).  Then t_a < t_j and t_a lies before the peak p, so every grid
    point before a, at t_i <= t_a, has g(t_i) <= g(t_a) and G(t_i) <= G(a) +
    2d < G(j).  Likewise after the window's last point; at a grid end there
    is nothing outside to bound.  So no grid point outside the window
    reaches G(j), and the window's largest gap and first argmax are the
    grid's, bit for bit.  This holds for |gap|, and for a signed gap where
    u > w.  Where u <= w the signed gap is <= 0 at every t, so every G is at
    most d < PEAK_MARGIN < eps: the row is not broken on the window or on
    the grid, whatever the window gives, and only a broken row is recorded.
    A signed window point with G < -PEAK_MARGIN has g < 0, so u < w, and
    settles its row too.  A row outside the domain (a NaN or infinite u, v
    or t/k among them) or without a certificate is read on the whole grid.
    """
    if not _pair_windowed(space, grid, eps, absolute):
        values = _pair_values(space, grid, u, v, k, rows)
        return np.max(_gap(values, absolute), axis=0), values
    n, k_r, u_r, v_r = grid.size, (k if np.ndim(k) == 0 else k[rows]), u[rows], v[rows]
    with np.errstate(all="ignore"):
        q_lo, q_hi = grid[0] / k_r, grid[-1] / k_r
        inside = ((u_r >= 0) & (v_r >= 0) & (q_lo >= np.finfo(float).tiny) & (q_hi < np.inf)
                  & (grid[-1] + u_r < np.inf) & (q_hi + v_r < np.inf))
        start = np.searchsorted(grid, np.sqrt(u_r * (k_r * v_r))) - PEAK_WINDOW // 2
    np.clip(start, 0, n - PEAK_WINDOW, out=start)
    values = _pair_values(space, grid[start + np.arange(PEAK_WINDOW)[:, None]], u, v, k, rows)
    gap = _gap(values, absolute)
    top = np.max(gap, axis=0)
    held = inside & ((start == 0) | (top - gap[0] > PEAK_MARGIN)) & (
        (start == n - PEAK_WINDOW) | (top - gap[-1] > PEAK_MARGIN))
    if not absolute:
        held |= inside & (np.min(gap, axis=0) < -PEAK_MARGIN)
    fallback = np.flatnonzero(~held)
    for b in _blocks(fallback.size):
        cols = fallback[b]
        full = _pair_values(space, grid, u, v, k, rows[cols])
        full_gap = _gap(full, absolute)
        at = np.argmax(full_gap, axis=0), np.arange(cols.size)
        top[cols] = full_gap[at]
        for key, value in full.items():
            values[key][:, cols] = np.broadcast_to(value, full_gap.shape)[at]
    return top, values


def _pair_gaps(space: PMSpace, grid: np.ndarray, u: np.ndarray, v: np.ndarray, k: Any,
               rows: np.ndarray, eps: float, absolute: bool) -> np.ndarray:
    """The given rows' largest gaps (_pair_peaks), in blocks of DELTA2_CHUNK
    rows on the whole grid, or of as many rows as hold the same number of
    values on peak windows."""
    size = DELTA2_CHUNK
    if _pair_windowed(space, grid, eps, absolute):
        size = DELTA2_CHUNK * grid.size // PEAK_WINDOW
    gap = np.empty(rows.size)
    for b in _blocks(rows.size, size):
        gap[b] = _pair_peaks(space, grid, u, v, k, rows[b], eps, absolute)[0]
    return gap


def _pair_report(name: str, space: PMSpace, budget: SampleBudget, u: np.ndarray,
                 v: np.ndarray, k: Any, fields: Callable[[int], dict[str, Any]], *,
                 notes: dict[str, Any], absolute: bool = False) -> CheckReport:
    """The report (_gap_report) of a scaled pair over its len(u) rows, from
    the open rows' largest gaps (_pair_gaps): a settled row holds, so it is
    neither counted nor recorded.  The kept rows are read once more by
    _pair_peaks: on their windows, or on the whole grid where they fall back."""
    grid, eps = budget.grid_array(), budget.epsilon
    rows = np.flatnonzero(~_pair_settled(space, grid, u, v, k, eps))
    bad = rows[_pair_gaps(space, grid, u, v, k, rows, eps, absolute) > eps]
    return _gap_report(name, bad, u.size,
                       lambda kept: _pair_peaks(space, grid, u, v, k, kept, eps, absolute)[1],
                       fields, budget, absolute, notes)


class _Delta2Scan:
    """The doubling inequality mu_{2x}(t) >= mu_x(t/c) - eps, the scaled
    pair (sigma(2x), sigma(x), c), over budget.n_vectors rows x of the
    "delta2" stream, asked its two questions: smallest, the least candidate
    no row breaks, and declared, the declared constant's report, asked only
    of a space that declares one (the delta2_declared entry's needs); the two
    doubling predicates share one (falsifier.Inputs.delta2).  Only open
    rows are evaluated, a rational row on a certified window around its
    peak (_pair_peaks), and a row's verdict reads only that row, so every
    verdict and record is the one a full-matrix evaluation gives.  On the
    valid reference instances sigma(2x) is 2**p sigma(x) bit for bit, so no
    row is open at their declared constant c = 2**p.  On a step space
    declared() also settles, by the interval clause, a row with no grid
    point between sigma(2x) and c sigma(x).
    """

    def __init__(self, space: PMSpace, budget: SampleBudget):
        X = sample_vectors(check_rng(budget.rng_seed, "delta2"), budget.n_vectors, space.dim)
        self.space, self.budget, self.X = space, budget, X
        self._grid = budget.grid_array()
        self._S, self._S2 = space.sigma(X), space.sigma(2.0 * X)

    def smallest(self, candidates: tuple[float, ...]) -> float | None:
        """The smallest candidate c no row breaks, or None; the candidates
        are checked before any is tested.  Each is tested on the rows exact
        scaling leaves open, in blocks of DELTA2_CHUNK rows, in row order,
        up to the first block holding a broken row.  _pair_settled's other
        clauses would cost every ruled-out candidate a pass over all rows:
        on the 64 step spaces of the registry_valid seed-0 pool, at 1e4
        rows, the interval clause took a call from 0.63 ms to 2.51 ms, as
        below the declared constant it settles at most a fifth of the rows
        and the open ones still break."""
        check_numbers(candidates, "candidates", above=0)
        eps = self.budget.epsilon
        pair = (self._grid, self._S2, self._S)

        def holds(c: float) -> bool:
            rows = np.flatnonzero(~_pair_exact(*pair, c))
            return not any((_pair_peaks(self.space, *pair, c, rows[b], eps, False)[0] > eps).any()
                           for b in _blocks(rows.size))

        return next((float(c) for c in sorted(candidates) if holds(c)), None)

    def declared(self) -> CheckReport:
        """The report of the space's declared constant on every row: each
        broken row is counted and the first ones are recorded."""
        c = self.space.declared_c
        return _pair_report("delta2_declared", self.space, self.budget, self._S2, self._S, c,
                            lambda r: {"x": self.X[r].tolist(), "c": c}, notes={"c": c})


def check_beta_homogeneous(space: PMSpace, beta: float,
                           budget: SampleBudget) -> CheckReport:
    """Sampled equality mu_{a x}(t) = mu_x(t / |a|^beta), the scaled pair
    (sigma(a x), sigma(x), |a|^beta) over X and a drawn up front.  On a
    valid degree-one space at beta = 1, sigma(a x) is |a| sigma(x) to within
    rounding, so no row of a rational space is open, and on a step space a
    row is open only where a grid point lies within a few ulps of
    sigma(a x), or its values leave the interval clause's domain."""
    try:
        check_number(beta, "exponent", **EXPONENT)
    except FieldError as exc:
        raise PreconditionError(str(exc)) from None
    rng = check_rng(budget.rng_seed, "homogeneous")
    n = max(budget.n_vectors, budget.n_scalar_pairs)
    X = sample_vectors(rng, n, space.dim)
    a = sample_scalars(rng, n)
    # Structured probes: identity scalars and exact doubling/halving.
    a[: min(6, n)] = [1.0, -1.0, 2.0, 0.5, -0.5, 1.0][: min(6, n)]
    return _pair_report("beta_homogeneous", space, budget, space.sigma(a[:, None] * X),
                        space.sigma(X), np.abs(a) ** beta,
                        lambda r: {"x": X[r].tolist(), "a": float(a[r])},
                        absolute=True, notes={"beta": beta})


# ---------------------------------------------------------------------------
# Transition regularity over a space (vectorized across samples).
# ---------------------------------------------------------------------------


def check_space_regularity(space: PMSpace, budget: SampleBudget) -> CheckReport:
    """Transition regularity of mu_x, continuity plus strict increase
    across the transition band, for REGULARITY_POINTS sampled x, or as many
    as the budget's n_vectors if fewer, that are nonzero, aggregated into
    one report.

    The two clauses are distfn._regularity_scan's, run on the kernel over
    a whole batch of sigma values at once.  If no grid pair qualifies for
    the strict clause it is vacuous; the notes flag this rather than
    guessing an intent.
    """
    seed = budget.rng_seed
    eps = budget.epsilon
    X = sample_vectors(check_rng(seed, "regularity"),
                       min(budget.n_vectors, REGULARITY_POINTS), space.dim)
    X = X[np.any(X != 0.0, axis=1)]
    n = X.shape[0]
    notes: dict[str, Any] = {"nonzero_samples": int(n)}
    S = space.sigma(X)
    grid = _regularity_grid(budget.t_grid)
    V = space.kernel(grid[None, :], S[:, None])
    (jump_i, at, gap), (flat_i, flat_j), strict_pairs = _regularity_scan(
        lambda t, rows: space.kernel(t, S[rows]), V, grid, eps)
    notes["strict_pairs"] = strict_pairs
    notes["strict_vacuous"] = strict_pairs == 0
    nj = jump_i.size

    def record(k: int) -> dict[str, Any]:
        """The k-th violation: the jumps first, then the strict-clause pairs."""
        if k < nj:
            return {"clause": "continuity", "x": X[jump_i[k]].tolist(),
                    "at": float(at[k]), "gap": float(gap[k])}
        i, j = flat_i[k - nj], flat_j[k - nj]
        return {"clause": "strict", "x": X[i].tolist(), "t1": float(grid[j]),
                "t2": float(grid[j + 1]), "f1": float(V[i, j]), "f2": float(V[i, j + 1])}

    return _make_report("space_regularity", range(nj + flat_i.size), n, seed, notes=notes,
                        record=record)
