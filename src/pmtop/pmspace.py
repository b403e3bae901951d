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
definition of mu_x: mu(space, x) binds it at one x, and the vectorized
checkers and closed-form membership oracles below evaluate it directly.

Naming note: the convexity weights of PM4 are called a, b here; the
symbol alpha is reserved for ball levels and beta for the homogeneity
exponent, so the three never collide in code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .distfn import (
    MAX_STORED_VIOLATIONS,
    CheckReport,
    DistributionFunction,
    SampleBudget,
    _make_report,
    _regularity_grid,
    _regularity_scan,
    check_rng,
)

MAX_DIM = 8

# Candidate grid for doubling-constant estimation: quarter powers of two,
# bracketing both reference families (2 for degree-1, 4 for degree-2).
DELTA2_CANDIDATES = tuple(float(2 ** (k / 4)) for k in range(17))

Vector = np.ndarray


class InfeasibleConstruction(Exception):
    """A witness construction has no feasible parameters; carries the
    failing inequality as a diagnostic."""


class VerificationError(Exception):
    """Sampled evidence contradicts a constructed witness."""


def as_vector(x: Any, dim: int | None = None) -> Vector:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"vectors must be one-dimensional, got shape {v.shape}")
    if not (1 <= v.size <= MAX_DIM):
        raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


# ---------------------------------------------------------------------------
# Classical modulars (the scalar functionals feeding the kernels).
# ---------------------------------------------------------------------------


class SigmaFunctional:
    """Nonnegative functional on R^n; rho operates on (N, dim) batches."""

    def rho(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def rho1(self, x: Vector) -> float:
        return float(self.rho(np.asarray(x, dtype=float)[None, :])[0])

    def to_config(self) -> dict[str, Any]:
        raise NotImplementedError


@dataclass(frozen=True)
class PPower(SigmaFunctional):
    """rho(x) = sum |x_i|^p with p >= 1."""

    p: float

    def __post_init__(self) -> None:
        if not self.p >= 1:
            raise ValueError(f"power must be >= 1, got {self.p}")

    def rho(self, X: np.ndarray) -> np.ndarray:
        return np.sum(np.abs(X) ** self.p, axis=-1)

    def to_config(self) -> dict[str, Any]:
        return {"kind": "p_power", "p": self.p}


@dataclass(frozen=True)
class WeightedAbs(SigmaFunctional):
    """rho(x) = sum w_i |x_i| with positive weights."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = tuple(float(v) for v in self.weights)
        if not w or any(v <= 0 or not np.isfinite(v) for v in w):
            raise ValueError("weights must be positive finite reals")
        object.__setattr__(self, "weights", w)

    def rho(self, X: np.ndarray) -> np.ndarray:
        w = np.asarray(self.weights)
        return np.sum(w * np.abs(X), axis=-1)

    def to_config(self) -> dict[str, Any]:
        return {"kind": "weighted_abs", "weights": list(self.weights)}


def modular_from_config(cfg: dict[str, Any]) -> SigmaFunctional:
    kind = cfg.get("kind")
    if kind == "p_power":
        return PPower(p=float(cfg["p"]))
    if kind == "weighted_abs":
        return WeightedAbs(weights=tuple(cfg["weights"]))
    raise ValueError(f"unknown modular kind {kind!r}")


# ---------------------------------------------------------------------------
# Modular maps x -> mu_x.
# ---------------------------------------------------------------------------


class ModularMap:
    """Rule assigning each vector a distribution function.

    All concrete maps factor through a scalar kernel: mu_x(t) equals
    kernel(t, sigma(x)).  kernel must broadcast over numpy arrays.
    """

    family: str = ""

    def __init__(self, rho: SigmaFunctional):
        self.rho = rho

    def sigma(self, X: np.ndarray) -> np.ndarray:
        return self.rho.rho(X)

    def sigma1(self, x: Vector) -> float:
        return self.rho.rho1(x)

    def kernel(self, T: np.ndarray, S: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_config(self) -> dict[str, Any]:
        return {"family": self.family, "modular": self.rho.to_config()}


class RationalFrom(ModularMap):
    family = "rational_from"

    def kernel(self, T: np.ndarray, S: np.ndarray) -> np.ndarray:
        T, S = np.broadcast_arrays(np.asarray(T, dtype=float), np.asarray(S, dtype=float))
        out = np.zeros(T.shape, dtype=float)
        np.divide(T, T + S, out=out, where=T > 0)
        return out


class StepFrom(ModularMap):
    family = "step_from"

    def kernel(self, T: np.ndarray, S: np.ndarray) -> np.ndarray:
        T, S = np.broadcast_arrays(np.asarray(T, dtype=float), np.asarray(S, dtype=float))
        return ((T > S) & (T > 0)).astype(float)


class ClosedStepFrom(ModularMap):
    """Right-continuous step family; violates left continuity on purpose."""

    family = "step_closed_from"

    def kernel(self, T: np.ndarray, S: np.ndarray) -> np.ndarray:
        T, S = np.broadcast_arrays(np.asarray(T, dtype=float), np.asarray(S, dtype=float))
        return ((T >= S) & (T > 0)).astype(float)


class FlooredMap(ModularMap):
    """Wraps a base map so every mu_x is floored at a positive value on
    t >= 0; breaks the value-at-zero axiom and nothing else."""

    family = "floored"

    def __init__(self, base: ModularMap, floor: float):
        super().__init__(base.rho)
        self.base = base
        self.floor = float(floor)

    def kernel(self, T: np.ndarray, S: np.ndarray) -> np.ndarray:
        T, S = np.broadcast_arrays(np.asarray(T, dtype=float), np.asarray(S, dtype=float))
        return np.where(T < 0, 0.0, np.maximum(self.base.kernel(T, S), self.floor))

    def to_config(self) -> dict[str, Any]:
        cfg = self.base.to_config()
        cfg["floored"] = self.floor
        return cfg


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
        if not (1 <= self.dim <= MAX_DIM):
            raise ValueError(f"dim must be in 1..{MAX_DIM}, got {self.dim}")
        if self.declared_c is not None and not self.declared_c > 0:
            raise ValueError("declared doubling constant must be > 0")
        if self.declared_beta is not None and not (0 < self.declared_beta <= 1):
            raise ValueError("declared homogeneity exponent must lie in (0, 1]")

    # Evaluation helpers ----------------------------------------------------

    def sigma(self, X: np.ndarray) -> np.ndarray:
        return self.modular_map.sigma(np.asarray(X, dtype=float))

    def sigma1(self, x: Vector) -> float:
        return self.modular_map.sigma1(as_vector(x, self.dim))

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
    mm = _FAMILIES[family](modular_from_config(cfg["modular"]))
    if "floored" in cfg:
        mm = FlooredMap(mm, cfg["floored"])
    return PMSpace(dim=int(cfg["dim"]), modular_map=mm,
                   declared_c=cfg.get("declared_c"),
                   declared_beta=cfg.get("declared_beta"))


@dataclass(frozen=True)
class BoundKernel(DistributionFunction):
    """mu_x as a function of t alone: the space's kernel at sigma = sigma(x)."""

    space: PMSpace
    sigma: float

    def eval_many(self, t: np.ndarray) -> np.ndarray:
        return self.space.kernel(t, self.sigma)


def mu(space: PMSpace, x: Vector) -> BoundKernel:
    """The distribution function assigned to x by the space's modular."""
    return BoundKernel(space, space.sigma1(x))


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


def oracle_contains(space: PMSpace, center: Vector, level: float, scale: float,
                    y: Vector) -> bool:
    thr = oracle_threshold(space, level, scale)
    return bool(space.sigma1(as_vector(center) - as_vector(y)) < thr)


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


def sample_scalars(rng: np.random.Generator, n: int,
                   lo: float = 1e-2, hi: float = 1e2) -> np.ndarray:
    """Log-uniform magnitudes with random sign."""
    mag = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    sign = rng.choice([-1.0, 1.0], n)
    return sign * mag


# ---------------------------------------------------------------------------
# Axiom checks.
# ---------------------------------------------------------------------------


def _collect(mask: np.ndarray, build, limit: int | None = MAX_STORED_VIOLATIONS,
             ) -> tuple[list[dict[str, Any]], int]:
    """Records for the first limit flagged samples (by default all a report
    keeps; None for every one), and the count of every flagged sample."""
    idx = np.flatnonzero(mask)
    return [build(int(i)) for i in idx[:limit]], int(idx.size)


def check_axioms(space: PMSpace, budget: SampleBudget) -> CheckReport:
    """Run PM1-PM4 over the budget's samples; per-axiom breakdown in parts.

    PM4 is probed, for every sampled (x, y, a) triple, at a random grid
    pair, at structured pairs involving s = 0 or t = 0, and at the
    balanced pair (s, t) = (sigma(x), sigma(y)).  The balanced probe is
    where a convexity defect of the underlying functional surfaces first,
    so it gives the checker its detection power without any change to the
    inequality being tested.
    """
    seed = budget.rng_seed
    eps = budget.epsilon
    grid = budget.grid_array()
    n = budget.n_vectors

    rng = check_rng(seed, "axioms")
    X = sample_vectors(rng, n, space.dim)
    S_x = space.sigma(X)
    M = space.mu_matrix(X, grid)

    # PM1: value at zero vanishes for every sampled x.
    v0 = space.kernel(np.asarray(0.0), S_x)
    bad = np.abs(v0) > eps
    viol, count = _collect(bad, lambda i: {
        "x": X[i].tolist(), "mu_at_0": float(v0[i])})
    pm1 = _make_report("pm1", viol, n, seed, n_violations=count)

    # PM2 forward: the zero vector's distribution is exactly 1 on t > 0.
    mu0 = space.mu_matrix(space.zero()[None, :], grid)[0]
    fwd_bad = not np.all(mu0 == 1.0)
    # PM2 reverse: no sampled nonzero x may sit at 1 across the whole grid.
    # A sample stuck at 1 on the grid is re-probed up to twelve decades
    # below the grid before it counts: a small x drops to 0 down there,
    # while a genuine zero-identification defect stays at 1 everywhere.
    nonzero = np.any(X != 0.0, axis=1)
    stuck = nonzero & np.all(M >= 1.0 - eps, axis=1)
    if np.any(stuck):
        ext = grid[0] * np.power(10.0, -np.arange(1.0, 13.0))
        M_ext = space.kernel(ext[None, :], S_x[stuck][:, None])
        still = np.all(M_ext >= 1.0 - eps, axis=1)
        stuck[np.nonzero(stuck)[0]] = still
    pm2_viol, count = _collect(stuck, lambda i: {
        "x": X[i].tolist(), "min_mu": float(np.min(M[i]))})
    if fwd_bad:
        pm2_viol.insert(0, {"x": space.zero().tolist(),
                            "min_mu": float(np.min(mu0))})
        count += 1
    pm2 = _make_report("pm2", pm2_viol, n + 1, seed, n_violations=count)

    # PM3: symmetry of the modular.
    M_neg = space.mu_matrix(-X, grid)
    asym = np.max(np.abs(M_neg - M), axis=1)
    bad = asym > eps
    viol, count = _collect(bad, lambda i: {
        "x": X[i].tolist(), "max_gap": float(asym[i])})
    pm3 = _make_report("pm3", viol, n, seed, n_violations=count)

    # PM4 over sampled pairs, weights, and probe (s, t) pairs.
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
    worst = np.max(gap, axis=1)
    bad = worst > eps

    def pm4_record(i: int) -> dict[str, Any]:
        j = int(np.argmax(gap[i]))
        return {"x": X[i].tolist(), "y": Y[i].tolist(), "a": float(a[i]),
                "s": float(probe_s[i, j]), "t": float(probe_t[i, j]),
                "lhs": float(lhs[i, j]), "rhs": float(rhs[i, j])}

    viol, count = _collect(bad, pm4_record)
    pm4 = _make_report("pm4", viol, n * probe_s.shape[1], seed, n_violations=count)

    parts = {"pm1": pm1, "pm2": pm2, "pm3": pm3, "pm4": pm4}
    all_viol = [dict(v, axiom=k) for k, r in parts.items() for v in r.violations]
    rep = _make_report("axioms", all_viol, sum(r.samples_run for r in parts.values()),
                       seed)
    rep.parts = parts
    rep.passed = all(r.passed for r in parts.values())
    return rep


def _delta2_broken(space: PMSpace, c: float, grid: np.ndarray, lhs: np.ndarray,
                   S: np.ndarray, eps: float,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The doubling inequality mu_{2x}(t) >= mu_x(t/c) - eps over samples x
    and the grid, from lhs = mu_{2x}(grid) and S = sigma(x) as a column:
    (samples that break it, rhs, rhs - lhs)."""
    rhs = space.kernel(grid[None, :] / c, S)
    gap = rhs - lhs
    return np.max(gap, axis=1) > eps, rhs, gap


def _delta2_records(space: PMSpace, c: float, budget: SampleBudget,
                    X: np.ndarray | None = None,
                    limit: int | None = MAX_STORED_VIOLATIONS,
                    ) -> tuple[list[dict[str, Any]], int]:
    """Records for the first limit samples that break the doubling
    inequality, and the count of all of them."""
    if X is None:
        X = sample_vectors(check_rng(budget.rng_seed, "delta2"), budget.n_vectors,
                           space.dim)
    grid = budget.grid_array()
    lhs = space.mu_matrix(2.0 * X, grid)
    bad, rhs, gap = _delta2_broken(space, c, grid, lhs, space.sigma(X)[:, None],
                                   budget.epsilon)

    def rec(i: int) -> dict[str, Any]:
        j = int(np.argmax(gap[i]))
        return {"x": X[i].tolist(), "t": float(grid[j]), "c": c,
                "lhs": float(lhs[i, j]), "rhs": float(rhs[i, j])}

    return _collect(bad, rec, limit)


def delta2_violations(space: PMSpace, c: float, budget: SampleBudget,
                      X: np.ndarray | None = None) -> list[dict[str, Any]]:
    """Samples where mu_{2x}(t) < mu_x(t/c) - eps."""
    return _delta2_records(space, c, budget, X, limit=None)[0]


def check_delta2_declared(space: PMSpace, budget: SampleBudget) -> CheckReport:
    """Verify the declared doubling constant against samples."""
    if space.declared_c is None:
        raise ValueError("space declares no doubling constant")
    viol, count = _delta2_records(space, space.declared_c, budget)
    return _make_report("delta2_declared", viol, budget.n_vectors,
                        budget.rng_seed, notes={"c": space.declared_c},
                        n_violations=count)


def find_delta2_constant(space: PMSpace, budget: SampleBudget,
                         c_candidates: tuple[float, ...] = DELTA2_CANDIDATES,
                         ) -> float | None:
    """Smallest candidate c with mu_{2x}(t) >= mu_x(t/c) - eps on all
    samples; None when every candidate fails."""
    if not c_candidates or any(c <= 0 for c in c_candidates):
        raise ValueError("candidates must be positive")
    X = sample_vectors(check_rng(budget.rng_seed, "delta2"), budget.n_vectors,
                       space.dim)
    grid = budget.grid_array()
    lhs = space.mu_matrix(2.0 * X, grid)
    S = space.sigma(X)[:, None]
    for c in sorted(c_candidates):
        # Keep only the verdict: holding rhs or gap into the next candidate
        # would add one (n_vectors, grid) array to peak memory.
        if not np.any(_delta2_broken(space, c, grid, lhs, S, budget.epsilon)[0]):
            return float(c)
    return None


def check_beta_homogeneous(space: PMSpace, beta: float,
                           budget: SampleBudget) -> CheckReport:
    """Sampled equality mu_{a x}(t) = mu_x(t / |a|^beta)."""
    if not (0 < beta <= 1):
        raise ValueError(f"exponent must lie in (0, 1], got {beta}")
    rng = check_rng(budget.rng_seed, "homogeneous")
    n = max(budget.n_vectors, budget.n_scalar_pairs)
    X = sample_vectors(rng, n, space.dim)
    a = sample_scalars(rng, n)
    # Structured probes: identity scalars and exact doubling/halving.
    a[: min(6, n)] = [1.0, -1.0, 2.0, 0.5, -0.5, 1.0][: min(6, n)]
    grid = budget.grid_array()

    lhs = space.mu_matrix(a[:, None] * X, grid)
    rhs = space.kernel(grid[None, :] / (np.abs(a) ** beta)[:, None],
                       space.sigma(X)[:, None])
    diff = np.max(np.abs(lhs - rhs), axis=1)
    bad = diff > budget.epsilon

    def rec(i: int) -> dict[str, Any]:
        j = int(np.argmax(np.abs(lhs[i] - rhs[i])))
        return {"x": X[i].tolist(), "a": float(a[i]), "t": float(grid[j]),
                "lhs": float(lhs[i, j]), "rhs": float(rhs[i, j])}

    viol, count = _collect(bad, rec)
    return _make_report("beta_homogeneous", viol, n, budget.rng_seed,
                        notes={"beta": beta}, n_violations=count)


# ---------------------------------------------------------------------------
# Transition regularity over a space (vectorized across samples).
# ---------------------------------------------------------------------------


def check_space_regularity(space: PMSpace, budget: SampleBudget,
                           points: list[Vector] | None = None,
                           max_points: int = 200) -> CheckReport:
    """Apply the continuity / strict-increase check to mu_x for sampled
    nonzero x (or for the provided points) and aggregate.

    The scan is distfn.check_transition_regularity's, run on the kernel
    over a whole batch of sigma values at once.
    """
    seed = budget.rng_seed
    eps = budget.epsilon
    if points is None:
        rng = check_rng(seed, "regularity")
        X = sample_vectors(rng, min(budget.n_vectors, max_points), space.dim)
    else:
        X = np.asarray([as_vector(p, space.dim) for p in points], dtype=float)
        X = X.reshape(-1, space.dim) if X.size else np.zeros((0, space.dim))

    nz = np.any(X != 0.0, axis=1) if X.size else np.zeros(0, dtype=bool)
    X = X[nz]
    n = X.shape[0]
    notes: dict[str, Any] = {"nonzero_samples": int(n)}
    if n == 0:
        rep = _make_report("space_regularity", [], 0, seed, notes=notes)
        rep.notes["vacuous"] = True
        return rep

    S = space.sigma(X)
    grid = _regularity_grid(budget.t_grid)
    V = space.kernel(grid[None, :], S[:, None])
    (jump_i, at, gap), (flat_i, flat_j), strict_pairs = _regularity_scan(
        lambda t, rows: space.kernel(t, S[rows]), V, grid, eps)
    violations: list[dict[str, Any]] = [
        {"clause": "continuity", "x": X[i].tolist(), "at": float(t), "gap": float(g)}
        for i, t, g in zip(jump_i[:MAX_STORED_VIOLATIONS], at, gap)]
    room = MAX_STORED_VIOLATIONS - len(violations)
    violations += [{"clause": "strict", "x": X[i].tolist(),
                    "t1": float(grid[j]), "t2": float(grid[j + 1]),
                    "f1": float(V[i, j]), "f2": float(V[i, j + 1])}
                   for i, j in zip(flat_i[:room], flat_j[:room])]
    notes["strict_pairs"] = strict_pairs
    notes["strict_vacuous"] = strict_pairs == 0
    return _make_report("space_regularity", violations, n, seed, notes=notes,
                        n_violations=jump_i.size + flat_i.size)
