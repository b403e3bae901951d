"""Distribution functions on the real line with values in [0, 1], and the
sampling budget and report types every check shares.

A distribution function is a non-decreasing map f: R -> [0, 1] with
inf f = 0 and sup f = 1, the value mu_x a probabilistic modular assigns to
a vector x.  Those values come from pmspace.mu, which binds the space's
scalar kernel at sigma(x); this module holds the checks on a single
function (admissibility, left continuity, transition regularity) and one
kind that is not a kernel:

piecewise_linear(breakpoints)
    Linear interpolation through (t, v) breakpoints; 0 left of the first
    breakpoint and equal to the last value right of the last one.  It can
    take shapes no kernel produces (a decreasing segment, a capped
    supremum, a jump or a flat interior stretch), which is what the
    checks here are tested against.

All values are immutable after construction and every operation here is a
pure function, so concurrent evaluation needs no synchronization.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

# Tolerances.  EPS is for equality-like comparisons, EPS_STRICT is the
# margin demanded of strict inequalities at decision boundaries.
EPS = 1e-9
EPS_STRICT = 1e-12

# Geometric sequence of one-sided probe steps standing in for limits.
LEFT_PROBES = (1e-3, 1e-6, 1e-9)

# Smallest jump the continuity scan certifies; below this a black-box
# evaluation cannot tell a jump from a steep continuous rise.
JUMP_FLOOR = 1e-4

# Default evaluation grid.
GRID_MIN = 1e-3
GRID_MAX = 1e3
GRID_COUNT = 64
NEGATIVE_PROBES = (-1.0, -1e-3)

# How far the inf/sup limit confirmation may extend past the grid ends.
LIMIT_EXTENSION_DECADES = 12

# Cap on stored violation records; the true count is reported separately.
MAX_STORED_VIOLATIONS = 50


def default_t_grid(lo: float = GRID_MIN, hi: float = GRID_MAX,
                   count: int = GRID_COUNT) -> tuple[float, ...]:
    """Logarithmically spaced positive evaluation grid."""
    if not (0 < lo < hi) or count < 2:
        raise ValueError(f"bad grid bounds lo={lo} hi={hi} count={count}")
    return tuple(float(t) for t in np.geomspace(lo, hi, count))


@dataclass(frozen=True)
class SampleBudget:
    """Sampling configuration for every universally quantified check.

    vector_law is fixed to standard normal coordinates at scale 1; the
    field exists so configurations are explicit and future-proof.
    """

    n_vectors: int = 1000
    n_scalar_pairs: int = 1000
    t_grid: tuple[float, ...] = field(default_factory=default_t_grid)
    epsilon: float = EPS
    rng_seed: int = 0
    vector_law: str = "standard_normal"

    def __post_init__(self) -> None:
        counts = (self.n_vectors, self.n_scalar_pairs, self.rng_seed)
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer))
               for n in counts):
            raise ValueError("sample counts and rng_seed must be integers")
        if self.n_vectors < 1 or self.n_scalar_pairs < 1:
            raise ValueError("sample counts must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        grid = tuple(float(t) for t in self.t_grid)
        if (not grid or any(not 0 < t < np.inf for t in grid)
                or list(grid) != sorted(grid)):
            raise ValueError("t_grid must be a sorted list of positive finite reals")
        object.__setattr__(self, "t_grid", grid)
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be a positive finite real")
        if self.vector_law != "standard_normal":
            raise ValueError(f"unsupported vector_law {self.vector_law!r}")

    def grid_array(self) -> np.ndarray:
        return np.asarray(self.t_grid, dtype=float)

    def to_config(self) -> dict[str, Any]:
        return {
            "n_vectors": self.n_vectors,
            "n_scalar_pairs": self.n_scalar_pairs,
            "t_grid": [float(t) for t in self.t_grid],
            "epsilon": self.epsilon,
            "rng_seed": self.rng_seed,
            "vector_law": self.vector_law,
        }


@dataclass
class CheckReport:
    """Outcome of one sampled check.

    passed is true exactly when no violation was found; violations keeps
    at most MAX_STORED_VIOLATIONS records while n_violations counts all.
    notes carries check-specific flags (clause breakdowns, vacuity, ...).
    """

    name: str
    passed: bool
    violations: list[dict[str, Any]]
    samples_run: int
    seed: int
    n_violations: int = 0
    notes: dict[str, Any] = field(default_factory=dict)
    parts: dict[str, "CheckReport"] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_violations == 0:
            self.n_violations = len(self.violations)

    def to_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {
            "check": self.name,
            "verdict": "pass" if self.passed else "fail",
            "seed": self.seed,
            "samples": self.samples_run,
            "violation_count": self.n_violations,
            "violations": self.violations[:MAX_STORED_VIOLATIONS],
        }
        if self.notes:
            rec["notes"] = self.notes
        if self.parts:
            rec["parts"] = {k: v.to_record() for k, v in self.parts.items()}
        return rec


def _make_report(name: str, violations: list[dict[str, Any]], samples: int,
                 seed: int, notes: dict[str, Any] | None = None,
                 n_violations: int | None = None) -> CheckReport:
    """Report keeping the first MAX_STORED_VIOLATIONS records.  n_violations
    is the full count when the caller built only the records kept; it
    defaults to len(violations)."""
    if n_violations is None:
        n_violations = len(violations)
    stored = violations[:MAX_STORED_VIOLATIONS]
    return CheckReport(name=name, passed=n_violations == 0, violations=stored,
                       samples_run=samples, seed=seed,
                       n_violations=n_violations, notes=notes or {})


def check_rng(seed: int, label: str, shard: int = 0) -> np.random.Generator:
    """Deterministic per-check random stream.

    The label hash keeps independent checks on independent streams even
    when they share the budget seed; the shard index supports a fixed
    logical split that is stable no matter how many workers execute it.
    """
    tag = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence((seed, tag, shard)))


# ---------------------------------------------------------------------------
# Distribution functions and the checks on a single one.
# ---------------------------------------------------------------------------


class DistributionFunction:
    """Base class; concrete functions implement eval_many over float arrays."""

    def eval_many(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, t: float) -> float:
        return float(self.eval_many(np.asarray([t], dtype=float))[0])


@dataclass(frozen=True)
class PiecewiseLinear(DistributionFunction):
    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        bps = tuple((float(t), float(v)) for t, v in self.breakpoints)
        if not bps:
            raise ValueError("need at least one breakpoint")
        ts = [t for t, _ in bps]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("breakpoint abscissae must be strictly increasing")
        if any(not (0.0 <= v <= 1.0) for _, v in bps):
            raise ValueError("breakpoint values must lie in [0, 1]")
        object.__setattr__(self, "breakpoints", bps)

    def eval_many(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        xs = np.array([p[0] for p in self.breakpoints])
        vs = np.array([p[1] for p in self.breakpoints])
        out = np.interp(t, xs, vs)
        # 0 strictly left of the first breakpoint (np.interp clamps to vs[0]).
        out = np.where(t < xs[0], 0.0, out)
        return out


def _confirm_limit(f: DistributionFunction, start: float, target: str,
                   eps: float) -> tuple[bool, float, float]:
    """Confirm inf -> 0 (target 'inf') or sup -> 1 ('sup') by geometric
    extension beyond the grid end.  Returns (ok, probe, value)."""
    probe = start
    for _ in range(LIMIT_EXTENSION_DECADES + 1):
        val = f(probe)
        if target == "inf" and val <= eps:
            return True, probe, val
        if target == "sup" and val >= 1.0 - eps:
            return True, probe, val
        probe = probe * 10.0 if target == "sup" else (
            probe * 10.0 if probe < 0 else -max(abs(probe), 1.0))
    return False, probe / 10.0, f(probe / 10.0)


def check_delta_membership(f: DistributionFunction,
                           budget: SampleBudget) -> CheckReport:
    """Is f an admissible distribution function?

    Checks monotonicity on all adjacent grid pairs (exactly, no
    tolerance), range containment in [0, 1], and the inf/sup limits.  The
    limit confirmation starts at the extreme grid points and extends
    geometrically for a bounded number of decades, since a fixed finite
    grid cannot witness a limit by itself.
    """
    grid = list(NEGATIVE_PROBES) + [0.0] + list(budget.t_grid)
    ts = np.asarray(grid, dtype=float)
    vals = f.eval_many(ts)
    violations: list[dict[str, Any]] = []

    bad_range = (vals < -0.0) | (vals > 1.0)
    for i in np.nonzero(bad_range)[0]:
        violations.append({"clause": "range", "t": float(ts[i]), "value": float(vals[i])})

    drop = vals[:-1] > vals[1:]
    for i in np.nonzero(drop)[0]:
        violations.append({"clause": "monotone",
                           "t1": float(ts[i]), "f1": float(vals[i]),
                           "t2": float(ts[i + 1]), "f2": float(vals[i + 1])})

    inf_ok, p_inf, v_inf = _confirm_limit(f, float(ts[0]), "inf", budget.epsilon)
    if not inf_ok:
        violations.append({"clause": "inf_limit", "t": p_inf, "value": v_inf})
    sup_ok, p_sup, v_sup = _confirm_limit(f, float(ts[-1]), "sup", budget.epsilon)
    if not sup_ok:
        violations.append({"clause": "sup_limit", "t": p_sup, "value": v_sup})

    return _make_report("delta_membership", violations, len(grid),
                        budget.rng_seed,
                        notes={"inf_probe": p_inf, "sup_probe": p_sup})


def check_left_continuity(f: DistributionFunction, t: float,
                          budget: SampleBudget) -> CheckReport:
    """Probe left continuity of f at t > 0.

    The verdict compares f(t) with f(t - delta) at the smallest probe
    step; the larger steps are recorded as evidence of how the one-sided
    gap behaves as delta shrinks.
    """
    if not t > 0:
        raise ValueError(f"left-continuity probe point must be > 0, got {t}")
    deltas = [min(d, t / 2.0) for d in LEFT_PROBES]
    gaps = [float(f(t) - f(t - d)) for d in deltas]
    violations = []
    if gaps[-1] > budget.epsilon:
        violations.append({"t": t, "delta": deltas[-1], "gap": gaps[-1]})
    return _make_report("left_continuity", violations, len(deltas),
                        budget.rng_seed,
                        notes={"probes": [[d, g] for d, g in zip(deltas, gaps)]})


def _regularity_scan(evaluate, V: np.ndarray, grid: np.ndarray, eps: float):
    """Both clauses of the transition-regularity check over a batch of
    non-decreasing functions, given their values V (one row per function)
    on the grid and evaluate(t, rows), the values of functions rows at t.

    continuity   where a grid pair rises by more than JUMP_FLOOR, bisect to
                 the steep point and compare the two-sided gap at the
                 smallest probe step against the gap at the widest.  A
                 genuine jump keeps the gap as the step shrinks; a steep
                 continuous rise does not.
    strict       on grid pairs whose values both lie strictly inside
                 (0, 1), require f(t2) > f(t1) + EPS_STRICT.

    Returns (rows, at, gap) of the jumps found, (rows, cols) of the grid
    pairs (cols, cols + 1) that break the strict clause, and the number of
    pairs the strict clause applies to.
    """
    rows, cols = np.nonzero(V[:, 1:] - V[:, :-1] > JUMP_FLOOR)
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
        d_small, d_wide = LEFT_PROBES[-1], LEFT_PROBES[0]
        g_small = (evaluate(tau + d_small, rows)
                   - evaluate(np.maximum(tau - d_small, 0.0), rows))
        g_wide = (evaluate(tau + d_wide, rows)
                  - evaluate(np.maximum(tau - d_wide, 0.0), rows))
        jumpy = (g_small > eps) & (g_small >= 0.5 * g_wide)
        jumps = (rows[jumpy], tau[jumpy], g_small[jumpy])
    interior = (V > eps) & (V < 1.0 - eps)
    pair_ok = interior[:, :-1] & interior[:, 1:]
    flat = pair_ok & ~(V[:, 1:] > V[:, :-1] + EPS_STRICT)
    return jumps, np.nonzero(flat), int(np.sum(pair_ok))


def _regularity_grid(t_grid: tuple[float, ...]) -> np.ndarray:
    """The budget grid with sub- and super-grid probe points added."""
    return np.asarray(sorted(set([1e-5, 1e-4] + list(t_grid) + [1e4, 1e5])))


def check_transition_regularity(f: DistributionFunction,
                                budget: SampleBudget) -> CheckReport:
    """Continuity plus strict increase across the transition band, the two
    clauses of _regularity_scan, reported separately.

    If no grid pair qualifies for the strict clause it is vacuous; the
    report flags this rather than guessing an intent.
    """
    ts = _regularity_grid(budget.t_grid)
    vals = f.eval_many(ts)
    (_, at, gap), (_, flat), strict_pairs = _regularity_scan(
        lambda t, rows: f.eval_many(t), vals[None, :], ts, budget.epsilon)
    violations: list[dict[str, Any]] = [
        {"clause": "continuity", "at": float(a), "gap": float(g)}
        for a, g in zip(at, gap)]
    violations += [{"clause": "strict", "t1": float(ts[j]), "f1": float(vals[j]),
                    "t2": float(ts[j + 1]), "f2": float(vals[j + 1])} for j in flat]
    notes = {"continuity_ok": at.size == 0, "strict_ok": flat.size == 0,
             "strict_pairs": strict_pairs, "strict_vacuous": strict_pairs == 0}
    return _make_report("transition_regularity", violations, len(ts),
                        budget.rng_seed, notes=notes)
