"""Distribution functions on the real line with values in [0, 1], and the
sampling budget and report types every check shares.

A distribution function is a non-decreasing map f: R -> [0, 1] with
inf f = 0 and sup f = 1, the value mu_x a probabilistic modular assigns to
a vector x.  Those values come from a space's kernel (PMSpace.kernel and
mu_matrix); this module holds the checks on a batch of them, given as a
matrix-valued function of t with one row per function: admissibility
(check_delta_memberships) and the transition-regularity scan that
pmspace.check_space_regularity runs, and the lane bisection both the scan
and the smaller-scale witness use.

All values are immutable after construction and every operation here is a
pure function, so concurrent evaluation needs no synchronization.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field, fields
from typing import Any, Callable

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

# Validation bounds on a budget's sizes, so that an absurd count is a config
# error and not a failed allocation.  Peak memory grows linearly in both.
# Traced by tracemalloc, check_axioms peaks at 5.3-6.1 MiB at 1e5 samples in
# dim 1 (13.0 MiB in dim 4), and check_space_regularity at 14.1 MiB on a
# 1024-point grid (rational_from, dim 2).
MAX_SAMPLES = 10 ** 6
MAX_GRID_COUNT = 1024

# Bound on every t_grid entry.  The checks read t up to 1e13 times the last
# grid point (delta_membership's sup-limit probes; homogeneity reads up to
# 1e2 times it, pm4 twice it), and 1e303 stays below the float maximum.
MAX_GRID_T = 1e290


class FieldError(ValueError):
    """A number field of the wrong type or outside its range.  The message
    starts with the field's name, so a caller that knows where the field
    sits in a config names it by prefixing its own path."""


def check_number(value: Any, field: str, *, integer: bool = False, above: Any = None,
                 at_least: Any = None, below: Any = None, at_most: Any = None) -> Any:
    """value, unchanged, when it is a finite real number (an integer when
    integer is set; a bool is neither) within the given bounds; else a
    FieldError naming field.  Every model checks its numbers through this."""
    try:
        ok = (isinstance(value, (int, np.integer) if integer
                         else (int, float, np.integer, np.floating))
              and not isinstance(value, bool)
              and (integer or math.isfinite(value))
              and (above is None or value > above)
              and (at_least is None or value >= at_least)
              and (below is None or value < below)
              and (at_most is None or value <= at_most))
    except OverflowError:  # an integer too large for a float
        ok = False
    if not ok:
        lo = f"({above}" if above is not None else "(-inf" if at_least is None else f"[{at_least}"
        hi = f"{below})" if below is not None else "inf)" if at_most is None else f"{at_most}]"
        kind = "an integer" if integer else "a finite number"
        raise FieldError(f"{field} must be {kind} in {lo}, {hi}, got {value!r}")
    return value


def check_numbers(values: Any, field: str, **bounds: Any) -> tuple[Any, ...]:
    """The entries of a non-empty list, tuple or array, each through
    check_number under the name field[i]; else a FieldError naming field."""
    if not (isinstance(values, (list, tuple, np.ndarray)) and len(values)):
        raise FieldError(f"{field} must be a non-empty list, got {values!r}")
    return tuple(check_number(v, f"{field}[{i}]", **bounds) for i, v in enumerate(values))


def default_t_grid(lo: float = GRID_MIN, hi: float = GRID_MAX,
                   count: int = GRID_COUNT) -> tuple[float, ...]:
    """Logarithmically spaced positive evaluation grid.  The bounds are
    checked before numpy sees them, under the names of the t_grid object
    form of a config: min, max and count."""
    check_number(lo, "min", above=0)
    check_number(hi, "max", above=lo, at_most=MAX_GRID_T)
    check_number(count, "count", integer=True, at_least=2, at_most=MAX_GRID_COUNT)
    return tuple(float(t) for t in np.geomspace(lo, hi, count))


@dataclass(frozen=True)
class SampleBudget:
    """Sampling configuration for every universally quantified check.

    Sampled vectors have standard normal coordinates at scale 1.
    """

    n_vectors: int = 1000
    n_scalar_pairs: int = 1000
    t_grid: tuple[float, ...] = field(default_factory=default_t_grid)
    epsilon: float = EPS
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_vectors", "n_scalar_pairs"):
            check_number(getattr(self, name), name, integer=True, at_least=1,
                         at_most=MAX_SAMPLES)
        check_number(self.rng_seed, "rng_seed", integer=True, at_least=0)
        grid = tuple(map(float, check_numbers(self.t_grid, "t_grid", above=0,
                                              at_most=MAX_GRID_T)))
        if len(grid) > MAX_GRID_COUNT or list(grid) != sorted(grid):
            raise FieldError(f"t_grid must be sorted and hold at most {MAX_GRID_COUNT} numbers")
        object.__setattr__(self, "t_grid", grid)
        check_number(self.epsilon, "epsilon", above=0)

    def grid_array(self) -> np.ndarray:
        return np.asarray(self.t_grid, dtype=float)

    def to_config(self) -> dict[str, Any]:
        return {
            "n_vectors": self.n_vectors,
            "n_scalar_pairs": self.n_scalar_pairs,
            "t_grid": [float(t) for t in self.t_grid],
            "epsilon": self.epsilon,
            "rng_seed": self.rng_seed,
        }


class FieldRecord:
    """Mixin for a dataclass whose record is its fields by name: each field
    goes through its own to_record, or its to_config if it has no to_record."""

    def to_record(self) -> dict[str, Any]:
        rec = {}
        for f in fields(self):
            v = getattr(self, f.name)
            to = getattr(v, "to_record", None) or getattr(v, "to_config", None)
            rec[f.name] = to() if to else v
        return rec


@dataclass
class CheckReport:
    """Outcome of one sampled check.

    passed is true exactly when no violation was found; violations keeps
    at most MAX_STORED_VIOLATIONS records while n_violations counts all.
    notes carries check-specific flags (clause breakdowns, vacuity, ...).
    """

    name: str
    violations: list[dict[str, Any]]
    samples_run: int
    seed: int
    n_violations: int
    notes: dict[str, Any] = field(default_factory=dict)
    parts: dict[str, "CheckReport"] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    def to_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {
            "check": self.name,
            "verdict": "pass" if self.passed else "fail",
            "seed": self.seed,
            "samples": self.samples_run,
            "violation_count": self.n_violations,
            "violations": self.violations,
        }
        if self.notes:
            rec["notes"] = self.notes
        if self.parts:
            rec["parts"] = {k: v.to_record() for k, v in self.parts.items()}
        return rec


def canonical_line(record: dict[str, Any]) -> str:
    """The one rule for a report or a registry run as text: strict JSON (a NaN
    or an infinity raises ValueError), keys sorted, no spaces, one line."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _make_report(name: str, flagged: Any, samples: int, seed: int,
                 notes: dict[str, Any] | None = None,
                 record: Callable[[Any], dict[str, Any]] | None = None) -> CheckReport:
    """The report rule: a report over the flagged samples, given in order,
    keeps records for the first MAX_STORED_VIOLATIONS (each built by record
    when it is given, else the flagged entry itself) and counts all of them."""
    kept = flagged[:MAX_STORED_VIOLATIONS]
    violations = [record(i) for i in kept] if record else list(kept)
    return CheckReport(name=name, violations=violations, samples_run=samples, seed=seed,
                       n_violations=len(flagged), notes=notes or {})


def check_rng(seed: int, label: str) -> np.random.Generator:
    """Deterministic per-check random stream.

    The label hash keeps independent checks on independent streams even
    when they share the budget seed.
    """
    tag = zlib.crc32(label.encode("utf-8"))
    # The trailing 0 is part of every stream's seed entropy: without it each
    # check would draw other numbers, and every report would change.
    return np.random.default_rng(np.random.SeedSequence((seed, tag, 0)))


# ---------------------------------------------------------------------------
# Checks on a batch of distribution functions.
# ---------------------------------------------------------------------------


def _confirm_limits(values: Callable[[np.ndarray], np.ndarray], start: float,
                    target: str, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Confirm inf -> 0 (target 'inf') or sup -> 1 ('sup') for each row of
    values by geometric extension beyond the grid end.

    Every row is probed at the same LIMIT_EXTENSION_DECADES + 1 points; a
    row is confirmed at the first probe that reaches the target.  A row
    that never does reports the step past the last probe divided by ten,
    and its value there.  Returns (ok, probe, value) per row; value is
    meaningful only where ok is false.
    """
    probes = [start]
    for _ in range(LIMIT_EXTENSION_DECADES + 1):
        p = probes[-1]
        probes.append(p * 10.0 if target == "sup" or p < 0 else -max(abs(p), 1.0))
    V = values(np.asarray(probes[:-1]))
    hit = V <= eps if target == "inf" else V >= 1.0 - eps
    first = np.argmax(hit, axis=1)
    ok = np.any(hit, axis=1)
    miss = probes[-1] / 10.0
    return (ok, np.where(ok, np.asarray(probes)[first], miss),
            values(np.asarray([miss]))[:, 0])


def check_delta_memberships(values: Callable[[np.ndarray], np.ndarray],
                            budget: SampleBudget) -> list[CheckReport]:
    """Is each of a batch of functions an admissible distribution function?
    values(t) gives their values at the points t as a matrix, one row per
    function; the reports are one per row.

    Checks monotonicity on all adjacent grid pairs (exactly, no
    tolerance), range containment in [0, 1], and the inf/sup limits.  The
    limit confirmation starts at the extreme grid points and extends
    geometrically for a bounded number of decades, since a fixed finite
    grid cannot witness a limit by itself.  Each clause is evaluated for
    the whole batch at once: one values call over the grid and one per
    limit probe sequence.
    """
    ts = np.asarray(list(NEGATIVE_PROBES) + [0.0] + list(budget.t_grid), dtype=float)
    V = values(ts)
    bad_range = (V < -0.0) | (V > 1.0)
    drop = V[:, :-1] > V[:, 1:]
    inf_ok, p_inf, v_inf = _confirm_limits(values, float(ts[0]), "inf", budget.epsilon)
    sup_ok, p_sup, v_sup = _confirm_limits(values, float(ts[-1]), "sup", budget.epsilon)
    reports = []
    for r, vals in enumerate(V):
        violations: list[dict[str, Any]] = [
            {"clause": "range", "t": float(ts[i]), "value": float(vals[i])}
            for i in np.flatnonzero(bad_range[r])]
        violations += [{"clause": "monotone",
                        "t1": float(ts[i]), "f1": float(vals[i]),
                        "t2": float(ts[i + 1]), "f2": float(vals[i + 1])}
                       for i in np.flatnonzero(drop[r])]
        if not inf_ok[r]:
            violations.append({"clause": "inf_limit", "t": float(p_inf[r]),
                               "value": float(v_inf[r])})
        if not sup_ok[r]:
            violations.append({"clause": "sup_limit", "t": float(p_sup[r]),
                               "value": float(v_sup[r])})
        reports.append(_make_report("delta_membership", violations, len(ts),
                                    budget.rng_seed,
                                    notes={"inf_probe": float(p_inf[r]),
                                           "sup_probe": float(p_sup[r])}))
    return reports


def bisect_lanes(pred, lo, hi, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Bisect all lanes of pred (false at lo, true at hi) at once: a lane's
    hi moves to its midpoint 0.5 * (lo + hi) where pred(mid) holds, its lo
    where not, and it stops once the midpoint is no longer strictly inside.
    Returns (lo, hi) after steps steps or once every lane has stopped."""
    lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi)))
    live = np.ones(lo.shape, dtype=bool)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        live &= ~((mid <= lo) | (mid >= hi))  # float granularity ends a lane
        if not np.any(live):
            break
        up = pred(mid)
        hi = np.where(live & up, mid, hi)
        lo = np.where(live & ~up, mid, lo)
    return lo, hi


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
        target = 0.5 * (V[rows, cols] + V[rows, cols + 1])
        lo, hi = bisect_lanes(lambda mid: evaluate(mid, rows) >= target,
                              grid[cols], grid[cols + 1], 48)
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
