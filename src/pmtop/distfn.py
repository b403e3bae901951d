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

# The continuity scan's widest and smallest two-sided probe steps.
LEFT_PROBES = (1e-3, 1e-9)

# Smallest jump the continuity scan certifies; below this a black-box
# evaluation cannot tell a jump from a steep continuous rise.
JUMP_FLOOR = 1e-4

# The continuity scan bisects each lane for JUMP_STEPS steps, in stages of
# RETIRE_STAGE; between two stages it retires the lanes a monotone bound
# proves continuous, with RETIRE_MARGIN of slack for the kernel's rounding
# (_regularity_scan derives both).  Timed per check_space_regularity call on
# the 20 regularity checks of the seed-0 axiom_bulk pool (2-core Xeon VM,
# medians of 7 passes, three runs): 1.6-2.1 ms at 8 steps, the fastest or
# level in each run, against 1.7-2.0 at 6, 7, 10 and 12, 2.0-2.1 at 4 and 16,
# and 4.0-4.9 unstaged (48).  At 8 the pool bisects 1,091,560 points, not
# 3,953,520.
JUMP_STEPS = 48
RETIRE_STAGE = 8
RETIRE_MARGIN = 2.0 ** -48

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
# dim 1 (13.0 MiB in dim 4), and check_space_regularity at 4.2 MiB on a
# 1024-point grid (rational_from, dim 2; a test holds it under 4.75 MiB).
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
              and _within(value, above, at_least, below, at_most))
    except OverflowError:  # an integer too large for a float
        ok = False
    if not ok:
        lo = f"({above}" if above is not None else "(-inf" if at_least is None else f"[{at_least}"
        hi = f"{below})" if below is not None else "inf)" if at_most is None else f"{at_most}]"
        kind = "an integer" if integer else "a finite number"
        raise FieldError(f"{field} must be {kind} in {lo}, {hi}, got {value!r}")
    return value


def _within(x: Any, above: Any, at_least: Any, below: Any, at_most: Any) -> Any:
    """Whether the number x lies within check_number's bounds (None for no
    bound)."""
    return ((above is None or x > above) and (at_least is None or x >= at_least)
            and (below is None or x < below) and (at_most is None or x <= at_most))


def check_numbers(values: Any, field: str, *, above: Any = None,
                  at_most: Any = None) -> tuple[Any, ...]:
    """The entries of a non-empty list, tuple or array, each through
    check_number under the name field[i]; else a FieldError naming field.
    A list or tuple of Python floats is first checked in one pass that
    names no entry (dataclasses.replace on a SampleBudget checks its grid
    again on every call); only one that fails it goes entry by entry, for
    the message naming its first bad entry."""
    if not (isinstance(values, (list, tuple, np.ndarray)) and len(values)):
        raise FieldError(f"{field} must be a non-empty list, got {values!r}")
    if isinstance(values, (list, tuple)) and all(
            type(v) is float and math.isfinite(v) and _within(v, above, None, None, at_most)
            for v in values):
        return tuple(values)
    return tuple(check_number(v, f"{field}[{i}]", above=above, at_most=at_most)
                 for i, v in enumerate(values))


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

    Sampled vectors have standard normal coordinates at scale 1.  t_grid is
    a sorted non-empty list of at most MAX_GRID_COUNT numbers in
    (0, MAX_GRID_T] (check_numbers), kept as a tuple of floats.
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
                 notes: dict[str, Any] | None = None, *,
                 record: Callable[[Any], dict[str, Any]]) -> CheckReport:
    """The report rule: a report over the flagged samples, given in order,
    keeps the records record builds for the first MAX_STORED_VIOLATIONS and
    counts all of them."""
    violations = [record(i) for i in flagged[:MAX_STORED_VIOLATIONS]]
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
                    target: str, eps: float) -> tuple[np.ndarray, float, np.ndarray]:
    """Confirm inf -> 0 (target 'inf', from a negative start) or sup -> 1
    ('sup', from a positive one) for each row of values by geometric
    extension beyond the grid end.

    Every row is probed at the same LIMIT_EXTENSION_DECADES + 1 points,
    start times 10**k; a row is confirmed if some probe reaches the target.
    miss is the step past the last probe divided by ten.  Returns (ok,
    miss, value), value being each row's value at miss.
    """
    probes = [start]
    for _ in range(LIMIT_EXTENSION_DECADES + 1):
        probes.append(probes[-1] * 10.0)
    V = values(np.asarray(probes[:-1]))
    ok = np.any(V <= eps if target == "inf" else V >= 1.0 - eps, axis=1)
    miss = probes[-1] / 10.0
    return ok, miss, values(np.asarray([miss]))[:, 0]


def check_delta_memberships(values: Callable[[np.ndarray], np.ndarray],
                            budget: SampleBudget) -> list[list[dict[str, Any]]]:
    """Is each of a batch of functions an admissible distribution function?
    values(t) gives their values at the points t as a matrix, one row per
    function; each row gets its list of violations, empty if it is admissible.

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
    rows = []
    for r, vals in enumerate(V):
        violations: list[dict[str, Any]] = [
            {"clause": "range", "t": float(ts[i]), "value": float(vals[i])}
            for i in np.flatnonzero(bad_range[r])]
        violations += [{"clause": "monotone",
                        "t1": float(ts[i]), "f1": float(vals[i]),
                        "t2": float(ts[i + 1]), "f2": float(vals[i + 1])}
                       for i in np.flatnonzero(drop[r])]
        if not inf_ok[r]:
            violations.append({"clause": "inf_limit", "t": p_inf, "value": float(v_inf[r])})
        if not sup_ok[r]:
            violations.append({"clause": "sup_limit", "t": p_sup, "value": float(v_sup[r])})
        rows.append(violations)
    return rows


def bisect_lanes(pred, lo, hi, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Bisect all lanes of pred (false at lo, true at hi) at once: a lane's
    hi moves to its midpoint 0.5 * (lo + hi) where pred(mid) holds, its lo
    where not, and it stops once the midpoint is no longer strictly inside
    (a NaN midpoint keeps its lane live).  Returns (lo, hi), new arrays,
    after steps steps or once every lane has stopped.  The steps move
    copies of lo and hi in place; pred gets a new mid array at every step,
    which it may keep."""
    lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    live = np.ones(lo.shape, dtype=bool)
    mask = np.empty(lo.shape, dtype=bool)
    for _ in range(steps):
        mid = lo + hi
        mid *= 0.5
        # Float granularity ends a lane: live &= ~((mid <= lo) | (mid >= hi)).
        np.logical_or(np.less_equal(mid, lo, out=mask), mid >= hi, out=mask)
        np.greater(live, mask, out=live)
        if not live.any():
            break
        up = pred(mid)
        np.copyto(hi, mid, where=np.logical_and(live, up, out=mask))
        np.copyto(lo, mid, where=np.greater(live, up, out=mask))
    return lo, hi


def _regularity_scan(evaluate, V: np.ndarray, grid: np.ndarray, eps: float):
    """Both clauses of the transition-regularity check over a batch of
    non-decreasing functions, given their values V (one row per function)
    on the grid and evaluate(t, rows), the values of functions rows at t.

    continuity   where a grid pair rises by more than JUMP_FLOOR, bisect to
                 the steep point tau and compare the two-sided gap g_small
                 at the smallest probe step against the gap g_wide at the
                 widest.  A genuine jump keeps the gap as the step shrinks;
                 a steep continuous rise does not.  The pair is jumpy where
                 g_small > eps and g_small >= 0.5 * g_wide.
    strict       on grid pairs whose values both lie strictly inside
                 (0, 1), require f(t2) > f(t1) + EPS_STRICT.

    Each pair is a lane of bisect_lanes, JUMP_STEPS steps long, run in
    stages of RETIRE_STAGE steps.  Between two stages a lane with bracket
    [lo, hi] retires, and records nothing, when a monotone bound proves it
    cannot end jumpy.  Every later bracket, and so tau, lies in [lo, hi], and
    rounding is monotone, so fl(tau + d) <= fl(hi + d) and
    max(fl(tau - d), 0) >= max(fl(lo - d), 0).  With f non-decreasing in t:

        g_small <= U = f(hi + d_small) - f(max(lo - d_small, 0))
        g_wide  >= L = f(lo + d_wide) - f(max(hi - d_wide, 0))

    The kernels are non-decreasing only up to rounding (ModularMap's
    contract): a value can fall by less than four ulps, below 2**-50 for a
    value in [0, 1].  Two such falls and the rounding of both differences
    (at most 2**-54 each) give computed g_small < computed U + 2**-49 +
    2**-53, and the rounding of U + RETIRE_MARGIN costs at most 2**-53
    more, so fl(U + RETIRE_MARGIN) > g_small at RETIRE_MARGIN = 2**-48; the
    same holds for L and g_wide.  So a lane retires where
    U + RETIRE_MARGIN <= eps (g_small > eps fails) or
    U + RETIRE_MARGIN < 0.5 * (L - RETIRE_MARGIN) (g_small >= 0.5 * g_wide
    fails).  A NaN bound retires nothing.  bisect_lanes treats each lane on
    its own, and a stage restarts a lane from the bracket the last one left:
    a lane that stopped at float granularity stops again at its first step,
    and evaluate reads each lane's own point alone.  So a lane that survives
    every stage ends with the bits JUMP_STEPS uninterrupted steps give it,
    and every jump is found with the same tau and gap.

    Returns (rows, at, gap) of the jumps found, (rows, cols) of the grid
    pairs (cols, cols + 1) that break the strict clause, and the number of
    pairs the strict clause applies to.
    """
    rows, cols = np.nonzero(V[:, 1:] - V[:, :-1] > JUMP_FLOOR)
    jumps = (rows, np.zeros(0), np.zeros(0))
    if rows.size:
        target = 0.5 * (V[rows, cols] + V[rows, cols + 1])
        lo, hi = grid[cols], grid[cols + 1]
        del cols  # one lane array fewer at the bisection's memory peak
        d_small, d_wide = LEFT_PROBES[-1], LEFT_PROBES[0]

        def rise(top: np.ndarray, bottom: np.ndarray, d: float) -> np.ndarray:
            """f(top + d) - f(max(bottom - d, 0)) on the live lanes."""
            out = evaluate(top + d, rows)
            below = bottom - d
            return out - evaluate(np.maximum(below, 0.0, out=below), rows)

        for done in range(0, JUMP_STEPS, RETIRE_STAGE):
            if done:
                upper = rise(hi, lo, d_small) + RETIRE_MARGIN
                keep = ~((upper <= eps)
                         | (upper < 0.5 * (rise(lo, hi, d_wide) - RETIRE_MARGIN)))
                rows = rows[keep]
                target = target[keep]
                lo = lo[keep]
                hi = hi[keep]
            lo, hi = bisect_lanes(lambda mid: evaluate(mid, rows) >= target, lo, hi,
                                  min(RETIRE_STAGE, JUMP_STEPS - done))
        tau = 0.5 * (lo + hi)
        g_small = rise(tau, tau, d_small)
        g_wide = rise(tau, tau, d_wide)
        jumpy = (g_small > eps) & (g_small >= 0.5 * g_wide)
        jumps = (rows[jumpy], tau[jumpy], g_small[jumpy])
    interior = (V > eps) & (V < 1.0 - eps)
    pair_ok = interior[:, :-1] & interior[:, 1:]
    flat = pair_ok & ~(V[:, 1:] > V[:, :-1] + EPS_STRICT)
    return jumps, np.nonzero(flat), int(np.sum(pair_ok))


def _regularity_grid(t_grid: tuple[float, ...]) -> np.ndarray:
    """The budget grid with sub- and super-grid probe points added."""
    return np.asarray(sorted(set([1e-5, 1e-4] + list(t_grid) + [1e4, 1e5])))
