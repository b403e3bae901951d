"""Sequence convergence in a probabilistic modular space.

Two routes that the induced topology makes equivalent:

value criterion        mu_{x_n - x}(t) -> 1 for every scale t > 0
topological criterion  the tail of the sequence enters every ball of the
                       countable local base B(x, 1/k, 1/k)

Limits are not decidable from finite data, so "converges" here means the
gap 1 - mu stays below EPS_CONV on a geometric probe schedule up to
N_MAX.  With that budget the value criterion can only certify scales
where the gap decays fast enough, which is why the default scale grid
for convergence starts at 10 rather than at the evaluation grid's 1e-3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .balls import Ball, strict_mask
from .distfn import (MAX_GRID_COUNT, MAX_GRID_T, FieldError, FieldRecord,
                     check_number, check_numbers)
from .pmspace import PMSpace, PreconditionError, Vector, as_vector

EPS_CONV = 1e-6
N_MAX = 10 ** 6
LOCAL_BASE_DEPTH = 10

# Validation bounds.  Probe indices go through float64 in SequenceSpec.values,
# exact only up to 2**53; a local base of depth 1e4 takes about half a second.
MAX_N_MAX = 2 ** 53
MAX_LOCAL_BASE_DEPTH = 10 ** 4

SEQUENCE_KINDS = ("harmonic", "constant_offset", "alternating", "geometric")

# Default scale grid of the value criterion.
CONVERGENCE_GRID = tuple(float(t) for t in np.geomspace(10.0, 1000.0, 7))


@dataclass(frozen=True, eq=False)
class SequenceSpec:
    """x_n = base + direction * profile(n) with a declared candidate limit.

    harmonic         profile(n) = 1/n
    constant_offset  profile(n) = 1
    alternating      profile(n) = (-1)^n
    geometric        profile(n) = q^n with ratio q in (0, 1)
    """

    kind: str
    base: Vector
    direction: Vector
    ratio: float | None = None
    candidate_limit: Vector | None = None

    def __post_init__(self) -> None:
        if self.kind not in SEQUENCE_KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        base = as_vector(self.base)
        direction = as_vector(self.direction, base.size)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "direction", direction)
        if self.kind == "geometric":
            check_number(self.ratio, "ratio", above=0, below=1)
        elif self.ratio is not None:
            check_number(self.ratio, "ratio")
        limit = self.candidate_limit
        object.__setattr__(self, "candidate_limit",
                           base if limit is None else as_vector(limit, base.size))

    def values(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns, dtype=float)
        if self.kind == "harmonic":
            profile = 1.0 / ns
        elif self.kind == "constant_offset":
            profile = np.ones_like(ns)
        elif self.kind == "alternating":
            profile = np.where(np.asarray(ns, dtype=int) % 2 == 0, 1.0, -1.0)
        else:
            profile = self.ratio ** ns
        return self.base[None, :] + profile[:, None] * self.direction[None, :]


def scale_grid(t_grid: Any) -> np.ndarray:
    """The value criterion's scales: a FieldError naming t_grid unless it is
    a non-empty list of at most MAX_GRID_COUNT numbers in (0, MAX_GRID_T]."""
    grid = np.asarray(check_numbers(t_grid, "t_grid", above=0, at_most=MAX_GRID_T),
                      dtype=float)
    if grid.size > MAX_GRID_COUNT:
        raise FieldError(f"t_grid must hold at most {MAX_GRID_COUNT} numbers")
    return grid


def base_depth(depth: Any) -> int:
    """The local base's depth: a FieldError naming local_base_depth unless it
    is an integer of at most MAX_LOCAL_BASE_DEPTH."""
    return check_number(depth, "local_base_depth", integer=True,
                        at_most=MAX_LOCAL_BASE_DEPTH)


def probe_limit(n_max: Any) -> int:
    """n_max, checked: a FieldError naming it unless it is an integer in [1, MAX_N_MAX]."""
    return check_number(n_max, "n_max", integer=True, at_least=1, at_most=MAX_N_MAX)


def probe_schedule(n_max: int) -> np.ndarray:
    """Geometric index schedule 1, 2, 4, ... capped by and including n_max."""
    probe_limit(n_max)
    ns = [1]
    while ns[-1] * 2 <= n_max:
        ns.append(ns[-1] * 2)
    if ns[-1] != n_max:
        ns.append(n_max)
    return np.asarray(ns, dtype=int)


def settled_from(ns: np.ndarray, ok: np.ndarray) -> int | None:
    """The first probe index ns[i] from which ok holds at every later probe,
    or None when ok fails at the last one."""
    bad = np.flatnonzero(~ok)
    start = int(bad[-1]) + 1 if bad.size else 0
    return int(ns[start]) if start < len(ns) else None


@dataclass
class ConvergenceVerdict(FieldRecord):
    converges: bool
    per_t: list[dict[str, Any]]   # per scale: t, n0 (or None), final gap
    n_used: int


def check_mu_convergence(space: PMSpace, seq: SequenceSpec,
                         t_grid: tuple[float, ...] = CONVERGENCE_GRID,
                         n_max: int = N_MAX) -> ConvergenceVerdict:
    """Value-criterion verdict on the probe schedule.

    For each scale t the verdict records the earliest probe index from
    which every later probe keeps 1 - mu_{x_n - x}(t) below EPS_CONV;
    the sequence converges when every scale has one.
    """
    grid = scale_grid(t_grid)
    ns = probe_schedule(n_max)
    offsets = seq.values(ns) - seq.candidate_limit[None, :]
    gaps = 1.0 - space.mu_matrix(offsets, grid)        # (len(ns), len(grid))

    ok = gaps < EPS_CONV
    per_t = [{"t": float(t), "n0": settled_from(ns, ok[:, j]),
              "final_gap": float(gaps[-1, j])} for j, t in enumerate(grid)]
    return ConvergenceVerdict(converges=all(r["n0"] is not None for r in per_t),
                              per_t=per_t, n_used=int(ns[-1]))


def local_base(space: PMSpace, x: Vector, depth: int = LOCAL_BASE_DEPTH) -> list[Ball]:
    """The countable base {B(x, 1/k, 1/k)} truncated at the given depth."""
    x = as_vector(x, space.dim)
    return [Ball(space, x, 1.0 / k, 1.0 / k) for k in range(2, depth + 1)]


@dataclass
class TopologicalVerdict(FieldRecord):
    converges: bool
    per_ball: list[dict[str, Any]]
    n_used: int


def check_topological_convergence(space: PMSpace, seq: SequenceSpec,
                                  depth: int = LOCAL_BASE_DEPTH,
                                  n_max: int = N_MAX) -> TopologicalVerdict:
    """Tail membership in every ball of the local base of the given depth
    at the candidate limit.

    A depth below 2 leaves the base empty, and a quantifier over no ball
    would report convergence for any sequence: that is a PreconditionError.
    """
    if base_depth(depth) < 2:
        raise PreconditionError(f"local base of depth {depth} is empty, so the "
                                "topological criterion is vacuous")
    ns = probe_schedule(n_max)
    limit = seq.candidate_limit
    # Every ball is centered at the limit, so one sigma of the offsets serves
    # them all, each with the membership rule on it.
    S = space.sigma(limit[None, :] - seq.values(ns))
    per_ball = [{"level": b.level, "scale": b.scale, "n0": settled_from(
                    ns, strict_mask(space.kernel(np.asarray(b.scale), S), b.level))}
                for b in local_base(space, limit, depth)]
    return TopologicalVerdict(converges=all(r["n0"] is not None for r in per_ball),
                              per_ball=per_ball, n_used=int(ns[-1]))
