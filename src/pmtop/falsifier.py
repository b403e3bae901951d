"""Instance generation, structural mutations, and the predicate registry.

Every mutation changes a formula, not a sample: detection is then a
property of the predicate being probed, not of sampling luck.  Each kind
is built to break exactly its target among the four modular axioms:

break_pm1                 floor every mu_x at 0.1 on t >= 0.  Max with a
                          constant commutes with min, so the convexity
                          axiom survives; only the value at 0 breaks.
break_pm2                 deadzone sigma(x) = max(rho(x) - theta, 0).
                          Still convex with sigma(0) = 0, so only the
                          zero-identification axiom breaks: every x with
                          0 < rho(x) <= theta gets mu_x identically 1.
break_pm3                 drift sigma(x) = rho(x) + max(x . n, 0).  The
                          positive-part term is convex, so subadditivity
                          under convex weights survives; symmetry does not.
break_pm4                 bump sigma(x) = rho(x) * (1 + boost) on the
                          shell lo < rho(x) < hi.  A non-monotone radial
                          distortion is required here: for any increasing
                          g, sigma = g(rho) keeps the convexity axiom
                          because rho(ax+by) <= max(rho(x), rho(y)), so
                          squaring or any other monotone reshaping of rho
                          cannot break it.  The shell bump makes interior
                          points of a chord dearer than both endpoints
                          combined, which is exactly a convexity defect.
break_left_continuity     right-continuous step family 1_{t >= rho(x)};
                          defeats the smaller-scale witness at exact
                          boundary pairs.
break_delta2_declaration  declare half the true doubling constant.

The registry runs every check with a three-valued outcome per predicate:
pass, fail, or infeasible (preconditions unmet, e.g. regularity-based
witnesses on a step family).  Predicates never raise; identical inputs
produce byte-identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, Collection

import numpy as np

from . import balls as _balls
from . import convergence as _conv
from . import topology as _topo
from .distfn import CheckReport, SampleBudget, canonical_line, check_rng
from .pmspace import (
    AXIOMS,
    DELTA2_CANDIDATES,
    ClosedStepFrom,
    FlooredMap,
    InfeasibleConstruction,
    PMSpace,
    PPower,
    PreconditionError,
    RationalFrom,
    SigmaFunctional,
    StepFrom,
    VerificationError,
    WeightedAbs,
    _Delta2Scan,
    _kernel_class,
    check_axioms,
    check_beta_homogeneous,
    check_space_regularity,
    sample_vectors,
)
from . import distfn as _distfn

# Each mutation kind: the registry predicate it is built to trip, and the
# base family it is generated on by default.
_MUTATIONS = {
    "break_pm1": ("pm1", "rational_from"),
    "break_pm2": ("pm2", "rational_from"),
    "break_pm3": ("pm3", "rational_from"),
    "break_pm4": ("pm4", "rational_from"),
    "break_left_continuity": ("scale_witness_boundary", "step_from"),
    "break_delta2_declaration": ("delta2_declared", "rational_from"),
}
MUTATION_KINDS = tuple(_MUTATIONS)
MUTATION_TARGETS = {kind: target for kind, (target, _) in _MUTATIONS.items()}
MUTATION_FAMILY = {kind: family for kind, (_, family) in _MUTATIONS.items()}

DEADZONE_THETA = 1.5
DRIFT_WEIGHT = 1.0
BUMP_LO, BUMP_HI, BUMP_BOOST = 0.5, 1.0, 4.0
FLOOR_VALUE = 0.1


# ---------------------------------------------------------------------------
# Mutated sigma functionals.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeadzoneSigma(SigmaFunctional):
    base: SigmaFunctional
    theta: float = DEADZONE_THETA

    def rho(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(self.base.rho(X) - self.theta, 0.0)

    def to_config(self) -> dict[str, Any]:
        return {"kind": "deadzone", "base": self.base.to_config(), "theta": self.theta}


@dataclass(frozen=True)
class HalfspaceDriftSigma(SigmaFunctional):
    base: SigmaFunctional
    normal: tuple[float, ...]
    weight: float = DRIFT_WEIGHT

    def rho(self, X: np.ndarray) -> np.ndarray:
        n = np.asarray(self.normal)
        drift = np.maximum(np.asarray(X) @ n, 0.0)
        return self.base.rho(X) + self.weight * drift

    def to_config(self) -> dict[str, Any]:
        return {"kind": "halfspace_drift", "base": self.base.to_config(),
                "normal": list(self.normal), "weight": self.weight}


@dataclass(frozen=True)
class ShellBumpSigma(SigmaFunctional):
    base: SigmaFunctional
    lo: float = BUMP_LO
    hi: float = BUMP_HI
    boost: float = BUMP_BOOST

    def rho(self, X: np.ndarray) -> np.ndarray:
        r = self.base.rho(X)
        return r * (1.0 + self.boost * ((r > self.lo) & (r < self.hi)))

    def to_config(self) -> dict[str, Any]:
        return {"kind": "shell_bump", "base": self.base.to_config(),
                "lo": self.lo, "hi": self.hi, "boost": self.boost}


# ---------------------------------------------------------------------------
# Instance generation.
# ---------------------------------------------------------------------------


def _true_doubling_constant(rho_cfg: dict[str, Any]) -> float:
    if rho_cfg["kind"] == "p_power":
        return float(2.0 ** rho_cfg["p"])
    return 2.0


def apply_mutation(space: PMSpace, mutation: str, seed: int) -> PMSpace:
    """Graft a structural defect onto a reference instance."""
    if mutation not in MUTATION_KINDS:
        raise ValueError(f"unknown mutation {mutation!r}")
    m = space.modular_map
    if mutation == "break_pm1":
        return replace(space, modular_map=FlooredMap(m, FLOOR_VALUE))
    if mutation == "break_pm2":
        return replace(space, modular_map=type(m)(DeadzoneSigma(m.rho)))
    if mutation == "break_pm3":
        rng = check_rng(seed, "mutation_normal")
        n = rng.standard_normal(space.dim)
        n /= np.linalg.norm(n)
        drift = HalfspaceDriftSigma(m.rho, tuple(float(v) for v in n))
        return replace(space, modular_map=type(m)(drift))
    if mutation == "break_pm4":
        return replace(space, modular_map=type(m)(ShellBumpSigma(m.rho)))
    if mutation == "break_left_continuity":
        if not isinstance(m, StepFrom):
            raise ValueError("left-continuity mutation applies to the step family")
        return replace(space, modular_map=ClosedStepFrom(m.rho))
    # break_delta2_declaration
    true_c = space.declared_c or _true_doubling_constant(m.rho.to_config())
    return replace(space, declared_c=true_c / 2.0)


def generate_instance(seed: int, family: str = "rational_from",
                      mutation: str | None = None) -> PMSpace:
    """Deterministic instance from a seed, optionally mutated.

    Valid instances carry true declarations: the doubling constant is
    2^p for a degree-p modular and the homogeneity exponent 1 is declared
    only for degree-1 modulars.
    """
    if family not in ("rational_from", "step_from"):
        raise ValueError(f"unknown family {family!r}")
    rng = check_rng(seed, "instance")
    dim = int(rng.integers(1, 5))
    if mutation == "break_delta2_declaration":
        rho: SigmaFunctional = PPower(p=2.0)
    elif family == "rational_from" and rng.random() < 0.4:
        rho = PPower(p=float(rng.choice([1.0, 2.0])))
    else:
        weights = tuple(float(w) for w in np.exp(rng.uniform(np.log(0.5), np.log(2.0), dim)))
        rho = WeightedAbs(weights=weights)
    rho_cfg = rho.to_config()
    degree_one = rho_cfg["kind"] == "weighted_abs" or rho_cfg.get("p") == 1.0
    mm = RationalFrom(rho) if family == "rational_from" else StepFrom(rho)
    space = PMSpace(dim=dim, modular_map=mm,
                    declared_c=_true_doubling_constant(rho_cfg),
                    declared_beta=1.0 if degree_one else None)
    if mutation is None:
        return space
    return apply_mutation(space, mutation, seed)


def instance_config(space: PMSpace, mutation: str | None = None,
                    seed: int | None = None) -> dict[str, Any]:
    cfg = space.to_config()
    if mutation is not None:
        cfg["mutation"] = mutation
    if seed is not None:
        cfg["instance_seed"] = seed
    return cfg


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


@dataclass
class PredicateResult:
    outcome: str                 # pass | fail | infeasible
    record: dict[str, Any]

    def to_record(self) -> dict[str, Any]:
        return {"outcome": self.outcome, **self.record}


@dataclass
class FalsifierRun:
    seed: int
    instance: dict[str, Any]
    budget: dict[str, Any]
    results: dict[str, PredicateResult]

    def failures(self) -> list[str]:
        return [k for k, v in self.results.items() if v.outcome == "fail"]

    def to_json(self) -> str:
        results = {k: v.to_record() for k, v in self.results.items()}
        return canonical_line({"seed": self.seed, "instance": self.instance,
                               "budget": self.budget, "results": results})


def _from_report(rep: PredicateResult | CheckReport | _topo.Witness) -> PredicateResult:
    """A builder's outcome: a sampled check or a witness passes when it held."""
    if isinstance(rep, PredicateResult):
        return rep
    return PredicateResult(outcome="pass" if rep.passed else "fail",
                           record=rep.to_record())


def _guard(fn: Callable[[], PredicateResult]) -> PredicateResult:
    """Run one predicate; report instead of crashing.  Only an unmet
    precondition, an infeasible construction or a starved sampler is
    infeasible; any other error, a bare ValueError too, fails it."""
    try:
        return fn()
    except InfeasibleConstruction as exc:
        return PredicateResult(outcome="infeasible", record={"reason": str(exc)})
    except (PreconditionError, VerificationError) as exc:
        return PredicateResult(outcome="infeasible",
                               record={"reason": f"precondition: {exc}"})
    except Exception as exc:  # a predicate must never take the run down
        return PredicateResult(outcome="fail",
                               record={"reason": f"unexpected error: {exc!r}"})


def _rescale_to_sigma(space: PMSpace, v: np.ndarray, target: float) -> np.ndarray:
    """Scale v so that sigma(scale * v) is roughly the target: double the
    scale until it reaches the target, then bisect down to its infimum.
    Raises InfeasibleConstruction when 60 doublings leave it short."""
    hi, reached = 1.0, space.sigma1(v)
    for _ in range(60):
        if reached >= target:
            break
        hi *= 2.0
        reached = space.sigma1(hi * v)
    if not reached >= target:
        raise InfeasibleConstruction(
            f"sigma of the drawn direction reached {reached} after 60 doublings, "
            f"short of the target {target}")
    return _topo._bisect_infimum(lambda s: space.sigma1(s * v) >= target, hi) * v


def _scale_witness_result(space: PMSpace, xs: np.ndarray, ys: np.ndarray,
                          sigmas: np.ndarray, scales: np.ndarray, levels: np.ndarray,
                          counts: dict[str, int]) -> PredicateResult:
    """Verdict of both scale-witness predicates: trial i (member ys[i] of the
    ball around xs[i], offset sigma sigmas[i]) fails with its witness's reason
    or a t_star outside (0, scale); the record adds the first 20 and the total."""
    t_star, reasons = _balls.smaller_scale_witnesses(space, sigmas, scales, levels)
    violations = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        if reasons[i] is not None:
            violations.append({"x": x.tolist(), "y": y.tolist(), "reason": reasons[i]})
        elif not (0.0 < t_star[i] < scales[i]):
            violations.append({"x": x.tolist(), "y": y.tolist(),
                               "t_star": float(t_star[i])})
    return PredicateResult(outcome="fail" if violations else "pass",
                           record={**counts, "violations": violations[:20],
                                   "violation_count": len(violations)})


def _boundary_pairs(space: PMSpace, budget: SampleBudget, count: int) -> PredicateResult:
    """Scale witnesses at exact-boundary pairs.

    Each trial tests the origin against a ball centered at a random u
    whose scale equals sigma(u) bit for bit (centering at u keeps the
    probed offset exactly u; a generic x, x - u pair would reintroduce
    rounding).  A left-continuous family rejects the pair as a non-member
    (strict membership fails at the boundary) or yields a witness; a
    right-continuous jump accepts the pair and then has no interior
    feasible scale, which is the failure this predicate looks for.

    The trials draw every u, then every level, as arrays.  A trial with
    sigma(u) <= 1e-9 is ineligible and its level goes unused, so no draw
    depends on the data.
    """
    rng = check_rng(budget.rng_seed, "scale_witness_boundary")
    X = rng.standard_normal((count, space.dim))
    levels = rng.uniform(0.6, 0.9, count)
    sigmas = space.sigma(X)
    eligible = sigmas > 1e-9
    X, sigmas, levels = X[eligible], sigmas[eligible], levels[eligible]
    # The ball's scale is the offset's sigma: sigma(x - 0) is sigma(x).
    inside = _balls.strict_mask(space.kernel(sigmas, sigmas), levels)
    xs, sigmas, levels = X[inside], sigmas[inside], levels[inside]
    return _scale_witness_result(space, xs, np.zeros_like(xs), sigmas, sigmas, levels,
                                 {"eligible": len(xs), "trials": count})


def _random_scale_witnesses(space: PMSpace, budget: SampleBudget,
                            count: int) -> PredicateResult:
    """Scale witnesses for random balls, each with one sampled member.

    The trials draw every center, then every level, then every scale, as
    arrays, and then one member per ball from the same stream with one
    balls.sample_member_lanes call.  A starved trial is left out; with
    every trial starved there is no pair to test, and that is infeasible.
    """
    rng = check_rng(budget.rng_seed, "scale_witness_random")
    X = rng.standard_normal((count, space.dim))
    levels = rng.uniform(0.2, 0.9, count)
    scales = np.exp(rng.uniform(np.log(0.2), np.log(5.0), count))
    rows, ok = _balls.sample_member_lanes(space, X, levels, scales, rng, 1,
                                          band=budget.epsilon)
    xs, ys, scales, levels = X[ok], rows[ok, 0], scales[ok], levels[ok]
    if not len(xs):
        raise InfeasibleConstruction(f"the member sampler starved on all {count} random balls")
    return _scale_witness_result(space, xs, ys, space.sigma(xs - ys), scales, levels,
                                 {"pairs": len(xs)})


def _feasible_refinement_input(space: PMSpace, rng: np.random.Generator, eps: float,
                               reason: str = "no feasible refinement input found",
                               ) -> tuple[_balls.Ball, np.ndarray]:
    """Random (outer, z) that refine_ball takes at a budget's epsilon eps, by
    its own test (topology.chain_feasible).  Raises PreconditionError, through
    chain_feasible, without a declared doubling constant and
    InfeasibleConstruction with reason when the search finds no input.  An
    outer ball's 50 z are tested as one draw; a hit at row k rewinds the
    stream and redraws k + 1 rows, as 50 single draws stopping at the hit.
    An infeasible search so takes about 14 ms, against 0.3-0.7 s one z at a
    time."""
    for _ in range(200):
        x = rng.standard_normal(space.dim)
        level = float(rng.uniform(0.3, 0.7))
        scale = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
        outer = _balls.Ball(space, x, level, scale)
        state = rng.bit_generator.state
        ok = _topo.chain_feasible(space, outer, x + 0.3 * rng.standard_normal((50, space.dim)), eps)
        if ok.any():
            rng.bit_generator.state = state
            return outer, x + 0.3 * rng.standard_normal((np.argmax(ok) + 1, space.dim))[-1]
    raise InfeasibleConstruction(reason)


@dataclass
class Inputs:
    """What the selected predicates (names) read.  Axiom and declaration
    checks run at budget, ball checks and witnesses at small, witnesses with
    witness_samples evidence samples.  A value in op overrides the default
    of its name: a point's is still drawn from rng, so the stream stays put,
    and a ball's is written in BALLS.  The axiom report is computed once, on
    first use, for the selected axioms, and one delta2 scan serves both
    doubling predicates."""

    space: PMSpace
    budget: SampleBudget
    small: SampleBudget
    rng: np.random.Generator
    witness_samples: int
    names: Collection[str]
    op: dict[str, Any] = field(default_factory=dict)

    def point(self, key: str) -> np.ndarray:
        return self.op.get(key, self.rng.standard_normal(self.space.dim))

    def ball(self, name: str) -> dict[str, float]:
        """Entry name's ball parameters, by the names of BALLS[name]."""
        return {key: self.op.get(key, default) for key, default in BALLS[name].items()}

    def centred_ball(self, name: str) -> _balls.Ball:
        return _balls.Ball(self.space, self.space.zero(), **self.ball(name))

    @cached_property
    def axioms(self) -> CheckReport:
        return check_axioms(self.space, self.budget,
                            tuple(name for name in AXIOMS if name in self.names))

    @cached_property
    def delta2(self) -> _Delta2Scan:
        return _Delta2Scan(self.space, self.budget)


def _membership(inp: Inputs) -> PredicateResult:
    """The delta_membership entry: check_delta_memberships on the origin and
    up to 50 sampled points, recording the first three violations of each of
    the first ten failing points."""
    space, budget = inp.space, inp.budget
    X = sample_vectors(check_rng(budget.rng_seed, "membership_pts"),
                       min(budget.n_vectors, 50), space.dim)
    points = np.vstack([np.zeros((1, space.dim)), X])
    S = space.sigma(points)[:, None]
    rows = _distfn.check_delta_memberships(lambda t: space.kernel(t[None, :], S), budget)
    bad = [{"x": row.tolist(), "violations": violations[:3]}
           for row, violations in zip(points, rows) if violations]
    return PredicateResult(outcome="fail" if bad else "pass",
                           record={"points": len(points), "violations": bad[:10],
                                   "violation_count": len(bad)})


def _delta2_estimate(inp: Inputs) -> PredicateResult:
    # An empty candidates list asks for the default candidates.
    found = inp.delta2.smallest(inp.op.get("candidates") or DELTA2_CANDIDATES)
    return PredicateResult(outcome="fail" if found is None else "pass",
                           record={"estimated_c": found})


def _refine(inp: Inputs) -> _topo.RefinementWitness:
    # Unlike a drawn default, the input search is skipped given an outer ball (z: its center).
    outer, z = ((inp.op["outer"], inp.op.get("z", inp.op["outer"].center)) if "outer" in inp.op
                else _feasible_refinement_input(inp.space, inp.rng, inp.small.epsilon))
    return _topo.refine_ball(inp.space, outer, z, inp.small, samples=inp.witness_samples)


def _local_base(inp: Inputs) -> PredicateResult:
    space, rng = inp.space, inp.rng
    x = rng.standard_normal(space.dim)
    outer = _balls.Ball(space, x, float(rng.uniform(0.3, 0.9)),
                        float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))))
    n = _topo.local_base_containment(space, x, outer, inp.small,
                                      samples=inp.witness_samples)
    return PredicateResult(outcome="pass", record={"n": n})


def _intersection(inp: Inputs) -> _topo.Witness:
    space, rng, eps = inp.space, inp.rng, inp.small.epsilon
    reason = "no feasible intersection input"
    outer, z = _feasible_refinement_input(space, rng, eps, reason=reason)
    other = _balls.Ball(space, z + 0.05 * rng.standard_normal(space.dim),
                        min(outer.level * 1.2, 0.9), outer.scale * 1.3)
    if not _topo.chain_feasible(space, other, z[None, :], eps)[0]:
        raise InfeasibleConstruction(reason)
    return _topo.basis_intersection_witness(space, outer, other, z, inp.small,
                                            samples=inp.witness_samples)


def _convergence_equiv(inp: Inputs) -> PredicateResult:
    """Both convergence criteria on each case: the operation's sequence, or a
    drawn harmonic and constant-offset pair expected to converge and not to.
    A case passes when the criteria agree and match its expected verdict.

    The value criterion's default scales go by kernel kind.  A step kernel
    sees an offset only at t below its sigma, so its scales start at 0.1.
    A rational kernel settles a harmonic tail within N_MAX terms only at t
    above about its sigma: the drawn cases, rescaled to sigma 0.3, take
    scales from 0.5, and a given sequence, whose sigma may be any, takes
    CONVERGENCE_GRID, from 10."""
    space, op = inp.space, inp.op
    v = inp.rng.standard_normal(space.dim)
    if "sequence" in op:
        cases = [(op["sequence"], None)]
        rational_grid = _conv.CONVERGENCE_GRID
    else:
        v = _rescale_to_sigma(space, v if np.any(v != 0.0) else np.ones(space.dim), 0.3)
        cases = [(_conv.SequenceSpec(kind=kind, base=space.zero(), direction=v), expect)
                 for kind, expect in (("harmonic", True), ("constant_offset", False))]
        rational_grid = (0.5, 5.0, 50.0, 500.0)
    step = issubclass(_kernel_class(space), (StepFrom, ClosedStepFrom))
    grid = op.get("t_grid", (0.1, 1.0, 10.0, 100.0) if step else rational_grid)
    n_max = op.get("n_max", _conv.N_MAX)
    depth = op.get("local_base_depth", _conv.LOCAL_BASE_DEPTH)
    rows, ok = [], True
    for seq, expect in cases:
        mu_v = _conv.check_mu_convergence(space, seq, t_grid=grid, n_max=n_max)
        topo_v = _conv.check_topological_convergence(space, seq, depth=depth, n_max=n_max)
        ok &= mu_v.converges == topo_v.converges and expect in (None, mu_v.converges)
        rows.append({"kind": seq.kind, "expected": expect, "mu": mu_v.to_record(),
                     "topological": topo_v.to_record()})
    return PredicateResult(outcome="pass" if ok else "fail", record={"cases": rows})


# The default balls of the entries that read one (Inputs.ball), keyed by their checks'
# parameters (scaling_identity's t by scale2); a continuity witness's is its target.
BALLS: dict[str, dict[str, float]] = {
    **{name: {"level": 0.5, "scale": 1.0} for name in (
        "translate_identity", "balanced", "convex", "addition_continuity",
        "scalar_continuity")},
    "monotone_in_scale": {"level": 0.5, "scale": 0.7, "scale2": 1.9},
    "monotone_in_level": {"level": 0.3, "level2": 0.6, "scale": 1.3},
    "scaling_identity": {"level": 0.5, "scale2": 1.7},
}

# The registry: (name, the declaration it needs, builder).  The order is the
# report contract: builders draw from the inputs' stream in this order, and
# every selection reports in it.  A parameter is the operation's value if
# given, else the default written here or in BALLS.  Builders look module
# globals up when they run, so a rebinding (a tracer, a test double) is seen.
PREDICATES: tuple[tuple[str, str | None, Callable[[Inputs], Any]], ...] = (
    *((name, None, lambda inp, name=name: inp.axioms.parts[name]) for name in AXIOMS),
    ("delta_membership", None, _membership),
    ("delta2_declared", "declared_c", lambda inp: inp.delta2.declared()),
    ("delta2_estimate", None, _delta2_estimate),
    ("beta_declared", "declared_beta",
     lambda inp: check_beta_homogeneous(inp.space, inp.space.declared_beta, inp.budget)),
    ("regularity", None, lambda inp: check_space_regularity(inp.space, inp.budget)),
    ("translate_identity", None, lambda inp: _balls.translate_identity(
        inp.space, inp.point("x"), budget=inp.small, **inp.ball("translate_identity"))),
    ("monotone_in_scale", None, lambda inp: _balls.monotone_in_scale(
        inp.space, budget=inp.small, **inp.ball("monotone_in_scale"))),
    ("monotone_in_level", None, lambda inp: _balls.monotone_in_level(
        inp.space, budget=inp.small, **inp.ball("monotone_in_level"))),
    ("scaling_identity", "declared_beta", lambda inp: _balls.scaling_identity(
        inp.space, inp.space.declared_beta, inp.ball("scaling_identity")["level"],
        inp.ball("scaling_identity")["scale2"], inp.small)),
    ("balanced", "declared_beta",
     lambda inp: _balls.is_balanced_sampled(inp.centred_ball("balanced"), inp.small)),
    ("convex", "declared_beta",
     lambda inp: _balls.is_convex_sampled(inp.centred_ball("convex"), inp.small)),
    ("scale_witness_random", None,
     lambda inp: _random_scale_witnesses(inp.space, inp.budget, 100)),
    ("scale_witness_boundary", None,
     lambda inp: _boundary_pairs(inp.space, inp.budget, 100)),
    ("refine_ball", "declared_c", _refine),
    ("separation", "declared_c", lambda inp: _topo.separation_witness(
        inp.space, inp.point("x"), inp.point("y"), inp.small,
        samples=inp.witness_samples)),
    ("local_base", None, _local_base),
    ("basis_intersection", "declared_c", _intersection),
    ("homogeneous_separation", "declared_beta",
     lambda inp: _topo.homogeneous_separation_witness(inp.space, inp.point("x"), inp.small,
                                                      samples=inp.witness_samples)),
    ("addition_continuity", "declared_beta", lambda inp: _topo.addition_continuity_witness(
        inp.space, inp.op.get("target", inp.centred_ball("addition_continuity")),
        inp.small, samples=inp.witness_samples)),
    ("scalar_continuity", "declared_beta", lambda inp: _topo.scalar_continuity_witness(
        inp.space, inp.op.get("target", inp.centred_ball("scalar_continuity")),
        inp.op.get("scalar", float(inp.rng.uniform(-2.0, 2.0))), inp.small,
        samples=inp.witness_samples)),
    ("convergence_equiv", None, _convergence_equiv),
)
PREDICATE_NAMES = tuple(name for name, _, _ in PREDICATES)
# Probes, not requirements: a valid space may lack the property, so the
# registry files the check's verdict as the finding property_holds, with
# outcome pass.  A selection reports the check's own verdict.
PROBES = frozenset({"regularity"})

_UNDECLARED = {"declared_c": "no declared doubling constant",
               "declared_beta": "no declared exponent"}


def run_predicates(inp: Inputs) -> dict[str, PredicateResult]:
    """The selected predicates' outcomes, in table order: one whose
    declaration the space lacks is infeasible, and the guard runs the rest."""
    results: dict[str, PredicateResult] = {}
    for name, needs, build in PREDICATES:
        if name not in inp.names:
            continue
        if needs is not None and getattr(inp.space, needs) is None:
            results[name] = PredicateResult(outcome="infeasible",
                                            record={"reason": _UNDECLARED[needs]})
        else:
            results[name] = _guard(lambda: _from_report(build(inp)))
    return results


def run_registry(space: PMSpace, budget: SampleBudget,
                 predicates: list[str] | None = None,
                 instance: dict[str, Any] | None = None) -> FalsifierRun:
    """Execute the predicate registry over one instance.

    Auxiliary predicates cap both sample counts at 400 and witnesses take
    50 evidence samples, so a registry pass stays desk-scale; axiom checks
    run at the full budget, and default points come from the
    registry_inputs stream.  A probe's report is filed as outcome pass, its
    verdict as property_holds.  A predicates subset restricts execution (used
    for detection experiments over many seeds); a name outside PREDICATES
    is a FieldError naming predicates.
    """
    unknown = [name for name in predicates or [] if name not in PREDICATE_NAMES]
    if unknown:
        raise _distfn.FieldError(f"predicates holds unknown names {unknown}")
    small = replace(budget, n_vectors=min(budget.n_vectors, 400),
                    n_scalar_pairs=min(budget.n_scalar_pairs, 400))
    inp = Inputs(space, budget, small, check_rng(budget.rng_seed, "registry_inputs"), 50,
                 PREDICATE_NAMES if predicates is None else predicates)
    results = run_predicates(inp)
    for name in PROBES & results.keys():
        record = dict(results[name].record)
        if record.pop("verdict", None) is not None:  # the check ran, not the guard
            results[name] = PredicateResult(outcome="pass", record={
                "property_holds": results[name].outcome == "pass", **record})
    return FalsifierRun(seed=budget.rng_seed,
                        instance=instance or space.to_config(),
                        budget=budget.to_config(), results=results)


# ---------------------------------------------------------------------------
# Experiments used by the acceptance harness.
# ---------------------------------------------------------------------------


def detection_rate(mutation: str, n_seeds: int, budget: SampleBudget) -> int:
    """Seeds (0..n_seeds-1) on which the mutation's target predicate fails."""
    target = MUTATION_TARGETS[mutation]
    family = MUTATION_FAMILY[mutation]
    detected = 0
    for seed in range(n_seeds):
        inst = generate_instance(seed, family, mutation)
        run = run_registry(inst, replace(budget, rng_seed=seed),
                           predicates=[target],
                           instance=instance_config(inst, mutation, seed))
        if run.results[target].outcome == "fail":
            detected += 1
    return detected


def false_alarms(n_seeds: int, budget: SampleBudget) -> list[tuple[int, str]]:
    """(seed, predicate) pairs where a valid instance failed anything."""
    alarms: list[tuple[int, str]] = []
    for seed in range(n_seeds):
        family = "rational_from" if seed % 2 == 0 else "step_from"
        inst = generate_instance(seed, family, None)
        run = run_registry(inst, replace(budget, rng_seed=seed),
                           instance=instance_config(inst, None, seed))
        alarms.extend((seed, name) for name in run.failures())
    return alarms
