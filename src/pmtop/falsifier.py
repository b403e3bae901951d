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

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable

import numpy as np

from . import balls as _balls
from . import convergence as _conv
from . import topology as _topo
from .distfn import EPS_STRICT, CheckReport, SampleBudget, check_rng
from .pmspace import (
    ClosedStepFrom,
    FlooredMap,
    InfeasibleConstruction,
    PMSpace,
    PPower,
    RationalFrom,
    SigmaFunctional,
    StepFrom,
    VerificationError,
    WeightedAbs,
    check_axioms,
    check_beta_homogeneous,
    check_delta2_declared,
    check_space_regularity,
    find_delta2_constant,
    mu,
    sample_vectors,
)
from . import distfn as _distfn

MUTATION_KINDS = (
    "break_pm1",
    "break_pm2",
    "break_pm3",
    "break_pm4",
    "break_left_continuity",
    "break_delta2_declaration",
)

# Which registry predicate a mutation is built to trip.
MUTATION_TARGETS = {
    "break_pm1": "pm1",
    "break_pm2": "pm2",
    "break_pm3": "pm3",
    "break_pm4": "pm4",
    "break_left_continuity": "scale_witness_boundary",
    "break_delta2_declaration": "delta2_declared",
}

# Base family each mutation is generated on by default.
MUTATION_FAMILY = {
    "break_pm1": "rational_from",
    "break_pm2": "rational_from",
    "break_pm3": "rational_from",
    "break_pm4": "rational_from",
    "break_left_continuity": "step_from",
    "break_delta2_declaration": "rational_from",
}

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
        payload = {"seed": self.seed, "instance": self.instance,
                   "budget": self.budget,
                   "results": {k: v.to_record() for k, v in sorted(self.results.items())}}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _from_report(rep: CheckReport) -> PredicateResult:
    return PredicateResult(outcome="pass" if rep.passed else "fail",
                           record=rep.to_record())


def _guard(fn: Callable[[], PredicateResult]) -> PredicateResult:
    """Run one predicate; report instead of crashing."""
    try:
        return fn()
    except InfeasibleConstruction as exc:
        return PredicateResult(outcome="infeasible", record={"reason": str(exc)})
    except (VerificationError, ValueError) as exc:
        return PredicateResult(outcome="infeasible",
                               record={"reason": f"precondition: {exc}"})
    except Exception as exc:  # a predicate must never take the run down
        return PredicateResult(outcome="fail",
                               record={"reason": f"unexpected error: {exc!r}"})


def _kernel_kind(space: PMSpace) -> str:
    m = space.modular_map
    if isinstance(m, FlooredMap):
        m = m.base
    return "step" if isinstance(m, (StepFrom, ClosedStepFrom)) else "rational"


def _rescale_to_sigma(space: PMSpace, v: np.ndarray, target: float) -> np.ndarray:
    """Scale v so that sigma(scale * v) is roughly the target: double the
    scale until it reaches the target, then bisect down to its infimum."""
    hi = 1.0
    for _ in range(60):
        if space.sigma1(hi * v) >= target:
            break
        hi *= 2.0
    return _topo._bisect_infimum(lambda s: space.sigma1(s * v) >= target, hi) * v


def _boundary_pairs(space: PMSpace, budget: SampleBudget, count: int) -> PredicateResult:
    """Scale witnesses at exact-boundary pairs.

    Each trial tests the origin against a ball centered at a random u
    whose scale equals sigma(u) bit for bit (centering at u keeps the
    probed offset exactly u; a generic x, x - u pair would reintroduce
    rounding).  A left-continuous family rejects the pair as a non-member
    (strict membership fails at the boundary) or yields a witness; a
    right-continuous jump accepts the pair and then has no interior
    feasible scale, which is the failure this predicate looks for.

    A trial draws u, then its level only when sigma(u) > 1e-9.  The trials
    are drawn ahead and tested as one batch; a trial that should have
    skipped its level draw rewinds the stream to just after its u, and the
    trials after it are drawn again.
    """
    rng = check_rng(budget.rng_seed, "scale_witness_boundary")

    def draw_x() -> np.ndarray:
        return rng.standard_normal(space.dim)

    def draw_level() -> float:
        return float(rng.uniform(0.6, 0.9))

    y = np.zeros(space.dim)
    xs, sigmas, levels = [], [], []
    done = 0
    while done < count:
        state = rng.bit_generator.state
        draws = [(draw_x(), draw_level()) for _ in range(done, count)]
        X = np.asarray([x for x, _ in draws])
        lv = np.asarray([level for _, level in draws])
        S = space.sigma(X)
        k = next(iter(np.flatnonzero(~(S > 1e-9))), len(draws))
        # The ball's scale is the offset's sigma: sigma(x - 0) is sigma(x).
        inside = space.kernel(S[:k], S[:k]) > (1.0 - lv[:k]) + EPS_STRICT
        xs.extend(X[:k][inside])
        sigmas.extend(S[:k][inside])
        levels.extend(lv[:k][inside])
        if k == len(draws):
            break
        rng.bit_generator.state = state
        for _ in range(k):
            draw_x()
            draw_level()
        draw_x()
        done += k + 1
    t_star, reasons = _balls.smaller_scale_witnesses(space, sigmas, sigmas, levels)
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


def _random_scale_witnesses(space: PMSpace, budget: SampleBudget,
                            count: int) -> PredicateResult:
    """Scale witnesses for random balls, each with one sampled member.

    A trial draws its center, level and scale, then its member through
    sample_members.  The trials are drawn ahead and sampled as one batch
    of lanes (balls.sample_member_lanes); a lane whose first candidate
    batch keeps nothing rewinds the stream to just before its probe, the
    scalar sampler finishes that trial, and the trials after it are drawn
    again.
    """
    rng = check_rng(budget.rng_seed, "scale_witness_random")

    def ball_draws() -> tuple[np.ndarray, float, float]:
        x = rng.standard_normal(space.dim)
        level = float(rng.uniform(0.2, 0.9))
        scale = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        return x, level, scale

    xs, ys, scales, levels = [], [], [], []
    done = 0
    while done < count:
        state = rng.bit_generator.state
        draws = [(*ball_draws(), *_balls.member_draws(rng, space.dim))
                 for _ in range(done, count)]
        X, lv, sc, probes, first = (np.asarray(v) for v in zip(*draws))
        rows, hit = _balls.sample_member_lanes(space, X, lv, sc, probes, first,
                                               band=budget.epsilon)
        k = next(iter(np.flatnonzero(~hit)), len(draws))
        xs.extend(X[:k])
        ys.extend(rows[:k])
        scales.extend(sc[:k])
        levels.extend(lv[:k])
        if k == len(draws):
            break
        rng.bit_generator.state = state
        for _ in range(k):
            ball_draws()
            _balls.member_draws(rng, space.dim)
        x, level, scale = ball_draws()
        try:
            y = _balls.sample_members(_balls.Ball(space, x, level, scale), rng, 1,
                                      band=budget.epsilon)[0]
        except VerificationError:
            pass
        else:
            xs.append(x)
            ys.append(y)
            scales.append(scale)
            levels.append(level)
        done += k + 1
    X = np.reshape(xs, (-1, space.dim))
    sigmas = space.sigma(X - np.reshape(ys, (-1, space.dim)))
    scales, levels = np.asarray(scales, dtype=float), np.asarray(levels, dtype=float)
    t_star, reasons = _balls.smaller_scale_witnesses(space, sigmas, scales, levels)
    held = space.kernel(t_star, sigmas) > 1.0 - levels
    violations = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        if reasons[i] is not None:
            violations.append({"x": x.tolist(), "y": y.tolist(), "reason": reasons[i]})
        elif not (0.0 < t_star[i] < scales[i] and held[i]):
            violations.append({"x": x.tolist(), "y": y.tolist(),
                               "t_star": float(t_star[i])})
    rec = {"pairs": len(xs), "violations": violations[:20],
           "violation_count": len(violations)}
    return PredicateResult(outcome="fail" if violations else "pass", record=rec)


def _feasible_refinement_input(space: PMSpace, rng: np.random.Generator,
                               margin: float = 1e-6,
                               ) -> tuple[_balls.Ball, np.ndarray] | None:
    """Random (outer, z) satisfying the doubling-chain feasibility
    mu_(x-z)(t/c) > 1 - alpha with a safety margin.  Raises ValueError when
    the space declares no doubling constant."""
    c = _topo._require_c(space)
    for _ in range(200):
        x = rng.standard_normal(space.dim)
        level = float(rng.uniform(0.3, 0.7))
        scale = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
        outer = _balls.Ball(space, x, level, scale)
        for _ in range(50):
            z = x + 0.3 * rng.standard_normal(space.dim)
            anchor = float(space.kernel(np.asarray(scale / c),
                                        space.sigma1(x - z)))
            if _balls.contains(outer, z) and anchor > 1.0 - level + margin:
                return outer, z
    return None


def _witness_predicate(witness: Any) -> PredicateResult:
    return PredicateResult(outcome="pass" if witness.evidence.passed else "fail",
                           record=witness.to_record())


@dataclass
class _Inputs:
    """What the registry's builders share: small caps both sample counts at
    400, rng is the registry_inputs stream, and the axiom report is computed
    once, on first use."""

    space: PMSpace
    budget: SampleBudget
    small: SampleBudget
    rng: np.random.Generator

    @cached_property
    def axioms(self) -> CheckReport:
        return check_axioms(self.space, self.budget)


def _unit_ball(space: PMSpace) -> _balls.Ball:
    return _balls.Ball(space, space.zero(), 0.5, 1.0)


def _membership(inp: _Inputs) -> PredicateResult:
    space, budget = inp.space, inp.budget
    X = sample_vectors(check_rng(budget.rng_seed, "membership_pts"),
                       min(budget.n_vectors, 50), space.dim)
    points = np.vstack([np.zeros((1, space.dim)), X])
    bad: list[dict[str, Any]] = []
    for row in points:
        rep = _distfn.check_delta_membership(mu(space, row), budget)
        if not rep.passed:
            bad.append({"x": row.tolist(), "violations": rep.violations[:3]})
    return PredicateResult(outcome="fail" if bad else "pass",
                           record={"points": len(points), "violations": bad[:10],
                                   "violation_count": len(bad)})


def _delta2_estimate(inp: _Inputs) -> PredicateResult:
    found = find_delta2_constant(inp.space, replace(
        inp.budget, n_vectors=min(inp.budget.n_vectors, 2000)))
    return PredicateResult(outcome="pass", record={"estimated_c": found})


def _regularity(inp: _Inputs) -> PredicateResult:
    # A probe, not a requirement: valid spaces may lack the property, so
    # the outcome stays "pass" and the finding is data.
    rep = check_space_regularity(inp.space, inp.budget, max_points=64)
    rec = rep.to_record()
    rec.pop("verdict", None)
    return PredicateResult(outcome="pass", record={"property_holds": rep.passed, **rec})


def _refine(inp: _Inputs) -> PredicateResult:
    got = _feasible_refinement_input(inp.space, inp.rng)
    if got is None:
        return PredicateResult(outcome="infeasible",
                               record={"reason": "no feasible refinement input found"})
    outer, z = got
    return _witness_predicate(_topo.refine_ball(inp.space, outer, z, inp.small,
                                                samples=50))


def _separation(inp: _Inputs) -> PredicateResult:
    x = inp.rng.standard_normal(inp.space.dim)
    y = inp.rng.standard_normal(inp.space.dim)
    return _witness_predicate(_topo.separation_witness(inp.space, x, y, inp.small,
                                                       samples=50))


def _local_base(inp: _Inputs) -> PredicateResult:
    space, rng = inp.space, inp.rng
    x = rng.standard_normal(space.dim)
    outer = _balls.Ball(space, x, float(rng.uniform(0.3, 0.9)),
                        float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))))
    n = _topo.local_base_containment(space, x, outer, inp.small, samples=50)
    return PredicateResult(outcome="pass", record={"n": n})


def _intersection(inp: _Inputs) -> PredicateResult:
    space, rng = inp.space, inp.rng
    infeasible = PredicateResult(outcome="infeasible",
                                 record={"reason": "no feasible intersection input"})
    got = _feasible_refinement_input(space, rng)
    if got is None:
        return infeasible
    outer, z = got
    other = _balls.Ball(space, z + 0.05 * rng.standard_normal(space.dim),
                        min(outer.level * 1.2, 0.9), outer.scale * 1.3)
    anchor = float(space.kernel(np.asarray(other.scale / space.declared_c),
                                space.sigma1(other.center - z)))
    if not (_balls.contains(other, z) and anchor > 1.0 - other.level + 1e-6):
        return infeasible
    return _witness_predicate(_topo.basis_intersection_witness(
        space, outer, other, z, inp.small, samples=50))


def _convergence_equiv(inp: _Inputs) -> PredicateResult:
    space = inp.space
    v = inp.rng.standard_normal(space.dim)
    if not np.any(v != 0.0):
        v = np.ones(space.dim)
    v = _rescale_to_sigma(space, v, 0.3)
    grid = ((0.1, 1.0, 10.0, 100.0) if _kernel_kind(space) == "step"
            else (0.5, 5.0, 50.0, 500.0))
    rows = []
    ok = True
    for kind, expect in (("harmonic", True), ("constant_offset", False)):
        seq = _conv.SequenceSpec(kind=kind, base=space.zero(), direction=v)
        mu_v = _conv.check_mu_convergence(space, seq, t_grid=grid)
        topo_v = _conv.check_topological_convergence(space, seq)
        ok &= mu_v.converges == topo_v.converges == expect
        rows.append({"kind": kind, "mu": mu_v.converges,
                     "topological": topo_v.converges, "expected": expect})
    return PredicateResult(outcome="pass" if ok else "fail", record={"cases": rows})


# The registry: (name, the declaration it needs, builder).  The order is the
# report contract: builders draw from the shared registry_inputs stream in
# this order, and the CLI emits falsify records in it.  Builders look module
# globals up when they run, so a rebinding (a tracer, a test double) is seen.
PREDICATES: tuple[tuple[str, str | None, Callable[[_Inputs], PredicateResult]], ...] = (
    ("pm1", None, lambda inp: _from_report(inp.axioms.parts["pm1"])),
    ("pm2", None, lambda inp: _from_report(inp.axioms.parts["pm2"])),
    ("pm3", None, lambda inp: _from_report(inp.axioms.parts["pm3"])),
    ("pm4", None, lambda inp: _from_report(inp.axioms.parts["pm4"])),
    ("delta_membership", None, _membership),
    ("delta2_declared", "declared_c", lambda inp: _from_report(
        check_delta2_declared(inp.space, inp.budget))),
    ("delta2_estimate", None, _delta2_estimate),
    ("beta_declared", "declared_beta", lambda inp: _from_report(
        check_beta_homogeneous(inp.space, inp.space.declared_beta, inp.budget))),
    ("regularity", None, _regularity),
    ("translate_identity", None, lambda inp: _from_report(_balls.translate_identity(
        inp.space, inp.rng.standard_normal(inp.space.dim), 0.5, 1.0, inp.small))),
    ("monotone_in_scale", None, lambda inp: _from_report(
        _balls.monotone_in_scale(inp.space, 0.5, 0.7, 1.9, inp.small))),
    ("monotone_in_level", None, lambda inp: _from_report(
        _balls.monotone_in_level(inp.space, 0.3, 0.6, 1.3, inp.small))),
    ("scaling_identity", "declared_beta", lambda inp: _from_report(
        _balls.scaling_identity(inp.space, inp.space.declared_beta, 0.5, 1.7,
                                inp.small))),
    ("balanced", "declared_beta", lambda inp: _from_report(
        _balls.is_balanced_sampled(_unit_ball(inp.space), inp.small))),
    ("convex", "declared_beta", lambda inp: _from_report(
        _balls.is_convex_sampled(_unit_ball(inp.space), inp.small))),
    ("scale_witness_random", None,
     lambda inp: _random_scale_witnesses(inp.space, inp.budget, 100)),
    ("scale_witness_boundary", None,
     lambda inp: _boundary_pairs(inp.space, inp.budget, 100)),
    ("refine_ball", "declared_c", _refine),
    ("separation", "declared_c", _separation),
    ("local_base", None, _local_base),
    ("basis_intersection", "declared_c", _intersection),
    ("homogeneous_separation", "declared_beta", lambda inp: _witness_predicate(
        _topo.homogeneous_separation_witness(
            inp.space, inp.rng.standard_normal(inp.space.dim), inp.small, samples=50))),
    ("addition_continuity", "declared_beta", lambda inp: _witness_predicate(
        _topo.addition_continuity_witness(inp.space, _unit_ball(inp.space), inp.small,
                                          samples=50))),
    ("scalar_continuity", "declared_beta", lambda inp: _witness_predicate(
        _topo.scalar_continuity_witness(inp.space, _unit_ball(inp.space),
                                        float(inp.rng.uniform(-2.0, 2.0)), inp.small,
                                        samples=50))),
    ("convergence_equiv", None, _convergence_equiv),
)
PREDICATE_NAMES = tuple(name for name, _, _ in PREDICATES)

_UNDECLARED = {"declared_c": "no declared doubling constant",
               "declared_beta": "no declared exponent"}


def run_registry(space: PMSpace, budget: SampleBudget,
                 predicates: list[str] | None = None,
                 instance: dict[str, Any] | None = None) -> FalsifierRun:
    """Execute the predicate registry over one instance.

    Sample counts for the auxiliary predicates are derived from the
    budget but capped so a registry pass stays desk-scale; axiom checks
    run at the full budget.  A predicates subset restricts execution
    (used for detection experiments over many seeds); a name outside
    PREDICATES raises ValueError.
    """
    unknown = [name for name in predicates or [] if name not in PREDICATE_NAMES]
    if unknown:
        raise ValueError(f"unknown predicates {unknown}")
    small = replace(budget, n_vectors=min(budget.n_vectors, 400),
                    n_scalar_pairs=min(budget.n_scalar_pairs, 400))
    inp = _Inputs(space, budget, small, check_rng(budget.rng_seed, "registry_inputs"))
    results: dict[str, PredicateResult] = {}
    for name, needs, build in PREDICATES:
        if predicates is not None and name not in predicates:
            continue
        if needs is not None and getattr(space, needs) is None:
            results[name] = PredicateResult(outcome="infeasible",
                                            record={"reason": _UNDECLARED[needs]})
        else:
            results[name] = _guard(lambda: build(inp))
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
