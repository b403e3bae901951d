"""Batch front end: load a config, dispatch one operation group, emit
newline-delimited JSON report records.

Meant for scripts and CI, not interactive use.  Every record is a single
self-describing JSON object in canonical form (sorted keys, compact
separators, no timestamps), so identical flags produce byte-identical
reports and the files stay grep-able.

Exit codes: 0 all checks passed, 1 violations found, 2 infeasible or
precondition failures only, 3 unreadable or invalid config.

Config schema (unknown fields are rejected at every level):

    {
      "instance": {"family": "rational_from" | "step_from",
                    "modular": {"kind": "p_power", "p": 2.0}
                             | {"kind": "weighted_abs", "weights": [..]},
                    "dim": 2, "declared_c": 4.0, "declared_beta": 1.0},
      "budget":   {"n_vectors": 1000, "n_scalar_pairs": 1000,
                    "t_grid": [..] | {"min": 1e-3, "max": 1e3, "count": 64},
                    "epsilon": 1e-9, "rng_seed": 0,
                    "vector_law": "standard_normal"},
      "operation": { ... subcommand-specific parameters ... },
      "out": "report.ndjson"
    }
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable

import numpy as np

from . import balls as _balls
from . import convergence as _conv
from . import falsifier as _fals
from . import topology as _topo
from .distfn import SampleBudget, default_t_grid
from .pmspace import (
    MAX_DIM,
    InfeasibleConstruction,
    PMSpace,
    check_axioms,
    check_beta_homogeneous,
    check_delta2_declared,
    check_space_regularity,
    find_delta2_constant,
    space_from_config,
)

SUBCOMMANDS = (
    "check-axioms", "check-delta2", "check-homogeneous", "check-regularity",
    "ball-identities", "witness-refine", "witness-separate",
    "witness-continuity", "check-convergence", "falsify",
)


class ConfigError(Exception):
    pass


def _reject_unknown(d: dict[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")


def _build_instance(cfg: dict[str, Any]) -> PMSpace:
    if not isinstance(cfg, dict):
        raise ConfigError("instance must be an object")
    _reject_unknown(cfg, {"family", "modular", "dim", "declared_c",
                          "declared_beta"}, "instance")
    for key in ("family", "modular", "dim"):
        if key not in cfg:
            raise ConfigError(f"instance.{key} is required")
    modular = cfg["modular"]
    if not isinstance(modular, dict) or "kind" not in modular:
        raise ConfigError("instance.modular must be an object with a kind")
    allowed = {"p_power": {"kind", "p"}, "weighted_abs": {"kind", "weights"}}
    kind = modular["kind"]
    if kind not in allowed:
        raise ConfigError(f"unknown modular kind {kind!r}")
    _reject_unknown(modular, allowed[kind], "instance.modular")
    # Types here; the model classes enforce the other ranges.
    _number(cfg["dim"], "instance.dim", f"an integer in 1..{MAX_DIM}",
            lambda d: 1 <= d <= MAX_DIM, integer=True)
    if "p" in modular:
        _number(modular["p"], "instance.modular.p", "a finite number")
    if "weights" in modular:
        _numbers(modular["weights"], "instance.modular.weights", "a finite number")
    for key in ("declared_c", "declared_beta"):
        if cfg.get(key) is not None:
            _number(cfg[key], f"instance.{key}", "a finite number")
    try:
        return space_from_config(cfg)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid instance: {exc}") from exc


def _build_budget(cfg: dict[str, Any], args: argparse.Namespace) -> SampleBudget:
    if not isinstance(cfg, dict):
        raise ConfigError("budget must be an object")
    _reject_unknown(cfg, {"n_vectors", "n_scalar_pairs", "t_grid", "epsilon",
                          "rng_seed", "vector_law"}, "budget")
    cfg = dict(cfg)
    grid = cfg.get("t_grid")
    if isinstance(grid, dict):
        _reject_unknown(grid, {"min", "max", "count"}, "budget.t_grid")
        missing = sorted({"min", "max", "count"} - set(grid))
        if missing:
            raise ConfigError(f"budget.t_grid is missing {missing}")
        lo = _number(grid["min"], "budget.t_grid.min", "a finite number")
        hi = _number(grid["max"], "budget.t_grid.max", "a finite number")
        count = _number(grid["count"], "budget.t_grid.count", "an integer >= 2",
                        lambda n: n >= 2, integer=True)
        try:
            cfg["t_grid"] = default_t_grid(lo, hi, count)
        except ValueError as exc:
            raise ConfigError(f"invalid budget.t_grid: {exc}") from exc
    if args.t_grid is not None:
        try:
            lo, hi, count = args.t_grid.split(",")
            cfg["t_grid"] = default_t_grid(float(lo), float(hi), int(count))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad --t-grid {args.t_grid!r}: {exc}") from exc
    if args.samples is not None:
        cfg["n_vectors"] = args.samples
        cfg["n_scalar_pairs"] = args.samples
    if args.epsilon is not None:
        cfg["epsilon"] = args.epsilon
    if args.seed is not None:
        cfg["rng_seed"] = args.seed
    try:
        return SampleBudget(**cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid budget: {exc}") from exc


def _operation(cfg: dict[str, Any], allowed: set[str], command: str) -> dict[str, Any]:
    op = cfg.get("operation", {})
    if not isinstance(op, dict):
        raise ConfigError("operation must be an object")
    _reject_unknown(op, allowed, f"operation ({command})")
    return op


def _number(value: Any, where: str, need: str,
            ok: Callable[[Any], bool] = lambda v: True, integer: bool = False) -> Any:
    """value as a finite number (an int when integer is set; a bool is
    neither) that passes ok, else a ConfigError naming where."""
    typed = (isinstance(value, int if integer else (int, float))
             and not isinstance(value, bool))
    try:
        good = typed and math.isfinite(value) and ok(value)
    except OverflowError:  # an integer too large for a float
        good = False
    if not good:
        raise ConfigError(f"{where} must be {need}, got {value!r}")
    return value if integer else float(value)


def _op_number(op: dict[str, Any], key: str, default: Any, need: str,
               ok: Callable[[Any], bool] = lambda v: True, integer: bool = False) -> Any:
    """operation[key], or the default when it is absent, through _number."""
    return _number(op.get(key, default), f"operation.{key}", need, ok, integer)


def _numbers(values: Any, where: str, need: str,
             ok: Callable[[Any], bool] = lambda v: True) -> tuple[float, ...]:
    """values as a list of numbers, each through _number."""
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list")
    return tuple(_number(v, f"each entry of {where}", need, ok) for v in values)


def _point(op: dict[str, Any], key: str, space: PMSpace,
           fallback: np.ndarray) -> np.ndarray:
    if key in op:
        try:
            v = np.asarray(op[key], dtype=float)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"operation.{key} must be a vector") from exc
        if v.shape != (space.dim,):
            raise ConfigError(f"operation.{key} must have dimension {space.dim}")
        return v
    return fallback


def _ball_from(op_ball: dict[str, Any], space: PMSpace, where: str) -> _balls.Ball:
    _reject_unknown(op_ball, {"center", "level", "scale"}, where)
    try:
        return _balls.Ball(space, np.asarray(op_ball["center"], dtype=float),
                           float(op_ball["level"]), float(op_ball["scale"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid ball in {where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Record plumbing.
# ---------------------------------------------------------------------------


def canonical_line(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def exit_code_from_records(records: list[dict[str, Any]]) -> int:
    verdicts = {r.get("verdict") for r in records}
    if "fail" in verdicts:
        return 1
    if "infeasible" in verdicts:
        return 2
    return 0


def _record(name: str, result: _fals.PredicateResult) -> dict[str, Any]:
    """One report line for a predicate outcome.  The outcome is
    authoritative: fields embedded in the record must not shadow it."""
    rec = {"check": name, "verdict": result.outcome}
    rec.update({k: v for k, v in result.record.items()
                if k not in ("check", "verdict")})
    return rec


def _witness(name: str, build: Callable[[], Any]) -> dict[str, Any]:
    """Report line for a witness construction, through the registry's guard."""
    return _record(name, _fals._guard(lambda: _fals._witness_predicate(build())))


def _mutated(space: PMSpace, op: dict[str, Any], seed: int) -> PMSpace:
    """The space with operation.mutation applied, if the operation names one."""
    if "mutation" not in op:
        return space
    try:
        return _fals.apply_mutation(space, op["mutation"], seed)
    except ValueError as exc:
        raise ConfigError(f"operation.mutation: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers: (space, budget, config) -> list of records.
# ---------------------------------------------------------------------------


def _h_check_axioms(space, budget, cfg):
    op = _operation(cfg, {"mutation"}, "check-axioms")
    rep = check_axioms(_mutated(space, op, budget.rng_seed), budget)
    records = [dict(part.to_record(), check=name)
               for name, part in rep.parts.items()]
    records.append({"check": "axioms", "verdict": "pass" if rep.passed else "fail",
                    "seed": budget.rng_seed})
    return records


def _h_check_delta2(space, budget, cfg):
    op = _operation(cfg, {"candidates"}, "check-delta2")
    candidates = (_numbers(op["candidates"], "operation.candidates", "a positive number",
                           lambda c: c > 0)
                  if "candidates" in op else ())
    kwargs = {"c_candidates": candidates} if candidates else {}
    found = find_delta2_constant(space, budget, **kwargs)
    records = [{"check": "delta2_estimate", "seed": budget.rng_seed,
                "estimated_c": found,
                "verdict": "pass" if found is not None else "fail"}]
    if space.declared_c is not None:
        records.append(check_delta2_declared(space, budget).to_record())
    return records


def _h_check_homogeneous(space, budget, cfg):
    op = _operation(cfg, {"beta"}, "check-homogeneous")
    if "beta" in op:
        beta = _op_number(op, "beta", None, "a number in (0, 1]", lambda b: 0 < b <= 1)
    elif space.declared_beta is not None:
        beta = float(space.declared_beta)
    else:
        raise ConfigError("check-homogeneous needs operation.beta or a declared exponent")
    return [check_beta_homogeneous(space, beta, budget).to_record()]


def _h_check_regularity(space, budget, cfg):
    _operation(cfg, set(), "check-regularity")
    return [check_space_regularity(space, budget).to_record()]


def _h_ball_identities(space, budget, cfg):
    op = _operation(cfg, {"level", "scale", "level2", "scale2"}, "ball-identities")
    unit = ("a number in (0, 1)", lambda a: 0 < a < 1)
    positive = ("a positive number", lambda t: t > 0)
    level = _op_number(op, "level", 0.4, *unit)
    scale = _op_number(op, "scale", 1.0, *positive)
    level2 = _op_number(op, "level2", 0.7, *unit)
    scale2 = _op_number(op, "scale2", 2.0, *positive)
    if level2 < level or scale2 < scale:
        raise ConfigError("operation.level2 and operation.scale2 must not be below "
                          "operation.level and operation.scale")
    rng = np.random.default_rng(budget.rng_seed)
    x = rng.standard_normal(space.dim)
    records = [
        _balls.translate_identity(space, x, level, scale, budget).to_record(),
        _balls.monotone_in_scale(space, level, scale, scale2, budget).to_record(),
        _balls.monotone_in_level(space, level, level2, scale, budget).to_record(),
    ]
    if space.declared_beta is not None:
        beta = space.declared_beta
        ball0 = _balls.Ball(space, space.zero(), level, scale)
        return records + [
            _balls.scaling_identity(space, beta, level, scale2, budget).to_record(),
            _balls.is_balanced_sampled(ball0, budget).to_record(),
            _balls.is_convex_sampled(ball0, budget).to_record(),
        ]
    for name in ("scaling_identity", "balanced", "convex"):
        records.append({"check": name, "verdict": "infeasible",
                        "reason": "no declared homogeneity exponent"})
    return records


def _h_witness_refine(space, budget, cfg):
    op = _operation(cfg, {"outer", "z"}, "witness-refine")
    if "outer" in op:
        outer = _ball_from(op["outer"], space, "operation.outer")
        z = _point(op, "z", space, outer.center)
        return [_witness("refine_ball", lambda: _topo.refine_ball(space, outer, z, budget))]

    def searched():
        # The input search needs the declared doubling constant, so it runs
        # inside the guard, where a missing one is a precondition failure.
        got = _fals._feasible_refinement_input(space, np.random.default_rng(budget.rng_seed))
        if got is None:
            raise InfeasibleConstruction("no feasible refinement input found")
        return _topo.refine_ball(space, *got, budget)

    return [_witness("refine_ball", searched)]


def _h_witness_separate(space, budget, cfg):
    op = _operation(cfg, {"x", "y", "variant"}, "witness-separate")
    variant = op.get("variant", "doubling")
    rng = np.random.default_rng(budget.rng_seed)
    x = _point(op, "x", space, rng.standard_normal(space.dim))
    if variant == "homogeneous":
        return [_witness("homogeneous_separation",
                         lambda: _topo.homogeneous_separation_witness(space, x, budget))]
    if variant != "doubling":
        raise ConfigError(f"unknown separation variant {variant!r}")
    y = _point(op, "y", space, rng.standard_normal(space.dim))
    return [_witness("separation", lambda: _topo.separation_witness(space, x, y, budget))]


def _h_witness_continuity(space, budget, cfg):
    op = _operation(cfg, {"target", "scalar"}, "witness-continuity")
    target = (_ball_from(op["target"], space, "operation.target")
              if "target" in op
              else _balls.Ball(space, space.zero(), 0.5, 1.0))
    scalar = _op_number(op, "scalar", 2.0, "a finite number")
    return [
        _witness("addition_continuity",
                 lambda: _topo.addition_continuity_witness(space, target, budget)),
        _witness("scalar_continuity",
                 lambda: _topo.scalar_continuity_witness(space, target, scalar, budget)),
    ]


def _h_check_convergence(space, budget, cfg):
    op = _operation(cfg, {"sequence", "t_grid", "n_max", "local_base_depth"},
                    "check-convergence")
    if "sequence" not in op:
        raise ConfigError("check-convergence needs operation.sequence")
    seq_cfg = op["sequence"]
    if not isinstance(seq_cfg, dict):
        raise ConfigError("operation.sequence must be an object")
    _reject_unknown(seq_cfg, {"kind", "base", "direction", "ratio",
                              "candidate_limit"}, "operation.sequence")
    try:
        seq = _conv.SequenceSpec.from_config(seq_cfg)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid sequence: {exc}") from exc
    n_max = _op_number(op, "n_max", _conv.N_MAX, "an integer >= 1", lambda n: n >= 1,
                       integer=True)
    grid = (_numbers(op["t_grid"], "operation.t_grid", "a positive number",
                     lambda t: t > 0)
            if "t_grid" in op else None)
    if grid == ():
        raise ConfigError("operation.t_grid must not be empty")
    depth = _op_number(op, "local_base_depth", _conv.LOCAL_BASE_DEPTH, "an integer",
                       integer=True)

    mu_v = _conv.check_mu_convergence(space, seq, t_grid=grid, n_max=n_max)
    balls = _conv.local_base(space, seq.candidate_limit, depth=depth)
    topo_v = _conv.check_topological_convergence(space, seq, balls=balls,
                                                 n_max=n_max)
    equivalence = {"check": "convergence_equivalence", "seed": budget.rng_seed,
                   "verdict": "pass" if mu_v.converges == topo_v.converges else "fail",
                   "mu_converges": mu_v.converges,
                   "topological_converges": topo_v.converges}
    if topo_v.vacuous:
        equivalence["verdict"] = "infeasible"
        equivalence["reason"] = (f"local base of depth {depth} is empty, so the "
                                 "topological verdict is vacuous")
    return [
        {"check": "mu_convergence", "verdict": "pass", "seed": budget.rng_seed,
         **mu_v.to_record()},
        {"check": "topological_convergence", "verdict": "pass",
         "seed": budget.rng_seed, **topo_v.to_record()},
        equivalence,
    ]


def _h_falsify(space, budget, cfg):
    op = _operation(cfg, {"mutation", "predicates"}, "falsify")
    space = _mutated(space, op, budget.rng_seed)
    predicates = op.get("predicates")
    if predicates is not None:
        if not isinstance(predicates, list) or not predicates:
            raise ConfigError("operation.predicates must be a non-empty list")
        unknown = [name for name in predicates if name not in _fals.PREDICATE_NAMES]
        if unknown:
            raise ConfigError(f"unknown predicates in operation.predicates: {unknown}")
    run = _fals.run_registry(space, budget, predicates=predicates,
                             instance=_fals.instance_config(space, op.get("mutation")))
    return [_record(name, result) for name, result in run.results.items()]


HANDLERS = {
    "check-axioms": _h_check_axioms,
    "check-delta2": _h_check_delta2,
    "check-homogeneous": _h_check_homogeneous,
    "check-regularity": _h_check_regularity,
    "ball-identities": _h_ball_identities,
    "witness-refine": _h_witness_refine,
    "witness-separate": _h_witness_separate,
    "witness-continuity": _h_witness_continuity,
    "check-convergence": _h_check_convergence,
    "falsify": _h_falsify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # config errors exit with 3
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(3)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pmtop",
                     description="Probabilistic modular space checks and witnesses")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} group")
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override budget.rng_seed (default 0)")
        p.add_argument("--samples", type=int, default=None,
                       help="override both sample counts")
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--t-grid", dest="t_grid", default=None,
                       metavar="MIN,MAX,COUNT", help="override the scale grid")
        p.add_argument("--epsilon", type=float, default=None,
                       help="override the check tolerance")
    return parser


def run(cfg: dict[str, Any], command: str,
        args: argparse.Namespace) -> tuple[list[dict[str, Any]], int]:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(cfg, {"instance", "budget", "operation", "out"}, "config")
    if "instance" not in cfg:
        raise ConfigError("config.instance is required")
    space = _build_instance(cfg["instance"])
    budget = _build_budget(cfg.get("budget", {}), args)
    records = HANDLERS[command](space, budget, cfg)
    for rec in records:
        rec.setdefault("seed", budget.rng_seed)
        rec.setdefault("budget", {"n_vectors": budget.n_vectors,
                                  "n_scalar_pairs": budget.n_scalar_pairs,
                                  "epsilon": budget.epsilon,
                                  "rng_seed": budget.rng_seed,
                                  "t_grid_size": len(budget.t_grid)})
    return records, exit_code_from_records(records)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 3
    try:
        records, code = run(cfg, args.command, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    text = "".join(canonical_line(rec) + "\n" for rec in records)
    out_path = args.out or cfg.get("out")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
