"""Batch front end: load a config, dispatch one operation group, emit
newline-delimited JSON report records.

Meant for scripts and CI, not interactive use.  Every record is a single
self-describing JSON object in canonical form (sorted keys, compact
separators, no timestamps), so identical flags produce byte-identical
reports and the files stay grep-able.

Every subcommand but falsify validates its operation and names a selection
of falsifier.PREDICATES (check-delta2: delta2_declared and delta2_estimate;
check-homogeneous: beta_declared; check-regularity: regularity;
check-convergence: convergence_equiv on the given sequence; check-axioms,
ball-identities, witness-*: theirs); the registry's loop runs it at the
whole budget, on the seed's own stream, and reports each check's own
verdict, a probe's too.

Exit codes: 0 all checks passed, 1 violations found, 2 infeasible or
precondition failures only, 3 unreadable or invalid config, or a report
path that cannot be written.

Config schema (unknown fields are rejected at every level):

    {
      "instance": {"family": "rational_from" | "step_from",
                    "modular": {"kind": "p_power", "p": 2.0}
                             | {"kind": "weighted_abs", "weights": [..]},
                    "dim": 2, "declared_c": 4.0, "declared_beta": 1.0},
      "budget":   {"n_vectors": 1000, "n_scalar_pairs": 1000,
                    "t_grid": [..] | {"min": 1e-3, "max": 1e3, "count": 64},
                    "epsilon": 1e-9, "rng_seed": 0},
      "operation": { ... subcommand-specific parameters ... },
      "out": "report.ndjson"
    }
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Collection, Iterator

import numpy as np

from . import balls as _balls
from . import convergence as _conv
from . import falsifier as _fals
from . import topology as _topo
from .distfn import (FieldError, SampleBudget, canonical_line, check_number, check_numbers,
                     default_t_grid)
from .pmspace import AXIOMS, EXPONENT, PMSpace, _FAMILIES, space_from_config

class ConfigError(Exception):
    pass


@contextmanager
def _fields(where: str) -> Iterator[None]:
    """Report a FieldError raised inside as a ConfigError, the field named by
    its path: where, then the field the model named."""
    try:
        yield
    except FieldError as exc:
        raise ConfigError(f"{where}.{exc}") from exc


def _reject_unknown(d: dict[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")


def _require_fields(d: dict[str, Any], required: set[str], where: str) -> None:
    missing = sorted(required - set(d))
    if missing:
        raise ConfigError(f"{where}.{missing[0]} is required")


def _build_instance(cfg: dict[str, Any]) -> PMSpace:
    if not isinstance(cfg, dict):
        raise ConfigError("instance must be an object")
    _reject_unknown(cfg, {"family", "modular", "dim", "declared_c",
                          "declared_beta"}, "instance")
    _require_fields(cfg, {"family", "modular", "dim"}, "instance")
    _one_of(cfg["family"], "instance.family", _FAMILIES)
    modular = cfg["modular"]
    if not isinstance(modular, dict) or "kind" not in modular:
        raise ConfigError("instance.modular must be an object with a kind")
    allowed = {"p_power": {"kind", "p"}, "weighted_abs": {"kind", "weights"}}
    kind = _one_of(modular["kind"], "instance.modular.kind", allowed)
    _reject_unknown(modular, allowed[kind], "instance.modular")
    _require_fields(modular, allowed[kind], "instance.modular")
    with _fields("instance"):
        return space_from_config(cfg)


def _build_budget(cfg: dict[str, Any], args: argparse.Namespace) -> SampleBudget:
    if not isinstance(cfg, dict):
        raise ConfigError("budget must be an object")
    _reject_unknown(cfg, {"n_vectors", "n_scalar_pairs", "t_grid", "epsilon",
                          "rng_seed"}, "budget")
    cfg = dict(cfg)
    grid = cfg.get("t_grid")
    if isinstance(grid, dict):
        _reject_unknown(grid, {"min", "max", "count"}, "budget.t_grid")
        _require_fields(grid, {"min", "max", "count"}, "budget.t_grid")
        with _fields("budget.t_grid"):
            cfg["t_grid"] = default_t_grid(grid["min"], grid["max"], grid["count"])
    if args.t_grid is not None:
        try:
            lo, hi, count = args.t_grid.split(",")
            cfg["t_grid"] = default_t_grid(float(lo), float(hi), int(count))
        except ValueError as exc:
            raise ConfigError(f"bad --t-grid {args.t_grid!r}: {exc}") from exc
    if args.samples is not None:
        cfg["n_vectors"] = args.samples
        cfg["n_scalar_pairs"] = args.samples
    if args.epsilon is not None:
        cfg["epsilon"] = args.epsilon
    if args.seed is not None:
        cfg["rng_seed"] = args.seed
    with _fields("budget"):
        return SampleBudget(**cfg)


def _operation(cfg: dict[str, Any], allowed: set[str], command: str) -> dict[str, Any]:
    op = cfg.get("operation", {})
    if not isinstance(op, dict):
        raise ConfigError("operation must be an object")
    _reject_unknown(op, allowed, f"operation ({command})")
    return op


def _one_of(value: Any, where: str, names: Collection[str]) -> str:
    """value as one of the string names, else a ConfigError naming where
    and the names (an unhashable value is not looked up)."""
    if not (isinstance(value, str) and value in names):
        raise ConfigError(f"{where} must be one of {sorted(names)}, got {value!r}")
    return value


def _vector(value: Any, field: str, space: PMSpace) -> np.ndarray:
    """value as a point of the space: a list of dim finite numbers."""
    v = np.asarray(check_numbers(value, field), dtype=float)
    if v.shape != (space.dim,):
        raise FieldError(f"{field} must have dimension {space.dim}")
    return v


def _points(op: dict[str, Any], keys: Collection[str],
            space: PMSpace) -> dict[str, np.ndarray]:
    """The operation's points among keys, each validated."""
    with _fields("operation"):
        return {key: _vector(op[key], key, space) for key in keys if key in op}


def _ball_from(op_ball: Any, space: PMSpace, where: str) -> _balls.Ball:
    if not isinstance(op_ball, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(op_ball, {"center", "level", "scale"}, where)
    _require_fields(op_ball, {"center", "level", "scale"}, where)
    with _fields(where):
        return _balls.Ball(space, _vector(op_ball["center"], "center", space),
                           op_ball["level"], op_ball["scale"])


# ---------------------------------------------------------------------------
# Record plumbing.
# ---------------------------------------------------------------------------


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
    return {**result.record, "check": name, "verdict": result.outcome}


def _selection(space: PMSpace, budget: SampleBudget, names: Collection[str],
               **op: Any) -> list[dict[str, Any]]:
    """Report lines of the named table entries, run through the registry's
    loop at the whole budget, with the seed's own stream, witness evidence of
    topology.WITNESS_SAMPLES samples and the validated operation values op."""
    inp = _fals.Inputs(space, budget, budget, np.random.default_rng(budget.rng_seed),
                       _topo.WITNESS_SAMPLES, names, op)
    return [_record(name, result) for name, result in _fals.run_predicates(inp).items()]


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
    records = _selection(_mutated(space, op, budget.rng_seed), budget, AXIOMS)
    passed = all(rec["verdict"] == "pass" for rec in records)
    records.append({"check": "axioms", "verdict": "pass" if passed else "fail",
                    "seed": budget.rng_seed})
    return records


def _h_check_delta2(space, budget, cfg):
    op = _operation(cfg, {"candidates"}, "check-delta2")
    candidates = op.get("candidates", [])  # an empty list asks for the default ones
    if candidates != []:
        with _fields("operation"):
            check_numbers(candidates, "candidates", above=0)
    return _selection(space, budget, ["delta2_declared", "delta2_estimate"],
                      candidates=candidates)


def _h_check_homogeneous(space, budget, cfg):
    op = _operation(cfg, {"beta"}, "check-homogeneous")
    if "beta" in op:  # the exponent to check, in place of the declared one
        with _fields("operation"):
            space = replace(space, declared_beta=float(check_number(op["beta"], "beta",
                                                                    **EXPONENT)))
    return _selection(space, budget, ["beta_declared"])


def _h_check_regularity(space, budget, cfg):
    _operation(cfg, set(), "check-regularity")
    return _selection(space, budget, ["regularity"])


def _h_ball_identities(space, budget, cfg):
    op = _operation(cfg, {"level", "scale", "level2", "scale2"}, "ball-identities")
    with _fields("operation"):
        values = {key: float(check_number(op.get(key, default), key, **bounds))
                  for key, default, bounds in (("level", 0.4, _balls.LEVEL),
                                               ("scale", 1.0, _balls.SCALE),
                                               ("level2", 0.7, _balls.LEVEL),
                                               ("scale2", 2.0, _balls.SCALE))}
        _balls.check_order(values["level"], values["level2"], "level2")
        _balls.check_order(values["scale"], values["scale2"], "scale2")
    return _selection(space, budget, ("translate_identity", "monotone_in_scale",
                                      "monotone_in_level", "scaling_identity",
                                      "balanced", "convex"), **values)


def _h_witness_refine(space, budget, cfg):
    op = _operation(cfg, {"outer", "z"}, "witness-refine")
    given = {}
    if "outer" in op:
        outer = _ball_from(op["outer"], space, "operation.outer")
        given = {"outer": outer, "z": outer.center}
    z = _points(op, ["z"], space)  # validated even where no outer reads it
    return _selection(space, budget, ["refine_ball"], **({**given, **z} if given else {}))


# operation.variant of witness-separate: the table entry it runs.
_SEPARATIONS = {"doubling": "separation", "homogeneous": "homogeneous_separation"}


def _h_witness_separate(space, budget, cfg):
    op = _operation(cfg, {"x", "y", "variant"}, "witness-separate")
    given = _points(op, ["x"], space)
    variant = _one_of(op.get("variant", "doubling"), "operation.variant", _SEPARATIONS)
    y = _points(op, ["y"], space)  # validated even where the variant reads no y
    return _selection(space, budget, [_SEPARATIONS[variant]], **given,
                      **(y if variant == "doubling" else {}))


def _h_witness_continuity(space, budget, cfg):
    op = _operation(cfg, {"target", "scalar"}, "witness-continuity")
    given = {}
    if "target" in op:
        given["target"] = _ball_from(op["target"], space, "operation.target")
    with _fields("operation"):
        given["scalar"] = float(check_number(op.get("scalar", 2.0), "scalar"))
    return _selection(space, budget, ["addition_continuity", "scalar_continuity"], **given)


def _h_check_convergence(space, budget, cfg):
    op = _operation(cfg, {"sequence", "t_grid", "n_max", "local_base_depth"},
                    "check-convergence")
    _require_fields(op, {"sequence"}, "operation")
    seq_cfg = op["sequence"]
    if not isinstance(seq_cfg, dict):
        raise ConfigError("operation.sequence must be an object")
    _reject_unknown(seq_cfg, {"kind", "base", "direction", "ratio",
                              "candidate_limit"}, "operation.sequence")
    _require_fields(seq_cfg, {"kind", "base", "direction"}, "operation.sequence")
    _one_of(seq_cfg["kind"], "operation.sequence.kind", _conv.SEQUENCE_KINDS)
    with _fields("operation.sequence"):
        typed = {k: _vector(v, k, space) for k, v in seq_cfg.items()
                 if k in ("base", "direction", "candidate_limit")}
        seq = _conv.SequenceSpec(**{**seq_cfg, **typed})
    with _fields("operation"):
        depth = _conv.base_depth(op.get("local_base_depth", _conv.LOCAL_BASE_DEPTH))
        # Without a given grid the entry's kernel-kind default applies.
        given = {"t_grid": _conv.scale_grid(op["t_grid"])} if "t_grid" in op else {}
        n_max = op.get("n_max", _conv.N_MAX)
        _conv.probe_schedule(n_max)  # checks n_max
    return _selection(space, budget, ["convergence_equiv"], sequence=seq, **given,
                      n_max=n_max, local_base_depth=depth)


def _h_falsify(space, budget, cfg):
    op = _operation(cfg, {"mutation", "predicates"}, "falsify")
    space = _mutated(space, op, budget.rng_seed)
    predicates = op.get("predicates")
    if predicates is not None:
        if not isinstance(predicates, list) or not predicates:
            raise ConfigError("operation.predicates must be a non-empty list")
    with _fields("operation"):
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
SUBCOMMANDS = tuple(HANDLERS)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # config errors exit with 3
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(3)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it as it is."""
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
    _require_fields(cfg, {"instance"}, "config")
    if "out" in cfg and not (isinstance(cfg["out"], str) and cfg["out"]):
        raise ConfigError(f"out must be a non-empty string, got {cfg['out']!r}")
    space = _build_instance(cfg["instance"])
    budget = _build_budget(cfg.get("budget", {}), args)
    records = HANDLERS[command](space, budget, cfg)
    stamp = budget.to_config()
    stamp["t_grid_size"] = len(stamp.pop("t_grid"))
    for rec in records:
        rec.setdefault("seed", budget.rng_seed)
        rec.setdefault("budget", stamp)
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
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 3
    try:
        records, code = run(cfg, args.command, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    text = "".join(canonical_line(rec) + "\n" for rec in records)
    out_path = args.out or cfg.get("out")
    if not out_path:
        sys.stdout.write(text)
        return code
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        print(f"error: cannot write report {out_path}: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
