"""CLI: config validation, exit codes, canonical report round-trips."""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pmtop.convergence as C
import pmtop.falsifier as F
from pmtop import cli
from pmtop.convergence import MAX_LOCAL_BASE_DEPTH, MAX_N_MAX
from pmtop.distfn import MAX_GRID_COUNT, MAX_GRID_T, MAX_SAMPLES, SampleBudget, default_t_grid
from pmtop.pmspace import space_from_config
from pmtop.topology import WITNESS_SAMPLES


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


RATIONAL = {
    "instance": {"family": "rational_from",
                 "modular": {"kind": "p_power", "p": 1.0},
                 "dim": 2, "declared_c": 2.0},
    "budget": {"n_vectors": 800, "rng_seed": 0},
}

HOMOGENEOUS = {
    "instance": {"family": "rational_from",
                 "modular": {"kind": "weighted_abs", "weights": [1.0]},
                 "dim": 1, "declared_c": 2.0, "declared_beta": 1.0},
    "budget": {"n_vectors": 500, "rng_seed": 0},
}

STEP = {
    "instance": {"family": "step_from",
                 "modular": {"kind": "weighted_abs", "weights": [1.0]},
                 "dim": 1, "declared_c": 2.0, "declared_beta": 1.0},
    "budget": {"n_vectors": 500, "rng_seed": 0},
}


def test_check_axioms_passes_on_valid_instance(tmp_path, capsys):
    cfg = write_config(tmp_path, RATIONAL)
    assert cli.main(["check-axioms", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert {json.loads(l)["check"] for l in lines} >= {"pm1", "pm2", "pm3", "pm4"}


def test_mutated_instance_exits_with_violation_code(tmp_path):
    cfg = json.loads(json.dumps(RATIONAL))
    cfg["operation"] = {"mutation": "break_pm3",
                        "predicates": ["pm1", "pm2", "pm3", "pm4"]}
    path = write_config(tmp_path, cfg)
    assert cli.main(["falsify", "--config", path]) == 1


def test_check_axioms_on_mutated_instance_exits_one(tmp_path):
    cfg = json.loads(json.dumps(RATIONAL))
    cfg["operation"] = {"mutation": "break_pm3"}
    path = write_config(tmp_path, cfg)
    assert cli.main(["check-axioms", "--config", path]) == 1


def test_infeasible_witness_exits_with_code_two(tmp_path):
    cfg = json.loads(json.dumps(STEP))
    cfg["operation"] = {"variant": "homogeneous", "x": [1.0]}
    path = write_config(tmp_path, cfg)
    assert cli.main(["witness-separate", "--config", path]) == 2


@pytest.mark.parametrize("budget", [{"t_grid": [1e-3, float("inf")]},
                                    {"epsilon": float("inf")},
                                    {"t_grid": {"min": 1}},
                                    {"n_vectors": 1.5},
                                    {"t_grid": {"min": 1, "max": 10, "count": 2.5}},
                                    {"vector_law": "standard_normal"},
                                    {"n_vectors": 10 ** 12},
                                    {"n_scalar_pairs": 10 ** 12},
                                    {"t_grid": {"min": 1e-3, "max": 1e3,
                                                "count": 10 ** 12}},
                                    {"epsilon": True},
                                    {"t_grid": [True, 2]},
                                    {"t_grid": [1e-3, 1e3, MAX_GRID_T * 1.01]},
                                    {"t_grid": {"min": 1e-3, "max": MAX_GRID_T * 1.01,
                                                "count": 64}}])
def test_non_finite_budget_is_a_config_error(tmp_path, capsys, budget):
    # json.dumps writes Infinity, which json.load accepts; the budget must not.
    cfg = json.loads(json.dumps(RATIONAL))
    cfg["budget"].update(budget)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "report.ndjson"
    assert cli.main(["check-axioms", "--config", path, "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and any(key in captured.err for key in budget)


SEQUENCE = {"kind": "harmonic", "base": [0.0, 0.0], "direction": [0.3, 0.1]}


@pytest.mark.parametrize("instance", [
    {"family": "rational_from", "modular": {"kind": "p_power", "p": 1.0}, "dim": 2},
    {"family": "step_from", "modular": {"kind": "weighted_abs", "weights": [1.0, 0.5]},
     "dim": 2}])
def test_every_subcommand_runs_on_a_grid_that_ends_at_the_bound(tmp_path, capsys, instance):
    # The checks read t past the last grid point, up to 1e13 times it: at
    # MAX_GRID_T none overflows, where the suite's filterwarnings = error
    # would make an "unexpected error" record, and every subcommand exits as
    # it does on the default grid.
    instance = {**instance, "declared_c": 2.0, "declared_beta": 1.0}
    for command in cli.SUBCOMMANDS:
        codes = []
        for grid in (list(default_t_grid()), list(default_t_grid()) + [MAX_GRID_T]):
            cfg = {"instance": instance, "budget": {"n_vectors": 300, "n_scalar_pairs": 300,
                                                    "t_grid": grid, "rng_seed": 0}}
            if command == "check-convergence":
                cfg["operation"] = {"sequence": SEQUENCE}
            codes.append(cli.main([command, "--config", write_config(tmp_path, cfg)]))
            captured = capsys.readouterr()
            assert "unexpected error" not in captured.out and captured.err == "", command
        assert codes[0] == codes[1] and codes[0] != 3, command


@pytest.mark.parametrize("command, operation", [
    ("check-homogeneous", {"beta": "abc"}),
    ("check-delta2", {"candidates": [-1]}),
    ("check-delta2", {"candidates": "ab"}),
    ("witness-continuity", {"scalar": "x"}),
    ("ball-identities", {"level": "x"}),
    ("ball-identities", {"level": 1.5}),
    ("ball-identities", {"scale2": 0.5}),
    ("check-convergence", {"sequence": SEQUENCE, "n_max": 0}),
    ("check-convergence", {"sequence": 5}),
    ("check-convergence", {"sequence": SEQUENCE, "t_grid": [1, "a"]}),
    ("check-convergence", {"sequence": SEQUENCE, "t_grid": []}),
    ("check-convergence", {"sequence": SEQUENCE, "local_base_depth": "a"}),
    ("witness-separate", {"x": [float("inf"), 0.0]}),
    ("witness-separate", {"x": [True, False]}),
    ("witness-separate", {"x": ["1", 0.0]}),
    ("witness-refine", {"outer": {"center": [0.0, 0.0], "level": 0.5, "scale": True}}),
    ("witness-refine", {"outer": {"center": [0.0, 0.0], "level": "0.5", "scale": 1.0}}),
    ("witness-refine", {"outer": {"center": [True, 0.0], "level": 0.5, "scale": 1.0}}),
    ("witness-refine", {"outer": 5}),
    ("witness-continuity", {"target": {"center": [0.0, 0.0], "level": 0.5}}),
    ("check-convergence", {"sequence": {**SEQUENCE, "base": [True, False]}}),
    ("check-convergence", {"sequence": {**SEQUENCE, "ratio": "0.5"}}),
    ("check-convergence", {"sequence": {**SEQUENCE, "base": [0.0, 0.0, 0.0],
                                        "direction": [0.3, 0.1, 0.0]}}),
    ("check-convergence", {"sequence": SEQUENCE, "n_max": 10 ** 30}),
    ("check-convergence", {"sequence": SEQUENCE, "local_base_depth": 3 * 10 ** 6}),
    ("check-convergence", {"sequence": {"base": [0.0, 0.0], "direction": [0.3, 0.1]}}),
    ("check-convergence", {"sequence": {"kind": "harmonic", "direction": [0.3, 0.1]}}),
    ("check-convergence", {"sequence": {"kind": "harmonic", "base": [0.0, 0.0]}}),
    ("check-convergence", {"sequence": SEQUENCE, "t_grid": [1.0 + i for i in range(1025)]}),
    # Values no selection reads are validated too.
    ("witness-refine", {"z": "junk"}),
    ("witness-refine", {"z": [True, 0.0]}),
    ("witness-separate", {"variant": "homogeneous", "y": [True]}),
    ("witness-separate", {"variant": "homogeneous", "y": [1.0, 2.0, 3.0]}),
    # A scale above the bound every grid keeps.
    ("check-convergence", {"sequence": SEQUENCE, "t_grid": [1.0, MAX_GRID_T * 1.01]}),
    # A level above monotone_in_level's default level2.
    ("ball-identities", {"level": 0.65}),
])
def test_malformed_operation_value_is_a_config_error(tmp_path, capsys, command,
                                                     operation):
    cfg = json.loads(json.dumps(RATIONAL))
    cfg["operation"] = operation
    path = write_config(tmp_path, cfg)
    out = tmp_path / "report.ndjson"
    assert cli.main([command, "--config", path, "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(f"operation.{key}" in captured.err for key in operation)


@pytest.mark.parametrize("flags, field", [
    (["--t-grid", "1e-3,1e3,1000000000000"], "--t-grid"),
    (["--samples", str(10 ** 12)], "n_vectors"),
    # An infinite bound must fail before numpy's geomspace warns on it.
    (["--t-grid", "1,inf,4"], "--t-grid"),
])
def test_oversized_count_flag_is_a_config_error_naming_it(tmp_path, capsys, flags,
                                                          field):
    # A count past its validation bound fails before any array is allocated.
    path = write_config(tmp_path, RATIONAL)
    out = tmp_path / "report.ndjson"
    assert cli.main(["check-axioms", "--config", path, "--out", str(out)] + flags) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and field in captured.err


@pytest.mark.parametrize("instance", [
    {"dim": 1.5},
    {"dim": True},
    {"modular": {"kind": "p_power", "p": True}},
    {"modular": {"kind": "weighted_abs", "weights": [True]}},
    {"modular": {"kind": "weighted_abs", "weights": 1.0}},
    {"declared_c": True},
    {"declared_beta": True},
    {"declared_beta": "1"},
    {"modular": {"kind": "p_power"}},
    {"modular": {"kind": "weighted_abs"}},
    {"modular": {"kind": ["p_power"]}},
    {"family": ["rational_from"]},
])
def test_malformed_instance_value_is_a_config_error(tmp_path, capsys, instance):
    # A bool or a fractional dim must not be coerced (True to 1.0, 1.5 to 1).
    cfg = json.loads(json.dumps(HOMOGENEOUS))
    cfg["instance"].update(instance)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "report.ndjson"
    assert cli.main(["check-homogeneous", "--config", path, "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "instance." in captured.err


@pytest.mark.parametrize("command, patch, message", [
    ("check-axioms", {"instance": {"modular": {"kind": ["p_power"]}}},
     "instance.modular.kind must be one of ['p_power', 'weighted_abs'], got ['p_power']"),
    ("check-axioms", {"instance": {"modular": {"kind": "l_infinity"}}},
     "instance.modular.kind must be one of ['p_power', 'weighted_abs'], got 'l_infinity'"),
    ("check-axioms", {"instance": {"family": ["rational_from"]}},
     "instance.family must be one of ['rational_from', 'step_closed_from', 'step_from'], "
     "got ['rational_from']"),
    ("check-axioms", {"instance": {"family": {"rational_from": 1}}},
     "instance.family must be one of ['rational_from', 'step_closed_from', 'step_from'], "
     "got {'rational_from': 1}"),
    ("witness-separate", {"operation": {"variant": ["x"]}},
     "operation.variant must be one of ['doubling', 'homogeneous'], got ['x']"),
    ("witness-separate", {"operation": {"variant": 3}},
     "operation.variant must be one of ['doubling', 'homogeneous'], got 3"),
], ids=["kind-list", "kind-unknown", "family-list", "family-object", "variant-list",
        "variant-int"])
def test_unknown_choice_names_the_field_and_its_choices(tmp_path, capsys, command, patch,
                                                         message):
    cfg = json.loads(json.dumps(HOMOGENEOUS))
    for section, values in patch.items():
        cfg.setdefault(section, {}).update(values)
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", path]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("dim, weights", [(3, [1.0, 2.0]), (1, [1.0, 2.0])])
def test_weight_count_other_than_dim_is_a_config_error(tmp_path, capsys, dim,
                                                       weights):
    # Too few weights crashed in numpy broadcasting; too many ran silently
    # on their sum, rho = 3|x| at dim 1.
    cfg = json.loads(json.dumps(HOMOGENEOUS))
    cfg["instance"].update(dim=dim, modular={"kind": "weighted_abs", "weights": weights})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "report.ndjson"
    assert cli.main(["check-axioms", "--config", path, "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: instance.modular.weights must hold dim = {dim} "
                            f"numbers, got {len(weights)}\n")


@pytest.mark.parametrize("predicates", [["pm5"], [], ["pm1", "pm5"], "pm1"])
def test_vacuous_or_unknown_predicate_list_is_a_config_error(tmp_path, capsys,
                                                             predicates):
    # An unknown name or an empty list would select no predicate and pass
    # vacuously with exit 0.
    cfg = json.loads(json.dumps(RATIONAL))
    cfg["operation"] = {"predicates": predicates}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "report.ndjson"
    assert cli.main(["falsify", "--config", path, "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "predicates" in captured.err
    if isinstance(predicates, list) and predicates:  # the registry's one name check
        assert captured.err == ("error: operation.predicates holds unknown names "
                                "['pm5']\n")


@pytest.mark.parametrize("command", ["check-axioms", "falsify"])
def test_mutation_that_does_not_apply_is_a_config_error(tmp_path, capsys, command):
    cfg = json.loads(json.dumps(RATIONAL))
    cfg["operation"] = {"mutation": "break_left_continuity"}
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "left-continuity mutation applies to the step family" in captured.err


@pytest.mark.parametrize("kind", ["harmonic", "constant_offset"])
def test_empty_local_base_makes_convergence_equivalence_infeasible(tmp_path, capsys,
                                                                   kind):
    # A local base below depth 2 holds no ball, so the topological criterion's
    # precondition fails: one infeasible line, whatever the sequence.
    for depth in (1, -3):
        cfg = json.loads(json.dumps(HOMOGENEOUS))
        cfg["operation"] = {"sequence": {"kind": kind, "base": [0.0], "direction": [0.3]},
                            "local_base_depth": depth}
        path = write_config(tmp_path, cfg)
        assert cli.main(["check-convergence", "--config", path]) == 2
        (rec,) = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert {key: rec[key] for key in ("check", "verdict", "reason")} == {
            "check": "convergence_equiv", "verdict": "infeasible",
            "reason": f"precondition: local base of depth {depth} is empty, so the "
                      "topological criterion is vacuous"}


def test_negative_dimension_is_a_config_error(tmp_path):
    cfg = json.loads(json.dumps(RATIONAL))
    cfg["instance"]["dim"] = -3
    path = write_config(tmp_path, cfg)
    assert cli.main(["check-axioms", "--config", path]) == 3


def test_unknown_fields_are_rejected(tmp_path):
    cfg = json.loads(json.dumps(RATIONAL))
    cfg["extra"] = 1
    path = write_config(tmp_path, cfg)
    assert cli.main(["check-axioms", "--config", path]) == 3

    cfg = json.loads(json.dumps(RATIONAL))
    cfg["instance"]["surprise"] = True
    path = write_config(tmp_path, cfg)
    assert cli.main(["check-axioms", "--config", path]) == 3

    cfg = json.loads(json.dumps(RATIONAL))
    cfg["budget"]["walltime"] = 5
    path = write_config(tmp_path, cfg)
    assert cli.main(["check-axioms", "--config", path]) == 3


def test_unreadable_config_is_a_config_error():
    assert cli.main(["check-axioms", "--config", "/no/such/file.json"]) == 3


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "nested-too-deep"])
def test_undecodable_config_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert cli.main(["check-axioms", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config") and "Traceback" not in err


@pytest.mark.parametrize("out, flags", [
    (["a"], []), (7, []), ("/nonexistent/dir/r.ndjson", []), (True, []), ("", []),
    (None, ["--out", "/nonexistent/dir/r.ndjson"]),
], ids=["list", "number", "missing-dir", "bool", "empty", "flag-missing-dir"])
def test_bad_or_unwritable_report_path_is_a_config_error(tmp_path, capsys, out, flags):
    cfg = json.loads(json.dumps(STEP))
    if out is not None:
        cfg["out"] = out
    path = write_config(tmp_path, cfg)
    assert cli.main(["check-regularity", "--config", path, *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_bad_subcommand_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, RATIONAL)
    assert cli.main(["frobnicate", "--config", cfg]) == 3
    capsys.readouterr()


def test_bad_t_grid_flag(tmp_path):
    cfg = write_config(tmp_path, RATIONAL)
    assert cli.main(["check-axioms", "--config", cfg, "--t-grid", "abc"]) == 3


def test_reports_are_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path, RATIONAL)
    out1, out2 = str(tmp_path / "r1.ndjson"), str(tmp_path / "r2.ndjson")
    assert cli.main(["check-axioms", "--config", cfg, "--out", out1]) == 0
    assert cli.main(["check-axioms", "--config", cfg, "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_reports_round_trip_to_identical_bytes(tmp_path):
    cfg = json.loads(json.dumps(HOMOGENEOUS))
    cfg["operation"] = {"sequence": {"kind": "harmonic", "base": [0.0],
                                     "direction": [0.3]},
                        "t_grid": [0.5, 5.0, 50.0]}
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "report.ndjson")
    assert cli.main(["check-convergence", "--config", path, "--out", out]) == 0
    for line in Path(out).read_text(encoding="utf-8").splitlines():
        assert cli.canonical_line(json.loads(line)) == line


def test_exit_code_is_a_pure_function_of_records():
    assert cli.exit_code_from_records([{"verdict": "pass"}]) == 0
    assert cli.exit_code_from_records([{"verdict": "pass"},
                                       {"verdict": "infeasible"}]) == 2
    assert cli.exit_code_from_records([{"verdict": "infeasible"},
                                       {"verdict": "fail"}]) == 1
    assert cli.exit_code_from_records([]) == 0


def test_seed_flag_reaches_the_report(tmp_path, capsys):
    cfg = write_config(tmp_path, RATIONAL)
    assert cli.main(["check-axioms", "--config", cfg, "--seed", "9"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(json.loads(l)["seed"] == 9 for l in lines)


def test_samples_flag_overrides_budget(tmp_path, capsys):
    cfg = write_config(tmp_path, RATIONAL)
    assert cli.main(["check-axioms", "--config", cfg, "--samples", "123"]) == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["budget"]["n_vectors"] == 123


@pytest.mark.parametrize("flag,value,budget", [
    ("--epsilon", "0.3", {"epsilon": 0.3}),
    ("--t-grid", "1e-3,10,16", {"t_grid": {"min": 1e-3, "max": 10.0, "count": 16}}),
], ids=["epsilon", "t-grid"])
def test_budget_flag_writes_the_bytes_of_its_config_field(tmp_path, capsys, flag, value,
                                                          budget):
    base = dict(RATIONAL, budget={"n_vectors": 60, "rng_seed": 0})
    assert cli.main(["check-axioms", "--config", write_config(tmp_path, base),
                     flag, value]) == 0
    flagged = capsys.readouterr().out
    given = dict(base, budget={**base["budget"], **budget})
    assert cli.main(["check-axioms", "--config",
                     write_config(tmp_path, given, "given.json")]) == 0
    assert flagged == capsys.readouterr().out
    assert cli.main(["check-axioms", "--config", write_config(tmp_path, base)]) == 0
    assert flagged != capsys.readouterr().out


def test_homogeneity_subcommand_uses_declared_exponent(tmp_path, capsys):
    cfg = write_config(tmp_path, HOMOGENEOUS)
    assert cli.main(["check-homogeneous", "--config", cfg]) == 0
    capsys.readouterr()


def test_ball_identities_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, HOMOGENEOUS)
    assert cli.main(["ball-identities", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    checks = {json.loads(l)["check"] for l in lines}
    assert checks >= {"translate_identity", "monotone_in_scale",
                      "monotone_in_level", "scaling_identity", "balanced",
                      "convex"}


def test_starved_member_sampler_makes_ball_checks_infeasible(tmp_path, capsys):
    # A level below epsilon leaves no member outside the boundary band.
    cfg = json.loads(json.dumps(HOMOGENEOUS))
    cfg["budget"]["epsilon"] = 0.3
    cfg["operation"] = {"level": 0.1}
    assert cli.main(["ball-identities", "--config", write_config(tmp_path, cfg)]) == 2
    verdicts = {r["check"]: r for r in map(json.loads,
                                            capsys.readouterr().out.splitlines())}
    for name in ("monotone_in_scale", "monotone_in_level", "balanced", "convex"):
        assert verdicts[name]["verdict"] == "infeasible"
        assert "member sampler starved" in verdicts[name]["reason"]
    assert verdicts["translate_identity"]["verdict"] == "pass"


BALL_CHECKS = ("translate_identity", "monotone_in_scale", "monotone_in_level",
               "scaling_identity", "balanced", "convex")


@pytest.mark.parametrize("name", BALL_CHECKS)
def test_falsify_and_ball_identities_record_the_tables_balls(tmp_path, capsys, name):
    # With no operation values both entry points test a check's default balls,
    # written once in falsifier.BALLS, and both records name them: every
    # level and scale, scaling_identity's scale2 as its t.
    want = {("t" if key == "scale2" and name == "scaling_identity" else key): value
            for key, value in F.BALLS[name].items()}
    named = []
    for command, op in (("falsify", {"predicates": [name]}), ("ball-identities", {})):
        cfg = dict(json.loads(json.dumps(HOMOGENEOUS)), operation=op)
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 0
        (rec,) = [rec for rec in map(json.loads, capsys.readouterr().out.splitlines())
                  if rec["check"] == name]
        named.append({key: rec["notes"][key] for key in want})
    assert named == [want, want]


def test_falsify_and_witness_continuity_build_on_the_tables_target(tmp_path, capsys):
    # Without a target both entry points take the table's default one, so the
    # addition witness names the same balls; without a scalar, witness-continuity
    # draws it from U(-2, 2) as the first draw of the seed's stream.
    names = ["addition_continuity", "scalar_continuity"]
    records = {}
    for command, op in (("falsify", {"predicates": names}), ("witness-continuity", {})):
        cfg = dict(json.loads(json.dumps(HOMOGENEOUS)), operation=op)
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 0
        records[command] = {rec["check"]: rec
                            for rec in map(json.loads, capsys.readouterr().out.splitlines())}
    target = F.BALLS["addition_continuity"]
    assert F.BALLS["scalar_continuity"] == target
    for by_check in records.values():
        assert by_check["addition_continuity"]["ball_a"]["level"] == target["level"] / 2
        assert by_check["scalar_continuity"]["ball"]["level"] == target["level"] / 2
    assert (records["falsify"]["addition_continuity"]["ball_a"]
            == records["witness-continuity"]["addition_continuity"]["ball_a"])
    scalar = records["witness-continuity"]["scalar_continuity"]["scalar_center"]
    rng = np.random.default_rng(HOMOGENEOUS["budget"]["rng_seed"])
    assert -2.0 < scalar < 2.0 and scalar == float(rng.uniform(-2.0, 2.0))


@pytest.mark.parametrize("op, code, error", [
    ({"scale2": 0.8}, 0, ""),
    ({"level": 0.65}, 3, "error: operation.level must be a finite number in (-inf, 0.6], "
                         "got 0.65 (level2 0.6 is the default of monotone_in_level)\n"),
    ({"level2": 0.2}, 3, "error: operation.level2 must be a finite number in [0.3, inf), "
                         "got 0.2 (level 0.3 is the default of monotone_in_level)\n"),
    ({"scale": 1.95}, 3, "error: operation.scale must be a finite number in (-inf, 1.9], "
                         "got 1.95 (scale2 1.9 is the default of monotone_in_scale)\n"),
    ({"level": 0.8, "level2": 0.7}, 3,
     "error: operation.level2 must be a finite number in [0.8, inf), got 0.7\n"),
])
def test_ball_identities_orders_the_values_its_checks_read(tmp_path, capsys, op, code,
                                                           error):
    # A monotonicity check compares the values it reads: a field the config
    # leaves out is the check's default, and an error names the given field
    # and the default it was compared with.
    cfg = dict(json.loads(json.dumps(HOMOGENEOUS)), operation=op)
    assert cli.main(["ball-identities", "--config", write_config(tmp_path, cfg)]) == code
    assert capsys.readouterr().err == error


def test_witness_refine_subcommand_with_explicit_input(tmp_path, capsys):
    cfg = json.loads(json.dumps(RATIONAL))
    cfg["instance"]["dim"] = 1
    cfg["operation"] = {"outer": {"center": [0.0], "level": 0.5, "scale": 1.0},
                        "z": [0.4]}
    path = write_config(tmp_path, cfg)
    assert cli.main(["witness-refine", "--config", path]) == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["verdict"] == "pass" and rec["inner"]["level"] == pytest.approx(0.25)


def test_witness_refine_without_declared_constant_is_infeasible(tmp_path, capsys):
    # The input search needs the doubling constant; without one the command
    # reports the same precondition as with an explicit input.
    cfg = json.loads(json.dumps(RATIONAL))
    del cfg["instance"]["declared_c"]
    searched = write_config(tmp_path, cfg, "searched.json")
    assert cli.main(["witness-refine", "--config", searched]) == 2
    report = capsys.readouterr().out
    cfg["operation"] = {"outer": {"center": [0.0, 0.0], "level": 0.5, "scale": 1.0}}
    explicit = write_config(tmp_path, cfg, "explicit.json")
    assert cli.main(["witness-refine", "--config", explicit]) == 2
    assert capsys.readouterr().out == report
    rec = json.loads(report)
    assert rec["verdict"] == "infeasible"
    assert "declared doubling constant" in rec["reason"]


@pytest.mark.parametrize("command, base, op, reason", [
    ("witness-refine", RATIONAL,
     {"outer": {"center": [0.0, 0.0], "level": 0.5, "scale": 1.0}, "z": [5.0, 5.0]},
     "refinement point must lie inside the outer ball"),
    ("witness-separate", RATIONAL, {"x": [1.0, 1.0], "y": [1.0, 1.0]},
     "separation needs two distinct points"),
    ("witness-separate", HOMOGENEOUS, {"variant": "homogeneous", "x": [0.0]},
     "separation from the origin needs a nonzero point"),
    # The id it had as the fifth case, before the undeclared-exponent case
    # moved to the declaration-gate test below.
    pytest.param("witness-continuity", HOMOGENEOUS,
                 {"target": {"center": [1.0], "level": 0.5, "scale": 1.0}},
                 "target ball must be centered at the origin",
                 id="witness-continuity-base4-op4-target ball must be centered at the origin"),
])
def test_unmet_precondition_exits_two_with_its_reason(tmp_path, capsys, command, base,
                                                     op, reason):
    cfg = dict(json.loads(json.dumps(base)), operation=op)
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert (rec["verdict"], rec["reason"]) == ("infeasible", f"precondition: {reason}")


NEITHER = {"instance": {"family": "rational_from",
                        "modular": {"kind": "p_power", "p": 1.0}, "dim": 2},
           "budget": {"n_vectors": 800, "rng_seed": 0}}


@pytest.mark.parametrize("command, op", [
    ("ball-identities", {}),
    ("witness-refine", {}),
    ("witness-refine", {"outer": {"center": [0.0, 0.0], "level": 0.5, "scale": 1.0}}),
    ("witness-separate", {}),
    ("witness-separate", {"variant": "homogeneous", "x": [1.0, 0.0]}),
    ("witness-continuity", {}),
], ids=["ball-identities", "witness-refine-searched", "witness-refine-explicit",
        "witness-separate-doubling", "witness-separate-homogeneous", "witness-continuity"])
def test_undeclared_reason_matches_the_registry(tmp_path, capsys, command, op):
    # One declaration gate serves the CLI and the registry: on a space that
    # declares neither constant, each predicate that needs one reports the
    # reason the registry gives for it alone.
    cfg = dict(json.loads(json.dumps(NEITHER)), operation=op)
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2
    needs = {name: need for name, need, _ in F.PREDICATES}
    gated = [rec for rec in map(json.loads, capsys.readouterr().out.splitlines())
             if needs[rec["check"]] is not None]
    assert gated
    space = space_from_config(cfg["instance"])
    budget = SampleBudget(**cfg["budget"])
    for rec in gated:
        alone = F.run_registry(space, budget, predicates=[rec["check"]]).results[rec["check"]]
        assert (rec["verdict"], rec["reason"]) == (alone.outcome, alone.record["reason"])


def test_selections_run_at_the_whole_budget_with_the_witness_sample_count(tmp_path,
                                                                          capsys):
    # The registry caps its ball checks at 400 samples and its witnesses at
    # 50; the CLI runs the same table entries at its own budget.
    path = write_config(tmp_path, HOMOGENEOUS)
    assert cli.main(["ball-identities", "--config", path, "--samples", "1000"]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(records) == 6 and {rec["samples"] for rec in records} == {1000}
    for command in ("witness-refine", "witness-separate", "witness-continuity"):
        assert cli.main([command, "--config", path]) == 0
        for rec in map(json.loads, capsys.readouterr().out.splitlines()):
            assert rec["evidence"]["samples"] == WITNESS_SAMPLES, command


def test_a_given_x_leaves_the_default_y_at_the_seed_streams_second_draw(tmp_path, capsys):
    # Every default is drawn whether or not the operation gives its value, so
    # y is the second standard-normal draw of the seed's stream either way.
    rng = np.random.default_rng(RATIONAL["budget"]["rng_seed"])
    rng.standard_normal(2)
    y = rng.standard_normal(2).tolist()
    reports = []
    for op in ({"x": [1.0, 1.0]}, {"x": [1.0, 1.0], "y": y}):
        cfg = dict(json.loads(json.dumps(RATIONAL)), operation=op)
        assert cli.main(["witness-separate", "--config", write_config(tmp_path, cfg)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["ball_b"]["center"] == y


@pytest.mark.parametrize("command, base, unused", [
    ("witness-refine", RATIONAL, {"z": [0.1, 0.1]}),
    ("witness-separate", HOMOGENEOUS, {"variant": "homogeneous", "y": [0.5]}),
])
def test_a_valid_but_unused_operation_value_keeps_the_report(tmp_path, capsys, command,
                                                             base, unused):
    reports = []
    for op in ({key: v for key, v in unused.items() if key == "variant"}, unused):
        path = write_config(tmp_path, dict(base, operation=op))
        assert cli.main([command, "--config", path]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_one_parser_serves_a_usage_error_help_and_a_valid_call(tmp_path, capsys):
    path = write_config(tmp_path, RATIONAL)
    argv = ["check-axioms", "--config", path, "--samples", "200"]
    assert cli.main(["check-axioms"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: pmtop check-axioms")
    assert "--config" in captured.err
    assert cli.main(["check-axioms", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: pmtop check-axioms")
    assert cli.main(argv) == 0
    fresh = subprocess.run([sys.executable, "-m", "pmtop.cli", *argv],
                           capture_output=True, text=True)
    assert fresh.returncode == 0 and capsys.readouterr().out == fresh.stdout
    assert cli.build_parser() is cli.build_parser()


def test_overflowing_witness_parameter_is_infeasible_naming_it(tmp_path, capsys):
    # At beta 5e-4 the scalar window (2 |scalar|^beta)^(1/beta) overflows a float.
    cfg = json.loads(json.dumps(RATIONAL))
    cfg["instance"]["declared_beta"] = 5e-4
    assert cli.main(["witness-continuity", "--config", write_config(tmp_path, cfg)]) == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    scalar = next(rec for rec in records if rec["check"] == "scalar_continuity")
    assert scalar["verdict"] == "infeasible"
    assert scalar["reason"].startswith("witness parameter scalar window = inf ")


def test_regularity_subcommand_fails_on_step(tmp_path):
    cfg = write_config(tmp_path, STEP)
    assert cli.main(["check-regularity", "--config", cfg]) == 1


def test_delta2_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, RATIONAL)
    assert cli.main(["check-delta2", "--config", cfg]) == 0
    recs = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    by_check = {r["check"]: r for r in recs}
    assert by_check["delta2_estimate"]["estimated_c"] == pytest.approx(2.0)
    assert by_check["delta2_declared"]["verdict"] == "pass"


# The table entries each selection subcommand runs, in report order.
SELECTIONS = {"check-delta2": ["delta2_declared", "delta2_estimate"],
              "check-homogeneous": ["beta_declared"], "check-regularity": ["regularity"]}


@pytest.mark.parametrize("family, mutation", [
    ("rational_from", None), ("step_from", None),
    *((F.MUTATION_FAMILY[kind], kind) for kind in F.MUTATION_KINDS)])
def test_a_selection_reports_its_entries_as_the_registry_does(family, mutation):
    # One verdict rule per predicate: a subcommand's record is the registry's
    # record for the same entry at the same budget, except that the registry
    # files a probe's verdict as property_holds with outcome pass.
    space = F.generate_instance(2, family, mutation)
    budget = SampleBudget(n_vectors=1500, n_scalar_pairs=1500, rng_seed=2)
    run = F.run_registry(space, budget, predicates=sum(SELECTIONS.values(), []))
    for command, names in SELECTIONS.items():
        records = cli.HANDLERS[command](space, budget, {})
        assert [rec["check"] for rec in records] == names
        for name, rec in zip(names, records):
            if name in F.PROBES:
                rec = {**rec, "verdict": "pass", "property_holds": rec["verdict"] == "pass"}
            assert cli._record(name, run.results[name]) == rec, (command, name)
    if mutation == "break_pm2":
        assert run.results["delta2_estimate"].outcome == "fail"
    if family == "step_from" and mutation is None:
        assert run.results["regularity"].record["property_holds"] is False


@pytest.mark.parametrize("command, drop, check, reason", [
    ("check-delta2", "declared_c", "delta2_declared", "no declared doubling constant"),
    ("check-homogeneous", "declared_beta", "beta_declared", "no declared exponent"),
])
def test_a_selected_entry_without_its_declaration_is_infeasible(tmp_path, capsys, command,
                                                                drop, check, reason):
    cfg = json.loads(json.dumps(HOMOGENEOUS))
    del cfg["instance"][drop]
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [rec["check"] for rec in records] == SELECTIONS[command]
    assert {key: records[0][key] for key in ("check", "verdict", "reason")} == {
        "check": check, "verdict": "infeasible", "reason": reason}


@pytest.mark.parametrize("family", ["rational_from", "step_from"])
def test_check_convergence_reports_its_entry_as_the_registry_loop_does(family):
    # check-convergence is a selection of convergence_equiv: its one line is
    # that entry's record under the same operation values, the defaults
    # filled in but the grid, which the entry picks by kernel kind.  A given
    # sequence has no expected verdict, so a case passes when the two
    # criteria agree.
    space = F.generate_instance(3, family, None)
    budget = SampleBudget(n_vectors=50, n_scalar_pairs=50, rng_seed=3)
    for kind, operation in (("harmonic", {}), ("constant_offset", {}),
                            ("harmonic", {"t_grid": [0.5, 5.0], "n_max": 4096,
                                          "local_base_depth": 4})):
        seq_cfg = {"kind": kind, "base": [0.0] * space.dim,
                   "direction": [0.3] + [0.1] * (space.dim - 1)}
        (rec,) = cli.HANDLERS["check-convergence"](
            space, budget, {"operation": {"sequence": seq_cfg, **operation}})
        op = {"sequence": C.SequenceSpec(**seq_cfg), "n_max": C.N_MAX,
              "local_base_depth": C.LOCAL_BASE_DEPTH, **operation}
        inp = F.Inputs(space, budget, budget, np.random.default_rng(3), WITNESS_SAMPLES,
                       ["convergence_equiv"], op)
        assert rec == cli._record("convergence_equiv",
                                  F.run_predicates(inp)["convergence_equiv"])
        (case,) = rec["cases"]
        assert (case["kind"], case["expected"]) == (kind, None)
        assert case["topological"]["converges"] is (kind == "harmonic")
        agree = case["mu"]["converges"] == case["topological"]["converges"]
        assert rec["verdict"] == ("pass" if agree else "fail")
        default_grid = C.CONVERGENCE_GRID if family == "rational_from" else (0.1, 1, 10, 100)
        assert [r["t"] for r in case["mu"]["per_t"]] == list(op.get("t_grid", default_grid))
        assert len(case["topological"]["per_ball"]) == op["local_base_depth"] - 1


def test_check_convergence_sees_a_constant_offset_on_a_step_space(tmp_path, capsys):
    # The step kernel reads 1 at every offset whose sigma is below t, so a
    # grid starting at 10 calls this constant offset, of sigma 0.19,
    # convergent while the topological criterion does not; the entry's step
    # grid starts at 0.1 and sees it, so both criteria agree.
    space = F.generate_instance(0, "step_from")
    assert space.dim == 1 and 0.1 < space.sigma1([0.3]) < 10
    cfg = {"instance": space.to_config(), "budget": {"rng_seed": 0},
           "operation": {"sequence": {"kind": "constant_offset", "base": [0.0],
                                      "direction": [0.3]}}}
    path = write_config(tmp_path, cfg)
    assert cli.main(["check-convergence", "--config", path]) == 0
    (rec,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (case,) = rec["cases"]
    assert case["mu"]["converges"] is False and case["topological"]["converges"] is False
    assert [r["t"] for r in case["mu"]["per_t"]] == [0.1, 1.0, 10.0, 100.0]
    cfg["operation"]["t_grid"] = list(C.CONVERGENCE_GRID)
    assert cli.main(["check-convergence", "--config", write_config(tmp_path, cfg)]) == 1


def test_falsify_fails_the_doubling_estimate_when_no_candidate_holds(tmp_path, capsys):
    cfg = json.loads(json.dumps(RATIONAL))
    cfg["operation"] = {"mutation": "break_pm2", "predicates": ["delta2_estimate"]}
    assert cli.main(["falsify", "--config", write_config(tmp_path, cfg)]) == 1
    (rec,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert (rec["check"], rec["verdict"], rec["estimated_c"]) == ("delta2_estimate", "fail",
                                                                  None)


def test_falsify_on_valid_step_instance_reports_probe_findings_as_data(tmp_path):
    # The regularity probe's negative finding on a step family is data,
    # not a violation: the record keeps verdict pass with the flag false,
    # and the run exits 2 only because regularity-based witnesses are
    # infeasible there.
    path = write_config(tmp_path, STEP)
    out = str(tmp_path / "report.ndjson")
    assert cli.main(["falsify", "--config", path, "--out", out]) == 2
    by_check = {r["check"]: r
                for r in (json.loads(l)
                          for l in Path(out).read_text(encoding="utf-8").splitlines())}
    assert by_check["regularity"]["verdict"] == "pass"
    assert by_check["regularity"]["property_holds"] is False
    assert by_check["homogeneous_separation"]["verdict"] == "infeasible"
    assert all(r["verdict"] != "fail" for r in by_check.values())


def test_falsify_records_follow_the_predicate_table(tmp_path):
    path = write_config(tmp_path, HOMOGENEOUS)
    out = tmp_path / "report.ndjson"
    assert cli.main(["falsify", "--config", path, "--out", str(out)]) == 0
    checks = [json.loads(l)["check"] for l in out.read_text().splitlines()]
    assert checks == list(F.PREDICATE_NAMES)


def test_module_entrypoint_runs_as_subprocess(tmp_path):
    cfg = write_config(tmp_path, RATIONAL)
    proc = subprocess.run(
        [sys.executable, "-m", "pmtop.cli", "check-axioms", "--config", cfg,
         "--samples", "200"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.count("\n") >= 4


# -- every number field is typed -------------------------------------------------

P_POWER = {"family": "rational_from", "modular": {"kind": "p_power", "p": 1.0},
           "dim": 1, "declared_c": 2.0, "declared_beta": 1.0}
WEIGHTED = {"family": "rational_from", "modular": {"kind": "weighted_abs", "weights": [1.0]},
            "dim": 1, "declared_c": 2.0, "declared_beta": 1.0}
LIST_GRID = {"n_vectors": 20, "n_scalar_pairs": 20, "t_grid": [0.5, 2.0],
             "epsilon": 1e-9, "rng_seed": 0}
OBJECT_GRID = dict(LIST_GRID, t_grid={"min": 0.5, "max": 2.0, "count": 3})
BALL = {"center": [0.0], "level": 0.5, "scale": 1.0}

# One valid config per subcommand with every optional number field present;
# the two modular kinds and the two t_grid forms alternate between them.
FULL_CONFIGS = {
    "check-axioms": (P_POWER, LIST_GRID, {"mutation": "break_pm3"}),
    "check-delta2": (WEIGHTED, OBJECT_GRID, {"candidates": [2.0, 4.0]}),
    "check-homogeneous": (P_POWER, OBJECT_GRID, {"beta": 1.0}),
    "check-regularity": (WEIGHTED, LIST_GRID, {}),
    "ball-identities": (P_POWER, LIST_GRID,
                        {"level": 0.4, "scale": 1.0, "level2": 0.7, "scale2": 2.0}),
    "witness-refine": (WEIGHTED, OBJECT_GRID, {"outer": BALL, "z": [0.1]}),
    "witness-separate": (P_POWER, OBJECT_GRID, {"x": [1.0], "y": [-1.0]}),
    "witness-continuity": (WEIGHTED, LIST_GRID, {"target": BALL, "scalar": 2.0}),
    "check-convergence": (P_POWER, LIST_GRID, {
        "sequence": {"kind": "geometric", "base": [0.0], "direction": [0.3],
                     "ratio": 0.5, "candidate_limit": [0.0]},
        "t_grid": [1.0, 10.0], "n_max": 64, "local_base_depth": 3}),
    "falsify": (WEIGHTED, OBJECT_GRID, {"predicates": ["pm1"]}),
}
assert set(FULL_CONFIGS) == set(cli.SUBCOMMANDS)


def number_leaves(node, path):
    """(path, keys) of every number leaf of a JSON value; a path is dotted,
    with [i] for a list entry."""
    if isinstance(node, dict):
        items = [(f"{path}.{k}", k, v) for k, v in node.items()]
    elif isinstance(node, list):
        items = [(f"{path}[{i}]", i, v) for i, v in enumerate(node)]
    else:
        return [(path, ())] if isinstance(node, (int, float)) else []
    return [(p, (k,) + keys) for p, k, v in items for p, keys in number_leaves(v, p)]


def full_config(command):
    instance, budget, operation = FULL_CONFIGS[command]
    return json.loads(json.dumps({"instance": instance, "budget": budget,
                                  "operation": operation}))


@pytest.mark.parametrize("command", cli.SUBCOMMANDS)
def test_every_number_field_rejects_a_bool(tmp_path, capsys, command):
    # Walked from the config, so a new number field is covered without a test
    # edit.  True is not the number 1: each leaf must be a config error that
    # names its path, before any report is written.
    out = tmp_path / "valid.ndjson"
    path = write_config(tmp_path, full_config(command))
    assert cli.main([command, "--config", path, "--out", str(out)]) in (0, 1, 2)
    assert out.exists()
    leaves = number_leaves(full_config(command), "")
    assert len(leaves) >= 7
    for path, keys in leaves:
        path = path[1:]
        cfg = full_config(command)
        node = cfg
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = True
        out = tmp_path / "report.ndjson"
        code = cli.main([command, "--config", write_config(tmp_path, cfg),
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, out.exists()) == (3, False), path
        assert captured.err.startswith(f"error: {path} "), (path, captured.err)


# -- config fuzz ----------------------------------------------------------------

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=5)

OPERATION_KEYS = {
    "check-axioms": ("mutation",), "check-delta2": ("candidates",),
    "check-homogeneous": ("beta",), "check-regularity": (),
    "ball-identities": ("level", "scale", "level2", "scale2"),
    "witness-refine": ("outer", "z"), "witness-separate": ("x", "y", "variant"),
    "witness-continuity": ("target", "scalar"),
    "check-convergence": ("sequence", "t_grid", "n_max", "local_base_depth"),
    "falsify": ("mutation", "predicates"),
}
assert set(OPERATION_KEYS) == set(cli.SUBCOMMANDS)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


def points(dim):
    return st.lists(floats(-3.0, 3.0), min_size=dim, max_size=dim)


def counts(lo, hi, bound):
    """A small count in [lo, hi], or one time in four a count past the
    validation bound, which must be a config error and not an allocation."""
    small = st.integers(lo, hi)
    return st.one_of(small, small, small, st.integers(bound + 1, 10 ** 30))


@st.composite
def configs(draw):
    """(subcommand, config): in half the cases every value is plausible; in
    the others each value is any JSON value one time in four."""
    noisy = draw(st.booleans())

    def maybe(plausible):
        return st.one_of(plausible, plausible, plausible, JUNK) if noisy else plausible

    def vectors(dim):
        # A noisy vector may have the wrong dimension.
        return st.integers(1, 3).flatmap(points) if noisy else points(dim)

    def balls(dim):
        return st.fixed_dictionaries({"center": maybe(vectors(dim)),
                                      "level": maybe(floats(0.05, 0.95)),
                                      "scale": maybe(floats(0.1, 5.0))})

    command = draw(st.sampled_from(cli.SUBCOMMANDS))
    dim = draw(st.integers(1, 3))
    modular = draw(st.one_of(
        st.fixed_dictionaries({"kind": maybe(st.just("p_power")),
                               "p": maybe(st.sampled_from([1.0, 2.0, 3.0]))}),
        st.fixed_dictionaries({"kind": maybe(st.just("weighted_abs")),
                               "weights": maybe(st.lists(floats(0.1, 3.0),
                                                         min_size=dim,
                                                         max_size=dim))})))
    instance = draw(st.fixed_dictionaries(
        {"family": maybe(st.sampled_from(["rational_from", "step_from"])),
         "modular": maybe(st.just(modular)), "dim": maybe(st.just(dim))},
        optional={"declared_c": maybe(st.sampled_from([0.5, 2.0, 4.0])),
                  "declared_beta": maybe(st.sampled_from([0.5, 1.0, 1.5]))}))
    budget = draw(st.fixed_dictionaries({}, optional={
        "n_vectors": maybe(counts(1, 24, MAX_SAMPLES)),
        "n_scalar_pairs": maybe(counts(1, 24, MAX_SAMPLES)),
        "t_grid": maybe(st.one_of(
            st.lists(floats(1e-3, 1e3), min_size=1, max_size=4).map(sorted),
            st.fixed_dictionaries({"min": floats(1e-3, 1.0), "max": floats(2.0, 1e3),
                                   "count": counts(2, 8, MAX_GRID_COUNT)}))),
        "epsilon": maybe(floats(1e-12, 0.3)),
        "rng_seed": maybe(st.integers(0, 5))}))
    values = {
        "mutation": st.sampled_from(F.MUTATION_KINDS + ("break_nothing",)),
        "candidates": st.lists(floats(0.5, 16.0), max_size=3),
        "beta": floats(0.1, 1.0),
        "level": floats(0.05, 0.95), "level2": floats(0.05, 0.95),
        "scale": floats(0.1, 5.0), "scale2": floats(0.1, 5.0),
        "outer": balls(dim), "target": balls(dim),
        "x": vectors(dim), "y": vectors(dim), "z": vectors(dim),
        "variant": st.sampled_from(["doubling", "homogeneous", "other"]),
        "scalar": floats(-5.0, 5.0),
        "sequence": st.fixed_dictionaries(
            {"kind": st.sampled_from(["harmonic", "constant_offset", "alternating",
                                      "geometric", "spiral"]),
             "base": maybe(vectors(dim)), "direction": maybe(vectors(dim))},
            optional={"ratio": maybe(floats(0.1, 0.9)),
                      "candidate_limit": maybe(vectors(dim))}),
        "t_grid": st.lists(floats(0.01, 10.0), min_size=1, max_size=4),
        "n_max": counts(1, 64, MAX_N_MAX),
        "local_base_depth": counts(0, 6, MAX_LOCAL_BASE_DEPTH),
        "predicates": st.lists(st.sampled_from(F.PREDICATE_NAMES), min_size=1,
                               max_size=3),
        "unknown": JUNK,
    }
    optional = OPERATION_KEYS[command] + (("unknown",) if noisy else ())
    keys = draw(st.lists(st.sampled_from(optional), unique=True, max_size=3)
                if optional else st.just([]))
    if command == "check-convergence" and "sequence" not in keys:
        keys.append("sequence")
    operation = {k: draw(maybe(values[k])) for k in keys}
    cfg = {"instance": draw(maybe(st.just(instance))),
           "budget": draw(maybe(st.just(budget))),
           "operation": draw(maybe(st.just(operation)))}
    return command, draw(maybe(st.just(cfg)))


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_any_config_keeps_the_exit_code_and_report_contract(case):
    # Exit 0-3 and no uncaught exception; every report line is strict JSON
    # in canonical form; a config error writes no report.
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "report.ndjson"
        path.write_text(json.dumps(cfg))
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if code == 3:
            assert not out.exists()
            return
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line, parse_constant=_reject_constant)
            assert cli.canonical_line(rec) == line
