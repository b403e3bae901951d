"""CLI: config validation, exit codes, canonical report round-trips."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import pmtop.falsifier as F
from pmtop import cli


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
                                    {"t_grid": {"min": 1, "max": 10, "count": 2.5}}])
def test_non_finite_budget_is_a_config_error(tmp_path, capsys, budget):
    # json.dumps writes Infinity, which json.load accepts; the budget must not.
    cfg = json.loads(json.dumps(RATIONAL))
    cfg["budget"].update(budget)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "report.ndjson"
    assert cli.main(["check-axioms", "--config", path, "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().out == ""


SEQUENCE = {"kind": "harmonic", "base": [0.0, 0.0], "direction": [0.3, 0.1]}


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
    assert captured.out == "" and "operation." in captured.err


@pytest.mark.parametrize("instance", [
    {"dim": 1.5},
    {"dim": True},
    {"modular": {"kind": "p_power", "p": True}},
    {"modular": {"kind": "weighted_abs", "weights": [True]}},
    {"modular": {"kind": "weighted_abs", "weights": 1.0}},
    {"declared_c": True},
    {"declared_beta": True},
    {"declared_beta": "1"},
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
    cfg = json.loads(json.dumps(HOMOGENEOUS))
    cfg["operation"] = {"sequence": {"kind": kind, "base": [0.0], "direction": [0.3]},
                        "local_base_depth": 1}
    path = write_config(tmp_path, cfg)
    assert cli.main(["check-convergence", "--config", path]) == 2
    by_check = {r["check"]: r for r in (
        json.loads(l) for l in capsys.readouterr().out.splitlines())}
    assert by_check["topological_convergence"]["vacuous"] is True
    equivalence = by_check["convergence_equivalence"]
    assert equivalence["verdict"] == "infeasible"
    assert "vacuous" in equivalence["reason"]


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
