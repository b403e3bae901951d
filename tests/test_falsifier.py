"""Mutation kinds, target selectivity among the axioms, registry outcome
discipline, and byte-level reproducibility."""

from dataclasses import replace

import numpy as np
import pytest

import pmtop as p
import pmtop.falsifier as F
from pmtop.pmspace import AXIOMS

BUDGET = p.SampleBudget(n_vectors=3000, n_scalar_pairs=3000, rng_seed=1)


def test_valid_instances_pass_every_predicate():
    for family in ("rational_from", "step_from"):
        inst = F.generate_instance(1, family, None)
        run = p.run_registry(inst, BUDGET)
        assert run.failures() == []
        assert all(r.outcome in ("pass", "fail", "infeasible")
                   for r in run.results.values())


def test_valid_step_instance_reports_regularity_witnesses_infeasible():
    inst = F.generate_instance(3, "step_from", None)
    run = p.run_registry(inst, BUDGET)
    assert run.results["homogeneous_separation"].outcome == "infeasible"
    assert run.results["regularity"].record["property_holds"] is False
    assert run.results["delta2_declared"].outcome == "pass"


@pytest.mark.parametrize("mutation", p.MUTATION_KINDS)
def test_each_mutation_breaks_exactly_its_axiom_target(mutation):
    inst = F.generate_instance(1, F.MUTATION_FAMILY[mutation], mutation)
    run = p.run_registry(inst, BUDGET)
    target = p.MUTATION_TARGETS[mutation]
    assert run.results[target].outcome == "fail"
    for axiom in ("pm1", "pm2", "pm3", "pm4"):
        if axiom != target:
            assert run.results[axiom].outcome == "pass", (mutation, axiom)


def test_floor_mutation_pins_value_at_zero():
    inst = F.generate_instance(0, "rational_from", "break_pm1")
    x = np.ones(inst.dim)
    assert inst.mu_matrix(x[None], [0.0])[0, 0] == pytest.approx(0.1)


def test_deadzone_mutation_exhibits_a_stuck_nonzero_point():
    inst = F.generate_instance(0, "rational_from", "break_pm2")
    small = np.full(inst.dim, 0.01)
    assert np.all(inst.mu_matrix(small[None], [1e-3, 1.0, 1e3]) == 1.0)


def test_drift_mutation_is_asymmetric_pointwise():
    inst = F.generate_instance(0, "rational_from", "break_pm3")
    rng = np.random.default_rng(0)
    x = rng.standard_normal(inst.dim)
    assert inst.sigma1(x) != pytest.approx(inst.sigma1(-x), abs=1e-12)


def test_shell_bump_violates_convex_subadditivity_by_hand():
    # Endpoints just outside the bump shell, midpoint inside: the bumped
    # value 5 * rho(mid) exceeds the endpoint total.
    inst = F.generate_instance(0, "rational_from", "break_pm4")
    rho = inst.modular_map.rho
    x = np.zeros(inst.dim); x[0] = 1.05
    y = np.zeros(inst.dim); y[0] = 0.35
    mid = 0.5 * x + 0.5 * y
    sig = rho.rho(np.stack([x, y, mid]))
    assert sig[2] > sig[0] + sig[1]


def test_declared_constant_mutation_is_detected_and_estimable():
    inst = F.generate_instance(0, "rational_from", "break_delta2_declaration")
    assert inst.declared_c == pytest.approx(2.0)
    assert not p.check_delta2_declared(inst, BUDGET).passed
    assert p.find_delta2_constant(inst, BUDGET) == pytest.approx(4.0)


def test_left_continuity_mutation_requires_step_family():
    rational = F.generate_instance(0, "rational_from", None)
    with pytest.raises(ValueError):
        p.apply_mutation(rational, "break_left_continuity", seed=0)


def test_unknown_mutation_rejected():
    inst = F.generate_instance(0, "rational_from", None)
    with pytest.raises(ValueError):
        p.apply_mutation(inst, "break_everything", seed=0)


def test_generated_instances_are_deterministic_per_seed():
    a = F.generate_instance(5, "rational_from", "break_pm3")
    b = F.generate_instance(5, "rational_from", "break_pm3")
    assert a.to_config() == b.to_config()
    assert F.generate_instance(6, "rational_from", None).to_config() \
        != F.generate_instance(7, "rational_from", None).to_config() or True


def test_registry_runs_are_byte_identical():
    inst = F.generate_instance(2, "rational_from", "break_pm4")
    one = p.run_registry(inst, BUDGET).to_json()
    two = p.run_registry(inst, BUDGET).to_json()
    assert one == two


def test_a_registry_run_with_a_non_finite_record_is_not_written_as_json():
    # Strict JSON has no NaN or Infinity tokens: to_json raises, as the CLI's
    # report lines do, instead of writing a line a strict parser rejects.
    run = p.run_registry(F.generate_instance(2, "rational_from", None), BUDGET,
                         predicates=["pm1"])
    run.to_json()
    for bad in (float("nan"), float("inf")):
        run.results["pm1"] = F.PredicateResult("pass", {"gap": bad})
        with pytest.raises(ValueError, match="JSON compliant"):
            run.to_json()


def test_registry_subset_runs_only_requested_predicates():
    inst = F.generate_instance(2, "rational_from", None)
    run = p.run_registry(inst, BUDGET, predicates=["pm3"])
    assert set(run.results) == {"pm3"}


def test_registry_rejects_an_unknown_predicate():
    inst = F.generate_instance(2, "rational_from", None)
    with pytest.raises(ValueError, match="pm5"):
        p.run_registry(inst, BUDGET, predicates=["pm3", "pm5"])


def test_registry_follows_the_table_and_computes_the_axioms_once(monkeypatch):
    # Builders look check_axioms up when they run, so the counting double is
    # seen; the axiom predicates a run requests share one report, which
    # computes exactly those axioms.
    calls = []

    def counting(space, budget, axioms=AXIOMS):
        calls.append((budget.rng_seed, axioms))
        return p.check_axioms(space, budget, axioms)

    monkeypatch.setattr(F, "check_axioms", counting)
    inst = F.generate_instance(2, "rational_from", None)
    small = replace(BUDGET, n_vectors=300, n_scalar_pairs=300)
    run = p.run_registry(inst, small)
    assert list(run.results) == list(F.PREDICATE_NAMES)
    assert calls == [(small.rng_seed, AXIOMS)]
    run = p.run_registry(inst, small, predicates=["separation", "pm4", "pm2"])
    assert list(run.results) == ["pm2", "pm4", "separation"]
    assert calls[1:] == [(small.rng_seed, ("pm2", "pm4"))]


def counted_kernel(monkeypatch):
    """The shape of every kernel evaluation made from now on."""
    shapes = []
    kernel = p.PMSpace.kernel

    def counting(space, T, S):
        out = kernel(space, T, S)
        shapes.append(np.shape(out))
        return out

    monkeypatch.setattr(p.PMSpace, "kernel", counting)
    return shapes


def test_pm1_run_makes_one_kernel_evaluation_and_none_over_the_grid(monkeypatch):
    inst = F.generate_instance(0, "rational_from", "break_pm1")
    shapes = counted_kernel(monkeypatch)
    run = p.run_registry(inst, BUDGET, predicates=["pm1"])
    assert run.results["pm1"].outcome == "fail"
    assert shapes == [(BUDGET.n_vectors,)]


@pytest.mark.parametrize("family", ["rational_from", "step_from"])
def test_valid_pm3_never_evaluates_the_kernel_at_sigma_of_minus_x(monkeypatch, family):
    # sigma(-x) has the bits of sigma(x) on a valid instance, so every pm3
    # gap is known to be 0 without a kernel evaluation.
    inst = F.generate_instance(1, family, None)
    shapes = counted_kernel(monkeypatch)
    run = p.run_registry(inst, BUDGET, predicates=["pm3"])
    assert run.results["pm3"].outcome == "pass"
    assert sum(int(np.prod(shape)) for shape in shapes) == 0


def test_valid_pm2_evaluates_the_grid_on_no_sample(monkeypatch):
    # Every sample is below 1 at the first grid point, so none is stuck.
    inst = F.generate_instance(1, "rational_from", None)
    shapes = counted_kernel(monkeypatch)
    run = p.run_registry(inst, BUDGET, predicates=["pm2"])
    assert run.results["pm2"].outcome == "pass"
    # The zero vector over the grid, then every sample at the first grid
    # point; no sample's row is evaluated over the grid, in a block or not.
    grid = len(BUDGET.t_grid)
    assert shapes[:2] == [(1, grid), (BUDGET.n_vectors,)]
    assert [s for s in shapes[2:] if len(s) == 2 and s[0] > 0] == []


def test_axiom_predicates_are_never_infeasible():
    # A shape bug in an axiom part raises ValueError, which the registry
    # would file as infeasible, and no false alarm would show it.
    budget = replace(BUDGET, n_vectors=1000, n_scalar_pairs=1000)
    instances = [F.generate_instance(seed, ("rational_from", "step_from")[seed % 2], None)
                 for seed in range(8)]
    instances += [F.generate_instance(seed, "rational_from", f"break_pm{seed % 4 + 1}")
                  for seed in range(8)]
    for i, inst in enumerate(instances):
        run = p.run_registry(inst, budget, predicates=list(AXIOMS))
        outcomes = {name: r.outcome for name, r in run.results.items()}
        want = dict.fromkeys(AXIOMS, "pass")
        if i >= 8:
            want[f"pm{i % 4 + 1}"] = "fail"
        assert outcomes == want, (i, run.results)
        for name in AXIOMS:
            alone = p.run_registry(inst, budget, predicates=[name]).results[name]
            assert alone.to_record() == run.results[name].to_record()


def test_declaration_predicates_are_never_infeasible():
    # The doubling, homogeneity and admissibility predicates share a scan or
    # a batch; a shape bug there raises ValueError, which the registry would
    # file as infeasible, and no false alarm would show it.
    names = ["delta_membership", "delta2_declared", "delta2_estimate", "beta_declared"]
    budget = replace(BUDGET, n_vectors=1000, n_scalar_pairs=1000)
    instances = [inst for inst in (F.generate_instance(seed, ("rational_from",
                                                              "step_from")[seed % 2])
                                   for seed in range(40))
                 if inst.declared_beta is not None][:8]
    assert len(instances) == 8
    for inst in instances:
        run = p.run_registry(inst, budget)
        assert {name: run.results[name].outcome for name in names} == dict.fromkeys(
            names, "pass"), run.results
        for name in names:
            alone = p.run_registry(inst, budget, predicates=[name]).results[name]
            assert alone.to_record() == run.results[name].to_record()
    for seed in range(3):
        inst = F.generate_instance(seed, "rational_from", "break_delta2_declaration")
        run = p.run_registry(inst, budget, predicates=["delta2_declared", "delta2_estimate"])
        assert run.results["delta2_declared"].outcome == "fail"
        assert run.results["delta2_estimate"].record["estimated_c"] == 4.0


@pytest.mark.parametrize("exc, outcome, reason", [
    (ValueError("boom"), "fail", "unexpected error: ValueError('boom')"),
    (KeyError("k"), "fail", "unexpected error: KeyError('k')"),
    (p.PreconditionError("unmet"), "infeasible", "precondition: unmet"),
    (p.VerificationError("starved"), "infeasible", "precondition: starved"),
    (p.InfeasibleConstruction("no split"), "infeasible", "no split"),
    # A bad field reaching a predicate is a programming error, never infeasible.
    (p.FieldError("scale must be positive"), "fail",
     "unexpected error: FieldError('scale must be positive')"),
])
def test_guard_files_only_typed_errors_as_infeasible(monkeypatch, exc, outcome, reason):
    # A bare ValueError is a fault in the predicate, not an unmet
    # precondition: it fails the predicate and the run goes on.
    def build(inp):
        raise exc

    monkeypatch.setattr(F, "PREDICATES", tuple(
        (name, needs, build if name == "separation" else builder)
        for name, needs, builder in F.PREDICATES))
    run = p.run_registry(F.generate_instance(1, "rational_from"), BUDGET,
                         predicates=["pm1", "separation"])
    assert run.results["separation"].to_record() == {"outcome": outcome,
                                                      "reason": reason}
    assert run.results["pm1"].outcome == "pass"


def test_refinement_predicates_without_a_feasible_input_are_infeasible():
    # With c = 1e6 no sampled input clears the doubling chain's anchor.
    inst = replace(F.generate_instance(0, "rational_from", None), declared_c=1e6)
    run = p.run_registry(inst, BUDGET, predicates=["refine_ball", "basis_intersection"])
    assert {name: r.to_record() for name, r in run.results.items()} == {
        "refine_ball": {"outcome": "infeasible",
                        "reason": "no feasible refinement input found"},
        "basis_intersection": {"outcome": "infeasible",
                               "reason": "no feasible intersection input"}}


def test_missing_declarations_make_exactly_the_dependent_predicates_infeasible():
    inst = replace(F.generate_instance(2, "rational_from", None),
                   declared_c=None, declared_beta=None)
    run = p.run_registry(inst, BUDGET)
    reasons = {"declared_c": "no declared doubling constant",
               "declared_beta": "no declared exponent"}
    undeclared = {name: {"reason": reasons[need]}
                  for name, need, _ in F.PREDICATES if need is not None}
    assert {name: r.record for name, r in run.results.items()
            if r.record.get("reason") in reasons.values()} == undeclared
    assert all(run.results[name].outcome == "infeasible" for name in undeclared)


def test_registry_never_crashes_on_any_mutation():
    for mutation in p.MUTATION_KINDS:
        inst = F.generate_instance(4, F.MUTATION_FAMILY[mutation], mutation)
        run = p.run_registry(inst, replace(BUDGET, n_vectors=500,
                                           n_scalar_pairs=500))
        assert set(r.outcome for r in run.results.values()) <= {
            "pass", "fail", "infeasible"}


def test_detection_rate_helper_quick():
    assert p.detection_rate("break_pm1", 5, replace(BUDGET, n_vectors=500)) == 5


def test_random_scale_witnesses_with_every_sampler_starved_are_infeasible():
    # At epsilon 0.9 every member sampler starves: with no pair tested, the
    # quantifier is vacuous and must not decide a pass.
    budget = p.SampleBudget(n_vectors=2000, n_scalar_pairs=2000, epsilon=0.9)
    run = p.run_registry(F.generate_instance(0, "rational_from"), budget,
                         predicates=["scale_witness_random"])
    result = run.results["scale_witness_random"]
    assert result.outcome == "infeasible" and "starved" in result.record["reason"]


def test_a_true_doubling_constant_too_large_to_double_raises_no_false_alarm():
    # The true constant is 2, so 1e308 is a doubling constant too; 2 * 1e308
    # overflows, and the separation scale must not go through it.
    space = replace(F.generate_instance(0, "rational_from"), declared_c=1e308)
    run = p.run_registry(space, p.SampleBudget(n_vectors=2000, n_scalar_pairs=2000))
    assert run.failures() == []
    assert run.results["separation"].outcome == "pass"
