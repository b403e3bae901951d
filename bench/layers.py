"""Per-layer metrics derived from a trace, and the tracer's self-test.

The counts that need more than a span (violation records, sampler accept
ratio, registry outcomes, report bytes) are taken by ``observe`` from the
arguments and results of the wrapped calls, where the work happens.
"""

from __future__ import annotations

from typing import Any

from tracer import LAYERS, Tracer

MB = 1024.0 * 1024.0

TOPOLOGY_OPS = ("refine_ball", "separation_witness", "homogeneous_separation_witness",
                "addition_continuity_witness", "scalar_continuity_witness",
                "basis_intersection_witness", "local_base_containment")

BALL_CHECKS = ("translate_identity", "scaling_identity", "monotone_in_scale",
               "monotone_in_level", "is_balanced_sampled", "is_convex_sampled")

# pmspace functions whose returned reports hold the violation records they
# built.  check_delta2_declared is left out of "built": its records come from
# delta2_violations, which is counted on its own.
REPORTS_BUILT = ("pmspace.check_axioms", "pmspace.check_beta_homogeneous",
                 "pmspace.check_space_regularity")
REPORTS_KEPT = REPORTS_BUILT + ("pmspace.check_delta2_declared",)

ALLOC_NAMES = frozenset({"pmspace.check_axioms"})


def _report_parts(rep: Any) -> list[Any]:
    return list(rep.parts.values()) if rep.parts else [rep]


def observe(tracer: Tracer, name: str, args: tuple, kwargs: dict, result: Any) -> None:
    counts = tracer.counts
    if name == "pmspace.delta2_violations":
        counts["violation_records.built"] += len(result)
    if name in REPORTS_BUILT:
        counts["violation_records.built"] += sum(p.n_violations for p in _report_parts(result))
    if name in REPORTS_KEPT:
        counts["violation_records.kept"] += sum(len(p.violations) for p in _report_parts(result))
    elif name == "balls.contains_many" and tracer.inside("balls.sample_members"):
        counts["sample_members.candidates"] += len(args[1])
    elif name == "balls.sample_members":
        counts["sample_members.returned"] += len(result)
    elif name == "falsifier.run_registry":
        for res in result.results.values():
            counts[f"outcome.{res.outcome}"] += 1
    elif name == "cli.main":
        argv = args[0] if args else kwargs.get("argv")
        if argv and "--out" in argv:
            with open(argv[argv.index("--out") + 1], "rb") as fh:
                counts["cli.report_bytes"] += len(fh.read())


def new_tracer(package: Any, track_alloc: bool) -> Tracer:
    return Tracer(package, observe=observe,
                  alloc_names=ALLOC_NAMES if track_alloc else frozenset())


# (metric name, unit); BENCHMARK.json lists the same names.
PER_LAYER_UNITS: dict[str, str] = {
    "pmspace.kernel.calls": "count",
    "pmspace.kernel.points_per_call": "count",
    "pmspace.check_axioms.self_s": "s",
    "pmspace.check_axioms.peak_alloc_mb": "MB",
    "pmspace.find_delta2_constant.self_s": "s",
    "pmspace.delta2_violations.self_s": "s",
    "pmspace.check_beta_homogeneous.self_s": "s",
    "pmspace.check_space_regularity.self_s": "s",
    "pmspace.violation_records.built": "count",
    "pmspace.violation_records.kept": "count",
    "balls.smaller_scale_witness.calls": "count",
    "balls.smaller_scale_witness.self_s": "s",
    "balls.smaller_scale_witness.kernel_calls_per_call": "count",
    "balls.sample_members.calls": "count",
    "balls.sample_members.self_s": "s",
    "balls.sample_members.accept_ratio": "ratio",
    "balls.sample_members.starved": "count",
    "balls.ball_checks.self_s": "s",
    **{f"topology.{op}.{m}": u for op in TOPOLOGY_OPS
       for m, u in (("self_s", "s"), ("infeasible", "count"))},
    "convergence.check_mu_convergence.self_s": "s",
    "convergence.check_topological_convergence.self_s": "s",
    "distfn.check_delta_membership.calls": "count",
    "distfn.check_delta_membership.self_s": "s",
    "falsifier.run_registry.self_s": "s",
    "falsifier.generate_instance.self_s": "s",
    "falsifier.outcomes.pass": "count",
    "falsifier.outcomes.fail": "count",
    "falsifier.outcomes.infeasible": "count",
    "cli.main.self_s": "s",
    "cli.report_bytes": "bytes",
    **{f"layer.{layer}.{m}": u for layer in LAYERS
       for m, u in (("self_s", "s"), ("calls", "count"))},
    "trace.untraced_ops_per_s": "ops/s",
    "trace.traced_ops_per_s": "ops/s",
    "trace.slowdown": "ratio",
    "error_ratio": "ratio",
}


def layer_metrics(timed: Tracer, alloc: Tracer) -> dict[str, float]:
    """Per-layer values: times from the plain traced pass, peak allocation
    from the tracemalloc pass (which slows the calls it measures)."""
    st, c = timed.stat, timed.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ssw = st("balls.smaller_scale_witness")
    sm = st("balls.sample_members")
    out = {
        "pmspace.kernel.calls": c["kernel.calls"],
        "pmspace.kernel.points_per_call": ratio(c["kernel.points"], c["kernel.calls"]),
        "pmspace.check_axioms.self_s": st("pmspace.check_axioms").self_s,
        "pmspace.check_axioms.peak_alloc_mb":
            alloc.stat("pmspace.check_axioms").peak_alloc_bytes / MB,
        "pmspace.violation_records.built": c["violation_records.built"],
        "pmspace.violation_records.kept": c["violation_records.kept"],
        "balls.smaller_scale_witness.calls": ssw.calls,
        "balls.smaller_scale_witness.self_s": ssw.self_s,
        "balls.smaller_scale_witness.kernel_calls_per_call": ratio(ssw.kernel_calls, ssw.calls),
        "balls.sample_members.calls": sm.calls,
        "balls.sample_members.self_s": sm.self_s,
        "balls.sample_members.accept_ratio": ratio(c["sample_members.returned"],
                                                   c["sample_members.candidates"]),
        "balls.sample_members.starved": sm.raised["VerificationError"],
        "balls.ball_checks.self_s": sum(st(f"balls.{n}").self_s for n in BALL_CHECKS),
        "distfn.check_delta_membership.calls": st("distfn.check_delta_membership").calls,
        "falsifier.outcomes.pass": c["outcome.pass"],
        "falsifier.outcomes.fail": c["outcome.fail"],
        "falsifier.outcomes.infeasible": c["outcome.infeasible"],
        "cli.report_bytes": c["cli.report_bytes"],
    }
    for name in ("pmspace.find_delta2_constant", "pmspace.delta2_violations",
                 "pmspace.check_beta_homogeneous", "pmspace.check_space_regularity",
                 "convergence.check_mu_convergence",
                 "convergence.check_topological_convergence",
                 "distfn.check_delta_membership", "falsifier.run_registry",
                 "cli.main"):
        out[f"{name}.self_s"] = st(name).self_s
    for op in TOPOLOGY_OPS:
        out[f"topology.{op}.self_s"] = st(f"topology.{op}").self_s
        out[f"topology.{op}.infeasible"] = st(f"topology.{op}").raised["InfeasibleConstruction"]
    for layer, entry in timed.rollup().items():
        out[f"layer.{layer}.self_s"] = entry["self_s"]
        out[f"layer.{layer}.calls"] = entry["calls"]
    return out


def self_test(package: Any, workloads: dict[str, Any], seed: int, workdir: str) -> list[str]:
    """Span counts for fixed ops against counts derived by hand from the code.

    Each expectation goes through a binding outside the defining module, so
    a tracer that wrapped only ``pmtop.balls.sample_members`` (and not
    ``pmtop.topology.sample_members``) would fail it.
    """
    problems: list[str] = []
    wb = workloads["witness_batch"]
    mut = workloads["registry_mutated"]
    bulk = workloads["axiom_bulk"]
    witness_in = wb.inputs(seed, workdir)[0]
    mutated_in = next(i for i in mut.inputs(seed, workdir) if i[2] == "pm1")
    bulk_in = next(i for i in bulk.inputs(seed, workdir) if i[0] == "check-axioms")
    space = witness_in["hspace"]
    budget = witness_in["budget"]

    cases = [
        # refine_ball 1 + separation 2 + homogeneous separation 2 + addition 2
        # + scalar 1 + basis_intersection (2 refine_ball + 1) = 11 samplers;
        # basis_intersection_witness calls refine_ball through topology's
        # module global, so refine_ball runs 3 times.
        ("witness_batch op", lambda: wb.run(witness_in),
         {"balls.sample_members": 11, "topology.refine_ball": 3,
          "topology.separation_witness": 1, "topology.basis_intersection_witness": 1,
          "pmspace.check_axioms": 0}),
        # run_registry with only pm1 runs check_axioms once, via falsifier's binding.
        ("registry_mutated pm1 op", lambda: mut.run(mutated_in),
         {"falsifier.run_registry": 1, "pmspace.check_axioms": 1,
          "balls.sample_members": 0}),
        # the CLI handler calls check_axioms through cli's binding.
        ("axiom_bulk check-axioms op", lambda: bulk.run(bulk_in),
         {"cli.main": 1, "pmspace.check_axioms": 1}),
        # scaling_identity checks homogeneity first through balls' binding.
        ("scaling_identity", lambda: package.balls.scaling_identity(
            space, 1.0, 0.5, 1.7, budget),
         {"balls.scaling_identity": 1, "pmspace.check_beta_homogeneous": 1}),
    ]
    for label, call, expected in cases:
        tracer = new_tracer(package, track_alloc=False)
        with tracer:
            call()
        for name, want in expected.items():
            got = tracer.stat(name).calls
            if got != want:
                problems.append(f"self-test {label}: {name} called {got} times, "
                                f"expected {want}")
        left = tracer.leftover_wrappers()
        if left:
            problems.append(f"self-test {label}: wrappers left after restore: {left}")
    return problems
