"""Desk-scale probabilistic modular spaces: concrete instances, sampled
axiom checkers, executable topology witnesses, and a structural falsifier."""

from .distfn import (
    CheckReport,
    DistributionFunction,
    PiecewiseLinear,
    SampleBudget,
    check_delta_membership,
    check_left_continuity,
    check_transition_regularity,
    default_t_grid,
)
from .pmspace import (
    DELTA2_CANDIDATES,
    InfeasibleConstruction,
    PMSpace,
    PPower,
    VerificationError,
    WeightedAbs,
    as_vector,
    check_axioms,
    check_beta_homogeneous,
    check_delta2_declared,
    check_space_regularity,
    find_delta2_constant,
    mu,
    oracle_contains,
    oracle_threshold,
    rational_ball_radius,
    rational_space,
    step_space,
)
from .balls import (
    Ball,
    contains,
    contains_many,
    is_balanced_sampled,
    is_convex_sampled,
    monotone_in_level,
    monotone_in_scale,
    sample_members,
    scaling_identity,
    smaller_scale_witness,
    smaller_scale_witnesses,
    translate_identity,
)
from .topology import (
    AdditionContinuityWitness,
    IntersectionWitness,
    RefinementWitness,
    ScalarContinuityWitness,
    SeparationWitness,
    addition_continuity_witness,
    basis_intersection_witness,
    homogeneous_separation_witness,
    local_base_containment,
    refine_ball,
    scalar_continuity_witness,
    separation_witness,
)
from .convergence import (
    ConvergenceVerdict,
    SequenceSpec,
    TopologicalVerdict,
    check_mu_convergence,
    check_topological_convergence,
    local_base,
)
from .falsifier import (
    MUTATION_KINDS,
    MUTATION_TARGETS,
    FalsifierRun,
    apply_mutation,
    detection_rate,
    false_alarms,
    generate_instance,
    run_registry,
)

__version__ = "0.1.0"
