"""Sequence convergence: value criterion, topological criterion, and their
agreement.  Expected verdicts are derived from the closed forms of the
reference kernels before the checkers are consulted."""

import numpy as np
import pytest

import pmtop as p
import pmtop.pmspace as P
from pmtop.balls import mu_of_offsets
from pmtop.convergence import SEQUENCE_KINDS, probe_schedule, settled_from

SP1 = p.rational_space(p.PPower(p=1.0), 1, declared_c=2.0)
STEP = p.step_space(p.WeightedAbs(weights=(1.0,)), 1, declared_c=2.0, declared_beta=1.0)

RATIONAL_GRID = (0.5, 5.0, 50.0, 500.0)
STEP_GRID = (0.1, 1.0, 10.0, 100.0)


def test_sequence_spec_validation():
    with pytest.raises(ValueError):
        p.SequenceSpec(kind="bogus", base=np.zeros(1), direction=np.ones(1))
    with pytest.raises(ValueError):
        p.SequenceSpec(kind="geometric", base=np.zeros(1), direction=np.ones(1))
    with pytest.raises(ValueError):
        p.SequenceSpec(kind="geometric", base=np.zeros(1), direction=np.ones(1),
                       ratio=1.5)


def test_sequence_values():
    seq = p.SequenceSpec(kind="harmonic", base=np.array([1.0]),
                         direction=np.array([2.0]))
    vals = seq.values(np.array([1, 2, 4]))
    assert np.allclose(vals[:, 0], [3.0, 2.0, 1.5])
    alt = p.SequenceSpec(kind="alternating", base=np.zeros(1),
                         direction=np.array([1.0]))
    assert np.allclose(alt.values(np.array([1, 2]))[:, 0], [-1.0, 1.0])


def test_probe_schedule_is_geometric_and_capped():
    ns = probe_schedule(10 ** 6)
    assert ns[0] == 1 and ns[-1] == 10 ** 6
    assert np.all(ns[1:-1] == 2 ** np.arange(1, len(ns) - 1))


def test_harmonic_converges_with_closed_form_bound():
    seq = p.SequenceSpec(kind="harmonic", base=np.zeros(1),
                         direction=np.array([0.3]))
    v = p.check_mu_convergence(SP1, seq, t_grid=RATIONAL_GRID)
    assert v.converges
    for entry in v.per_t:
        # closed form: gap(n, t) = (s/n) / (t + s/n) with s = 0.3, so the
        # first admissible index is s (1 - eps) / (t eps).
        t, n0 = entry["t"], entry["n0"]
        bound = 0.3 * (1.0 - 1e-6) / (t * 1e-6)
        assert n0 is not None and n0 <= 2.0 * bound + 2.0
        gap = (0.3 / n0) / (t + 0.3 / n0)
        assert gap < 1e-6


def test_constant_offset_does_not_converge():
    seq = p.SequenceSpec(kind="constant_offset", base=np.zeros(1),
                         direction=np.array([1.0]))
    v = p.check_mu_convergence(SP1, seq, t_grid=RATIONAL_GRID)
    assert not v.converges
    last = v.per_t[-1]
    assert last["final_gap"] == pytest.approx(1.0 / (last["t"] + 1.0))


def test_zero_direction_converges_immediately():
    seq = p.SequenceSpec(kind="harmonic", base=np.zeros(1),
                         direction=np.zeros(1))
    v = p.check_mu_convergence(SP1, seq, t_grid=RATIONAL_GRID)
    assert v.converges
    assert all(e["n0"] == 1 for e in v.per_t)


def test_gap_evidence_is_monotone_for_shrinking_kinds():
    ns = probe_schedule(10 ** 6)
    for kind, ratio in (("harmonic", None), ("geometric", 0.5)):
        seq = p.SequenceSpec(kind=kind, base=np.zeros(1),
                             direction=np.array([0.7]), ratio=ratio)
        offsets = seq.values(ns)
        gaps = 1.0 - SP1.mu_matrix(offsets, np.asarray(RATIONAL_GRID))
        assert np.all(np.diff(gaps, axis=0) <= 1e-15)


def test_topological_convergence_harmonic_with_ball_oracle():
    seq = p.SequenceSpec(kind="harmonic", base=np.zeros(1),
                         direction=np.array([1.0]))
    verdict = p.check_topological_convergence(SP1, seq)
    assert verdict.converges and len(verdict.per_ball) == 9
    for entry in verdict.per_ball:
        # membership oracle: 1/n < offset radius of B(x, 1/k, 1/k), so the
        # first admissible index is k(k-1) (levels are 1/k = scale).
        k = round(1.0 / entry["level"])
        oracle_first = k * (k - 1)
        assert entry["n0"] is not None
        assert entry["n0"] <= 2 * oracle_first + 2


def test_topological_convergence_alternating_fails():
    seq = p.SequenceSpec(kind="alternating", base=np.zeros(1),
                         direction=np.array([0.3]))
    assert not p.check_topological_convergence(SP1, seq).converges


def test_empty_ball_list_is_vacuous_and_flagged():
    # A local base below depth 2 holds no ball, and a quantifier over no
    # ball would report convergence for any sequence: an unmet precondition.
    for kind in ("harmonic", "constant_offset"):
        seq = p.SequenceSpec(kind=kind, base=np.zeros(1), direction=np.array([1.0]))
        for depth in (1, 0, -3):
            with pytest.raises(p.PreconditionError, match=f"depth {depth} is empty"):
                p.check_topological_convergence(SP1, seq, depth=depth)


@pytest.mark.parametrize("kind,expected", [
    ("harmonic", True), ("geometric", True),
    ("constant_offset", False), ("alternating", False),
])
def test_value_and_topological_routes_agree(kind, expected):
    for space, grid in ((SP1, RATIONAL_GRID), (STEP, STEP_GRID)):
        seq = p.SequenceSpec(kind=kind, base=np.zeros(1),
                             direction=np.array([0.3]),
                             ratio=0.5 if kind == "geometric" else None)
        mu_v = p.check_mu_convergence(space, seq, t_grid=grid)
        topo_v = p.check_topological_convergence(space, seq)
        assert mu_v.converges == topo_v.converges == expected


@pytest.mark.parametrize("kind", SEQUENCE_KINDS)
def test_local_base_verdicts_are_the_contains_many_loop(kind):
    # The balls share their center, so one sigma of the offsets serves all
    # of them: each ball's n0 is the one contains_many gives ball by ball.
    rho = P.WeightedAbs(weights=(0.7, 1.6))
    spaces = [SP1, STEP, P.PMSpace(2, P.RationalFrom(rho)), P.PMSpace(2, P.StepFrom(rho)),
              P.PMSpace(2, P.ClosedStepFrom(rho)),
              P.PMSpace(2, P.FlooredMap(P.RationalFrom(rho), 0.1))]
    rng = np.random.default_rng(len(kind))
    n0s = set()
    for space in spaces:
        for offset in (0.0, 0.02):
            base = rng.standard_normal(space.dim)
            seq = p.SequenceSpec(kind=kind, base=base,
                                 direction=0.3 * rng.standard_normal(space.dim),
                                 ratio=0.5 if kind == "geometric" else None,
                                 candidate_limit=base + offset)
            verdict = p.check_topological_convergence(space, seq, depth=12, n_max=5000)
            ns = probe_schedule(5000)
            points = seq.values(ns)
            want = [{"level": b.level, "scale": b.scale,
                     "n0": settled_from(ns, p.contains_many(b, points))}
                    for b in p.local_base(space, seq.candidate_limit, 12)]
            assert verdict.per_ball == want, (space.modular_map.family, offset)
            n0s |= {r["n0"] for r in want}
    assert None in n0s and len(n0s) > 1  # some balls are entered and some not
    # An offset of 0.5 - 1e-13 from the limit at n = 1 puts mu 5e-14 above
    # the cut of B(x, 1/2, 1/2): inside the EPS_STRICT margin, so not in it.
    geometric = kind == "geometric"
    seq = p.SequenceSpec(kind=kind, base=np.zeros(1),
                         direction=np.array([(0.5 - 1e-13) * (2.0 if geometric else 1.0)]),
                         ratio=0.5 if geometric else None)
    ball = p.local_base(SP1, seq.candidate_limit, 2)[0]
    assert 0 < float(mu_of_offsets(ball, seq.values([1]))[0]) - 0.5 < 1e-12
    verdict = p.check_topological_convergence(SP1, seq, depth=2, n_max=1)
    assert verdict.per_ball == [{"level": 0.5, "scale": 0.5, "n0": None}]
