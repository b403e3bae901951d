"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Each
criterion pins its sample counts, tolerances, and wall-clock limits; the
expected values inside come from the closed forms of the reference
kernels, not from the code under test.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import pmtop as p
import pmtop.falsifier as F
from pmtop import cli

EPS = 1e-9


@contextmanager
def criterion(number, title, seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > seconds:
        print(f"[FAIL] criterion {number}: {title} "
              f"(took {elapsed:.1f}s > {seconds}s)")
        raise AssertionError(f"criterion {number} exceeded {seconds}s "
                             f"({elapsed:.1f}s)")
    print(f"[PASS] criterion {number}: {title} ({elapsed:.1f}s)")


def test_criterion_1_axiom_suite():
    with criterion(1, "axiom suite on reference families, 1e4 samples", 30):
        spaces = []
        for dim in (1, 2, 4):
            spaces.append(p.rational_space(p.PPower(p=1.0), dim))
            spaces.append(p.rational_space(p.PPower(p=2.0), dim))
            spaces.append(p.step_space(p.WeightedAbs(weights=(1.0,) * dim), dim))
        for seed, space in enumerate(spaces):
            budget = p.SampleBudget(n_vectors=10_000, n_scalar_pairs=10_000,
                                    epsilon=EPS, rng_seed=seed)
            report = p.check_axioms(space, budget)
            assert report.passed, (space.to_config(), {
                k: v.n_violations for k, v in report.parts.items()})
            assert report.n_violations == 0


def test_criterion_2_doubling_constant_estimation():
    with criterion(2, "doubling constants 2 and 4 on the default grid", 5):
        budget = p.SampleBudget(n_vectors=2_000, rng_seed=0, epsilon=EPS)
        one = p.rational_space(p.PPower(p=1.0), 1)
        two = p.rational_space(p.PPower(p=2.0), 2)
        for space, c in ((one, 2.0), (two, 4.0)):
            run = p.run_registry(space, budget, ["delta2_estimate"])
            assert run.results["delta2_estimate"].record["estimated_c"] == pytest.approx(c)


def test_criterion_3_homogeneity():
    with criterion(3, "degree-1 homogeneity passes, degree-2 fails", 5):
        budget = p.SampleBudget(n_vectors=10_000, n_scalar_pairs=10_000,
                                epsilon=EPS, rng_seed=0)
        good = p.rational_space(p.WeightedAbs(weights=(1.0, 1.0)), 2)
        bad = p.rational_space(p.PPower(p=2.0), 2)
        assert p.check_beta_homogeneous(good, 1.0, budget).passed
        assert not p.check_beta_homogeneous(bad, 1.0, budget).passed


def test_criterion_4_ball_algebra():
    with criterion(4, "four ball identities, 1e3 draws each, no violations", 10):
        space = p.rational_space(p.WeightedAbs(weights=(1.0, 1.0)), 2,
                                 declared_c=2.0, declared_beta=1.0)
        rng = np.random.default_rng(0)
        per_call = 50
        for draw in range(20):
            budget = p.SampleBudget(n_vectors=per_call, epsilon=EPS,
                                    rng_seed=draw)
            x = rng.standard_normal(2)
            level = float(rng.uniform(0.2, 0.8))
            level2 = float(rng.uniform(level, 0.95))
            scale = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
            scale2 = float(scale * rng.uniform(1.0, 3.0))
            reports = [
                p.translate_identity(space, x, level, scale, budget),
                p.scaling_identity(space, 1.0, level, scale, budget),
                p.monotone_in_scale(space, level, scale, scale2, budget),
                p.monotone_in_level(space, level, level2, scale, budget),
            ]
            for rep in reports:
                assert rep.passed and rep.n_violations == 0, (draw, rep.name)


def test_criterion_5_witness_constructions():
    with criterion(5, "5 witness ops x 1e3 valid inputs, 200-sample evidence", 60):
        n_inputs = 1_000
        samples = 200
        doubling = {d: p.rational_space(p.PPower(p=1.0), d, declared_c=2.0)
                    for d in (1, 2)}
        homog = {d: p.rational_space(p.WeightedAbs(weights=(1.0,) * d), d,
                                     declared_c=2.0, declared_beta=1.0)
                 for d in (1, 2)}
        rng = np.random.default_rng(0)

        def check(witness):
            assert witness.evidence.passed
            assert witness.evidence.n_violations == 0

        for i in range(n_inputs):
            budget = p.SampleBudget(n_vectors=64, epsilon=EPS, rng_seed=i)
            dim = 1 + (i % 2)

            space = doubling[dim]
            got = F._feasible_refinement_input(space, rng, budget.epsilon)
            assert got is not None
            outer, z = got
            check(p.refine_ball(space, outer, z, budget, samples=samples))

            while True:
                x, y = rng.standard_normal(dim), rng.standard_normal(dim)
                if space.sigma1(x - y) > 1e-6:
                    break
            check(p.separation_witness(space, x, y, budget, samples=samples))

            space = homog[dim]
            while True:
                x = rng.standard_normal(dim)
                if space.sigma1(x) > 1e-6:
                    break
            check(p.homogeneous_separation_witness(space, x, budget,
                                                   samples=samples))

            target = p.Ball(space, space.zero(),
                            float(rng.uniform(0.2, 0.8)),
                            float(np.exp(rng.uniform(np.log(0.3), np.log(3.0)))))
            check(p.addition_continuity_witness(space, target, budget,
                                                samples=samples))

            lam = 0.0 if i % 97 == 0 else float(
                rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(1e-2),
                                                             np.log(1e2))))
            check(p.scalar_continuity_witness(space, target, lam, budget,
                                              samples=samples))


def test_criterion_6_convergence_equivalence():
    with criterion(6, "value/topological verdicts agree on 16 combos", 20):
        directions = {1: np.array([0.3]), 2: np.array([0.2, -0.15])}
        families = {
            "rational": (lambda d: p.rational_space(p.PPower(p=1.0), d),
                         (0.5, 5.0, 50.0, 500.0)),
            "step": (lambda d: p.step_space(p.WeightedAbs(weights=(1.0,) * d), d),
                     (0.1, 1.0, 10.0, 100.0)),
        }
        expected = {"harmonic": True, "geometric": True,
                    "constant_offset": False, "alternating": False}
        for name, (make, grid) in families.items():
            for dim in (1, 2):
                space = make(dim)
                for kind, want in expected.items():
                    seq = p.SequenceSpec(
                        kind=kind, base=np.zeros(dim),
                        direction=directions[dim],
                        ratio=0.5 if kind == "geometric" else None)
                    mu_v = p.check_mu_convergence(space, seq, t_grid=grid)
                    topo_v = p.check_topological_convergence(space, seq)
                    assert mu_v.converges == topo_v.converges == want, (
                        name, dim, kind, mu_v.converges, topo_v.converges)


def test_criterion_7_falsifier_power():
    with criterion(7, "6 mutations detected >=95/100; 0 false alarms", 120):
        budget = p.SampleBudget(n_vectors=10_000, n_scalar_pairs=10_000,
                                epsilon=EPS, rng_seed=0)
        for mutation in p.MUTATION_KINDS:
            detected = p.detection_rate(mutation, 100, budget)
            assert detected >= 95, (mutation, detected)
        alarms = p.false_alarms(100, budget)
        assert alarms == [], alarms


def test_criterion_8_cli_reproducibility(tmp_path):
    with criterion(8, "byte-identical CLI reports on repeated runs", 30):
        cfg = {
            "instance": {"family": "rational_from",
                         "modular": {"kind": "p_power", "p": 1.0},
                         "dim": 2, "declared_c": 2.0},
            "budget": {"n_vectors": 2000, "rng_seed": 0},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        for command, extra in (("check-axioms", []),
                               ("falsify", ["--samples", "1000"]),
                               ("check-delta2", ["--seed", "4"])):
            outs = []
            for run_idx in (1, 2):
                out = tmp_path / f"{command}-{run_idx}.ndjson"
                code = cli.main([command, "--config", str(cfg_path),
                                 "--out", str(out), *extra])
                assert code in (0, 2)
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], command
