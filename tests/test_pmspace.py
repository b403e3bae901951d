"""Reference families, axiom checkers, doubling-constant estimation, and
homogeneity.  The reference families are validated here by independent
brute-force loops before any checker output is trusted."""

import json
import random
import re
import tracemalloc

import numpy as np
import pytest

import pmtop as p
import pmtop.falsifier as F
import pmtop.pmspace as P
from pmtop import cli
from pmtop.distfn import MAX_GRID_COUNT
from pmtop.pmspace import SigmaFunctional, _Delta2Scan, sample_convex_weights

BUDGET = p.SampleBudget(n_vectors=800, n_scalar_pairs=800, rng_seed=7)


def rational_value(t, sigma):
    return t / (t + sigma) if t > 0 else 0.0


def step_value(t, sigma):
    return 1.0 if t > sigma else 0.0


# -- independent validation of the reference families ------------------------


def test_reference_families_satisfy_convexity_axiom_brute_force():
    """Pure-python verification that both kernels satisfy
    mu_{a x + b y}(s + t) >= min(mu_x(s), mu_y(t)) before the vectorized
    checker is trusted with the same claim."""
    rnd = random.Random(12345)
    grid = [0.0, 1e-3, 0.05, 0.3, 1.0, 4.0, 60.0, 1e3]
    for _ in range(300):
        dim = rnd.choice([1, 2, 3])
        x = [rnd.gauss(0, 1) for _ in range(dim)]
        y = [rnd.gauss(0, 1) for _ in range(dim)]
        a = rnd.random()
        mid = [a * xi + (1 - a) * yi for xi, yi in zip(x, y)]
        for power in (1.0, 2.0):
            rho = lambda v: sum(abs(c) ** power for c in v)
            s, t = rnd.choice(grid), rnd.choice(grid)
            for val in (rational_value, step_value):
                lhs = val(s + t, rho(mid))
                rhs = min(val(s, rho(x)), val(t, rho(y)))
                assert lhs >= rhs - 1e-12, (power, val.__name__, x, y, a, s, t)


def test_mu_examples():
    sp = p.rational_space(p.PPower(p=1.0), 1)
    assert sp.sigma1(np.array([1.0])) == 1.0
    assert sp.mu_matrix(np.array([[1.0]]), [1.0, 3.0]).tolist() == [[0.5, 0.75]]
    assert sp.mu_matrix(np.array([[0.0]]), [1e-3, 1.0, 1e3]).tolist() == [[1.0] * 3]

    st = p.step_space(p.PPower(p=1.0), 1)
    assert st.sigma1(np.array([2.0])) == 2.0
    assert st.mu_matrix(np.array([[2.0]]), [2.0, 3.0]).tolist() == [[0.0, 1.0]]


def test_mu_rejects_dimension_mismatch():
    sp = p.rational_space(p.PPower(p=1.0), 2)
    with pytest.raises(ValueError):
        sp.sigma1(np.array([1.0, 2.0, 3.0]))


# -- axiom checker -----------------------------------------------------------


def test_axioms_pass_on_reference_families():
    for sp in (p.rational_space(p.PPower(p=2.0), 2),
               p.step_space(p.WeightedAbs(weights=(1.0,)), 1),
               p.rational_space(p.WeightedAbs(weights=(0.5, 2.0)), 2)):
        rep = p.check_axioms(sp, BUDGET)
        assert rep.passed, rep.parts


class _HalfspaceDoubled(SigmaFunctional):
    """rho doubled on one side of a hyperplane: mu_{-x} != mu_x there."""

    def __init__(self, base, normal):
        self.base = base
        self.normal = np.asarray(normal)

    def rho(self, X):
        r = self.base.rho(X)
        return np.where(np.asarray(X) @ self.normal > 0, 2.0 * r, r)

    def to_config(self):
        return {"kind": "test_halfspace_doubled"}


def test_symmetry_break_is_caught():
    sp = p.PMSpace(dim=2, modular_map=p.pmspace.RationalFrom(
        _HalfspaceDoubled(p.PPower(p=1.0), [1.0, 0.0])))
    rep = p.check_axioms(sp, BUDGET)
    assert not rep.parts["pm3"].passed
    assert rep.parts["pm1"].passed and rep.parts["pm2"].passed


class _Offset(SigmaFunctional):
    """rho(x) = sum |x_i| + 1: the zero vector's mu_0 is not 1 on t > 0."""

    def rho(self, X):
        return np.sum(np.abs(X), axis=-1) + 1.0

    def to_config(self):
        return {"kind": "test_offset"}


@pytest.mark.parametrize("family", ["rational_from", "step_from"])
def test_pm2_forward_clause_flags_the_zero_vector(family):
    kernel = {"rational_from": p.pmspace.RationalFrom, "step_from": p.pmspace.StepFrom}[family]
    sp = p.PMSpace(dim=2, modular_map=kernel(_Offset()))
    budget = p.SampleBudget(n_vectors=300, n_scalar_pairs=300, rng_seed=0)
    pm2 = p.check_axioms(sp, budget, ("pm2",)).parts["pm2"]
    t0 = budget.grid_array()[0]
    # Every nonzero x has sigma(x) > 1, so no sample is stuck at 1: only the
    # zero vector, recorded first, breaks PM2.
    assert (pm2.n_violations, pm2.samples_run) == (1, 301)
    assert pm2.violations == [{"x": [0.0, 0.0],
                               "min_mu": t0 / (t0 + 1.0) if family == "rational_from" else 0.0}]
    run = F.run_registry(sp, budget, predicates=["pm2"])
    assert run.results["pm2"].outcome == "fail"


# -- doubling constant -------------------------------------------------------


def test_doubling_constant_hand_derived_values():
    # degree 1: t/(t+2r) >= (t/c)/((t/c)+r) iff c >= 2, worked by hand.
    sp1 = p.rational_space(p.PPower(p=1.0), 1)
    assert _Delta2Scan(sp1, BUDGET).smallest((1.0, 1.5, 2.0, 4.0)) == 2.0
    # step family shares the threshold comparison, so the same constant.
    st1 = p.step_space(p.PPower(p=1.0), 1)
    assert _Delta2Scan(st1, BUDGET).smallest((1.0, 2.0, 4.0)) == 2.0
    # degree 2 doubles rho by 4.
    sp2 = p.rational_space(p.PPower(p=2.0), 2)
    assert _Delta2Scan(sp2, BUDGET).smallest((2.0, 4.0, 8.0)) == 4.0


def test_doubling_candidate_below_two_fails_by_explicit_example():
    # c = 1.5, sigma = 1, t = 2: lhs = 2/4 = 0.5 < rhs = (4/3)/(4/3+1) = 4/7.
    lhs = rational_value(2.0, 2.0)
    rhs = rational_value(2.0 / 1.5, 1.0)
    assert lhs < rhs - 1e-3


def test_doubling_result_is_monotone_in_candidate():
    scan = _Delta2Scan(p.rational_space(p.PPower(p=2.0), 2), BUDGET)
    found = scan.smallest(p.DELTA2_CANDIDATES)
    assert found == 4.0
    for c in (found * 1.5, found * 2.0, found * 7.0):
        assert scan.smallest((c,)) == c


def test_declared_doubling_check():
    good = p.rational_space(p.PPower(p=2.0), 2, declared_c=4.0)
    assert _Delta2Scan(good, BUDGET).declared().passed
    bad = p.rational_space(p.PPower(p=2.0), 2, declared_c=2.0)
    assert not _Delta2Scan(bad, BUDGET).declared().passed


@pytest.mark.parametrize("c", [1e-306, 1e-320])
@pytest.mark.parametrize("mutation", [None, "break_pm1"])
def test_doubling_constant_whose_quotients_overflow_fails(tmp_path, capsys, c, mutation):
    # Every grid quotient t/c overflows.  At t/c = inf the rational kernel,
    # floored or not, is inf/inf, a NaN gap no epsilon test flags; mu_x at
    # the largest float is 1, which every row's mu_{2x} stays below.
    base = p.rational_space(p.PPower(p=1.0), 2, declared_c=c)
    space = base if mutation is None else F.apply_mutation(base, mutation, 0)
    scan = _Delta2Scan(space, BUDGET)
    rep = scan.declared()
    assert rep.n_violations == BUDGET.n_vectors
    assert all(v["rhs"] == 1.0 for v in rep.violations)
    json.dumps(rep.to_record(), allow_nan=False)
    assert scan.smallest((c, 2.0)) == 2.0
    assert p.run_registry(space, BUDGET, ["delta2_declared"]).failures() == ["delta2_declared"]

    def run_cli(command, operation):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"instance": base.to_config(), "operation": operation,
                                   "budget": {"n_vectors": 800, "rng_seed": 7}}))
        code = cli.main([command, "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        return [json.loads(line) for line in out.splitlines()]

    mutated = {} if mutation is None else {"mutation": mutation}
    assert [r["verdict"] for r in run_cli(
        "falsify", {"predicates": ["delta2_declared"], **mutated})][0] == "fail"
    if mutation is None:
        records = run_cli("check-delta2", {"candidates": [c]})
        assert [(r["check"], r["verdict"]) for r in records] == [
            ("delta2_declared", "fail"), ("delta2_estimate", "fail")]
        assert records[1]["estimated_c"] is None


# -- homogeneity -------------------------------------------------------------


def test_homogeneity_degree_one_exact():
    sp = p.rational_space(p.WeightedAbs(weights=(1.0,)), 1)
    assert p.check_beta_homogeneous(sp, 1.0, BUDGET).passed


def test_homogeneity_degree_two_fails_with_a_doubling_exhibit():
    sp = p.rational_space(p.PPower(p=2.0), 2)
    rep = p.check_beta_homogeneous(sp, 1.0, BUDGET)
    assert not rep.passed
    # independent exhibit: a = 2, x = (1, 0), t = 1:
    # mu_{2x}(1) = 1/5 while mu_x(1/2) = (1/2)/(3/2) = 1/3.
    assert rational_value(1.0, 4.0) != pytest.approx(rational_value(0.5, 1.0))


def test_homogeneity_rejects_bad_exponent():
    sp = p.rational_space(p.PPower(p=1.0), 1)
    with pytest.raises(p.PreconditionError):
        p.check_beta_homogeneous(sp, 1.5, BUDGET)


def test_convex_weight_law_stays_in_unit_interval():
    rng = np.random.default_rng(3)
    w = sample_convex_weights(rng, 500)
    assert np.all((w > 0) & (w < 1))


# -- regularity over a space -------------------------------------------------


def test_space_regularity_rational_passes_step_fails():
    assert p.check_space_regularity(
        p.rational_space(p.PPower(p=1.0), 1), BUDGET).passed
    rep = p.check_space_regularity(p.step_space(p.PPower(p=1.0), 1), BUDGET)
    assert not rep.passed
    assert any(v["clause"] == "continuity" for v in rep.violations)


def test_object_level_and_space_level_regularity_agree():
    # The space-level report passes iff the scan, run on each sampled x
    # alone, finds neither a jump nor a flat pair.
    budget = p.SampleBudget(n_vectors=40, rng_seed=5)
    grid = p.distfn._regularity_grid(budget.t_grid)

    def object_passes(sp, x):
        s = sp.sigma(x[None, :])
        (jumps, _, _), (flat, _), _ = p.distfn._regularity_scan(
            lambda t, rows: sp.kernel(t, s[rows]), sp.kernel(grid[None, :], s[:, None]),
            grid, budget.epsilon)
        return jumps.size == 0 and flat.size == 0

    for sp in (p.rational_space(p.PPower(p=1.0), 2),
               p.step_space(p.WeightedAbs(weights=(1.0, 1.0)), 2)):
        space_rep = p.check_space_regularity(sp, budget)
        rng = p.distfn.check_rng(budget.rng_seed, "regularity")
        X = p.pmspace.sample_vectors(rng, 40, sp.dim)
        assert space_rep.passed == all(object_passes(sp, x) for x in X)


# -- closed-form membership oracle -------------------------------------------


def test_membership_oracle_matches_kernel_brute_force():
    """rho < t a / (1 - a) iff t/(t+rho) > 1 - a, scanned in pure python."""
    for sigma in (0.0, 1e-4, 0.3, 1.0, 9.0):
        for t in (1e-3, 0.1, 1.0, 50.0):
            for level in (0.05, 0.5, 0.95):
                lhs = rational_value(t, sigma) > 1.0 - level
                rhs = sigma < p.rational_ball_radius(level, t)
                assert lhs == rhs


def test_oracle_threshold_refuses_mutated_maps():
    sp = p.rational_space(p.PPower(p=1.0), 1)
    mutated = p.apply_mutation(sp, "break_pm4", seed=0)
    with pytest.raises(ValueError):
        p.oracle_threshold(mutated, 0.5, 1.0)


def test_weighted_abs_rho_rejects_rows_of_another_width():
    # One weight per coordinate: a row of any other width is an error, not a
    # sum over the columns the weights happen to cover.
    rho = p.WeightedAbs(weights=(1.0, 2.0, 3.0))
    for width in (1, 2, 4, 9):
        with pytest.raises(ValueError, match="rows of 3 coordinates"):
            rho.rho(np.ones((5, width)))
    assert rho.rho(np.ones((5, 3))).tolist() == [6.0] * 5


def test_space_and_modulars_validate_their_numbers():
    rho = p.PPower(p=1.0)
    cases = [(lambda: p.PPower(p=np.inf), "p"), (lambda: p.PPower(p=True), "p"),
             (lambda: p.WeightedAbs(weights=(True,)), "weights[0]"),
             (lambda: p.WeightedAbs(weights=1.0), "weights"),
             (lambda: p.rational_space(rho, True), "dim"),
             (lambda: p.rational_space(rho, 2.0), "dim"),
             (lambda: p.rational_space(rho, 1, declared_c=np.inf), "declared_c"),
             (lambda: p.rational_space(rho, 1, declared_beta=True), "declared_beta"),
             (lambda: p.pmspace.space_from_config(
                 {"family": "step_from", "modular": {"kind": "p_power", "p": True},
                  "dim": 1}), "modular.p"),
             (lambda: p.rational_space(p.WeightedAbs(weights=(1.0, 2.0)), 3),
              "modular.weights"),
             (lambda: p.step_space(p.WeightedAbs(weights=(1.0, 2.0)), 1),
              "modular.weights")]
    for build, field in cases:
        with pytest.raises(p.FieldError, match=f"^{re.escape(field)} ") as err:
            build()
        assert isinstance(err.value, ValueError)
        assert not isinstance(err.value, p.PreconditionError)
    # Checked, not converted: a declared constant is echoed as it was given.
    assert p.rational_space(rho, np.int64(2), declared_c=4).to_config()["declared_c"] == 4


def test_space_config_round_trip():
    sp = p.rational_space(p.PPower(p=2.0), 3, declared_c=4.0)
    again = p.pmspace.space_from_config(sp.to_config())
    assert again.to_config() == sp.to_config()
    X = np.random.default_rng(0).standard_normal((5, 3))
    assert np.array_equal(sp.sigma(X), again.sigma(X))


def test_combined_axiom_report_counts_the_violations_of_every_part():
    space = p.generate_instance(0, "rational_from", "break_pm3")
    rep = p.check_axioms(space, p.SampleBudget(n_vectors=10_000, n_scalar_pairs=10_000))
    assert rep.parts["pm3"].n_violations == 10_000
    assert rep.n_violations == sum(part.n_violations for part in rep.parts.values())
    assert len(rep.violations) == 50


@pytest.mark.parametrize("mutation", ["break_pm2", "break_pm3"])
def test_axiom_check_memory_does_not_grow_with_samples_times_grid(mutation):
    # Nearly every sample of these mutations takes the full-grid branch of its
    # axiom.  A (samples, grid) matrix would trace about 153 MiB (pm2) and
    # 313 MiB (pm3) here; the blocks keep the peak near the whole draws.
    space = p.generate_instance(0, "rational_from", mutation)
    budget = p.SampleBudget(n_vectors=20_000, n_scalar_pairs=20_000, rng_seed=0,
                            t_grid=p.default_t_grid(count=1024))
    tracemalloc.start()
    try:
        rep = p.check_axioms(space, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.parts[p.MUTATION_TARGETS[mutation]].passed
    assert peak < 16 * 2**20, peak / 2**20


@pytest.mark.parametrize("mutation", ["break_pm3", "break_delta2_declaration"])
def test_open_rational_rows_cost_a_peak_window_each_not_the_grid(monkeypatch, mutation):
    # Kernel points, counted at 1e4 rows and 1,024 grid points: every row of
    # the target's scaled pair is open, and each is read at PEAK_WINDOW grid
    # points, two kernel values a point, a row that falls back on the whole
    # grid too, and a recorded row's window once more.  The whole grid would
    # be 2 * 1,024 values per row.
    space = p.generate_instance(0, "rational_from", mutation)
    budget = p.SampleBudget(n_vectors=10_000, n_scalar_pairs=10_000, rng_seed=0,
                            t_grid=p.default_t_grid(count=MAX_GRID_COUNT))
    counts = {"points": 0, "open": 0, "fallback": 0}
    kernel, gaps, values = type(space.modular_map).kernel, P._pair_gaps, P._pair_values

    def counted_kernel(self, T, S):
        counts["points"] += np.broadcast(T, S).size
        return kernel(self, T, S)

    def counted_gaps(space, grid, u, v, k, rows, eps, absolute):
        counts["open"] += rows.size
        return gaps(space, grid, u, v, k, rows, eps, absolute)

    def counted_values(space, grid, u, v, k, rows):
        counts["fallback"] += rows.size if grid.ndim == 1 else 0
        return values(space, grid, u, v, k, rows)

    monkeypatch.setattr(type(space.modular_map), "kernel", counted_kernel)
    monkeypatch.setattr(P, "_pair_gaps", counted_gaps)
    monkeypatch.setattr(P, "_pair_values", counted_values)
    if mutation == "break_pm3":
        rep = p.check_axioms(space, budget, ("pm3",))
    else:
        rep = _Delta2Scan(space, budget).declared()
    assert counts["open"] == 10_000 and rep.n_violations > 9_900
    reread = 0 if mutation == "break_pm3" else len(rep.violations)
    assert counts["points"] <= 2 * (P.PEAK_WINDOW * (counts["open"] + reread)
                                    + MAX_GRID_COUNT * counts["fallback"]), counts
    assert counts["fallback"] <= 10, counts


def test_axiom_check_memory_at_1e5_samples_is_the_draws_not_pm4_matrices():
    # Whole (5, samples) pm4 matrices traced 30.5 MiB here; in PM4_CHUNK
    # blocks the peak is about 5.4 MiB, mostly the six whole draws (X,
    # sigma(X), Y, a and the two probe scales) of 0.8 MB each.
    space = p.rational_space(p.PPower(p=1.0), 1)
    budget = p.SampleBudget(n_vectors=100_000, n_scalar_pairs=100_000, rng_seed=0)
    tracemalloc.start()
    try:
        rep = p.check_axioms(space, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.parts["pm4"].samples_run == 500_000
    assert peak < 10 * 2**20, peak / 2**20


def test_regularity_check_memory_on_a_full_grid_stays_near_the_unstaged_scan():
    # REGULARITY_POINTS rows over MAX_GRID_COUNT grid points: about 46,500
    # bisection lanes of 0.36 MiB per float array.  The fixed 48-step scan
    # traced 4.5 MiB here and the staged scan traces 4.2 MiB; compacting the
    # four lane arrays in one step traced 4.9 MiB.  The first call in a
    # process traces about 0.7 MiB more, the modules it imports on first use,
    # so an untraced call goes first.
    space = p.rational_space(p.PPower(p=1.0), 2)
    budget = p.SampleBudget(n_vectors=10_000, rng_seed=0,
                            t_grid=p.default_t_grid(count=MAX_GRID_COUNT))
    p.check_space_regularity(space, budget)
    tracemalloc.start()
    try:
        rep = p.check_space_regularity(space, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.samples_run == 64
    assert peak < 4.75 * 2**20, peak / 2**20
