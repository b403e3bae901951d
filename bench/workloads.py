"""The four benchmark workloads: inputs made from a seed, one op, and its check.

Every workload is a closed loop with one client; run.py issues the next
op only after the previous one returned.  Inputs are made once, in set-up,
from the workload seed, and the timed loop cycles through them.

The instance mix is stratified: the sequence of strata (family, dimension,
mutation, modular kind) is the same for every seed, and the seed draws
everything else.  Op cost depends strongly on the stratum (check-delta2 on a
degree-2 modular costs twice as much as on a degree-1 one), so an unstratified
pool of a few dozen instances would make a run's figures depend on how many
costly strata its seed happened to draw.  Ops call
pmtop through module attributes (``falsifier.run_registry``), never through
names bound at import, so the tracer's wrappers see every call.

``check`` returns None for a correct output and a reason otherwise; a reason
makes the op count as failed.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np

import pmtop
from pmtop import balls, cli, falsifier, topology

EPS = 1e-9

# Criterion-7 budget (the acceptance false-alarm and detection sweeps).
CRITERION7 = {"n_vectors": 10_000, "n_scalar_pairs": 10_000, "epsilon": EPS}

# Sample count behind each witness's evidence, as in criterion 5.
WITNESS_SAMPLES = 200

# Samples per axiom_bulk CLI call: large enough that sample arrays, not the
# interpreter, set the peak RSS.
BULK_SAMPLES = 20_000

OUTCOMES = ("pass", "fail", "infeasible")


# Instance seeds of input i are searched in [i * SEARCH, (i + 1) * SEARCH)
# past the run's base, so two inputs never share an instance.
SEARCH = 1024


def op_seed(seed: int, i: int) -> int:
    """Seed of the i-th input of a workload run with the given seed."""
    return seed * 100_003 + i


def instance(seed: int, i: int, family: str, want, mutation: str | None = None):
    """(instance seed, space): the first generated instance of input i whose
    stratum matches ``want(space)``."""
    base = op_seed(seed, i) * SEARCH
    for s in range(base, base + SEARCH):
        space = falsifier.generate_instance(s, family, mutation)
        if want(space):
            return s, space
    raise RuntimeError(f"no {family} instance in its stratum for input {i}")


def modular(space) -> tuple[str, float | None]:
    cfg = space.modular_map.rho.to_config()
    return cfg["kind"], cfg.get("p")


class Workload:
    name = ""
    pool = 0          # inputs made in set-up; the timed loop cycles through them
    traced_ops = 0    # ops in each traced pass; fixed, so counts repeat exactly

    def inputs(self, seed: int, workdir: str) -> list[Any]:
        raise NotImplementedError

    def run(self, inp: Any) -> Any:
        raise NotImplementedError

    def check(self, inp: Any, out: Any) -> str | None:
        raise NotImplementedError

    def finish(self, inputs: list[Any]) -> tuple[int, list[str]]:
        """Check made once per run after the timed loop: (checks, failures)."""
        return 0, []


class RegistryValid(Workload):
    """All registry predicates on valid instances: the false-alarm sweep."""

    name = "registry_valid"
    pool = 128
    traced_ops = 8

    def inputs(self, seed, workdir):
        out = []
        for i in range(self.pool):
            family = ("rational_from", "step_from")[i % 2]
            dim = 1 + (i // 2) % 4
            s, space = instance(seed, i, family, lambda sp: sp.dim == dim)
            budget = pmtop.SampleBudget(**CRITERION7, rng_seed=s)
            out.append((space, budget, falsifier.instance_config(space, None, s)))
        return out

    def run(self, inp):
        space, budget, config = inp
        return falsifier.run_registry(space, budget, instance=config)

    def check(self, inp, run):
        odd = sorted(k for k, r in run.results.items() if r.outcome not in OUTCOMES)
        if odd:
            return f"unknown outcome for {odd}"
        failures = run.failures()
        return f"false alarm on {failures}" if failures else None


class RegistryMutated(Workload):
    """The target predicate alone on mutated instances: detections."""

    name = "registry_mutated"
    pool = 120
    traced_ops = 24

    def inputs(self, seed, workdir):
        out = []
        kinds = falsifier.MUTATION_KINDS
        for i in range(self.pool):
            kind = kinds[i % len(kinds)]
            dim = 1 + (i // len(kinds)) % 4
            s, space = instance(seed, i, falsifier.MUTATION_FAMILY[kind],
                                lambda sp: sp.dim == dim, kind)
            budget = pmtop.SampleBudget(**CRITERION7, rng_seed=s)
            out.append((space, budget, falsifier.MUTATION_TARGETS[kind],
                        falsifier.instance_config(space, kind, s)))
        return out

    def run(self, inp):
        space, budget, target, config = inp
        return falsifier.run_registry(space, budget, predicates=[target],
                                      instance=config)

    def check(self, inp, run):
        target = inp[2]
        got = run.results.get(target)
        if got is None or got.outcome != "fail":
            return f"missed detection of {target}"
        return None


def _refinement_input(space, rng, margin: float = 1e-6):
    """(outer ball, z) with mu_(x-z)(t/c) > 1 - alpha + margin, so the
    doubling chain of refine_ball is feasible by construction."""
    c = space.declared_c
    for _ in range(10_000):
        x = rng.standard_normal(space.dim)
        level = float(rng.uniform(0.3, 0.7))
        scale = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
        outer = balls.Ball(space, x, level, scale)
        z = x + 0.3 * rng.standard_normal(space.dim)
        anchor = float(space.kernel(np.asarray(scale / c), space.sigma1(x - z)))
        if balls.contains(outer, z) and anchor > 1.0 - level + margin:
            return outer, z
    raise RuntimeError("no feasible refinement input")


def _nonzero_normal(space, rng, shift=None):
    for _ in range(10_000):
        v = rng.standard_normal(space.dim)
        if space.sigma1(v if shift is None else v - shift) > 1e-6:
            return v
    raise RuntimeError("no separable point")


class WitnessBatch(Workload):
    """The criterion-5 witness constructors plus basis_intersection_witness,
    each with 200-sample evidence, on fresh random inputs."""

    name = "witness_batch"
    pool = 256
    traced_ops = 64

    def inputs(self, seed, workdir):
        doubling = {d: pmtop.rational_space(pmtop.PPower(p=1.0), d, declared_c=2.0)
                    for d in (1, 2)}
        homog = {d: pmtop.rational_space(pmtop.WeightedAbs(weights=(1.0,) * d), d,
                                         declared_c=2.0, declared_beta=1.0)
                 for d in (1, 2)}
        out = []
        for i in range(self.pool):
            s = op_seed(seed, i)
            rng = np.random.default_rng(s)
            dim = 1 + i % 2
            dspace, hspace = doubling[dim], homog[dim]
            outer, z = _refinement_input(dspace, rng)
            x = rng.standard_normal(dim)
            y = _nonzero_normal(dspace, rng, shift=x)
            xh = _nonzero_normal(hspace, rng)
            target = balls.Ball(hspace, hspace.zero(), float(rng.uniform(0.2, 0.8)),
                                float(np.exp(rng.uniform(np.log(0.3), np.log(3.0)))))
            lam = 0.0 if i % 97 == 0 else float(
                rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            for _ in range(10_000):
                a, za = _refinement_input(dspace, rng)
                b = balls.Ball(dspace, za + 0.05 * rng.standard_normal(dim),
                               min(a.level * 1.2, 0.9), a.scale * 1.3)
                anchor = float(dspace.kernel(np.asarray(b.scale / dspace.declared_c),
                                             dspace.sigma1(b.center - za)))
                if balls.contains(b, za) and anchor > 1.0 - b.level + 1e-6:
                    break
            else:
                raise RuntimeError("no feasible intersection input")
            budget = pmtop.SampleBudget(n_vectors=64, epsilon=EPS, rng_seed=s)
            out.append({"dspace": dspace, "hspace": hspace, "outer": outer, "z": z,
                        "x": x, "y": y, "xh": xh, "target": target, "lam": lam,
                        "a": a, "b": b, "za": za, "budget": budget})
        return out

    def run(self, inp):
        d, h, budget, n = inp["dspace"], inp["hspace"], inp["budget"], WITNESS_SAMPLES
        return [
            topology.refine_ball(d, inp["outer"], inp["z"], budget, samples=n),
            topology.separation_witness(d, inp["x"], inp["y"], budget, samples=n),
            topology.homogeneous_separation_witness(h, inp["xh"], budget, samples=n),
            topology.addition_continuity_witness(h, inp["target"], budget, samples=n),
            topology.scalar_continuity_witness(h, inp["target"], inp["lam"], budget,
                                               samples=n),
            topology.basis_intersection_witness(d, inp["a"], inp["b"], inp["za"],
                                                budget, samples=n),
        ]

    def check(self, inp, witnesses):
        for w in witnesses:
            if not w.evidence.passed or w.evidence.n_violations != 0:
                return (f"{type(w).__name__} evidence failed with "
                        f"{w.evidence.n_violations} violations")
        return None


def _reject_constant(name: str) -> Any:
    raise ValueError(f"non-finite number {name} in report")


class AxiomBulk(Workload):
    """In-process ``pmtop`` CLI calls with large sample counts.

    The cycle runs check-axioms twice per round.  With four equally weighted
    subcommands whose times do not overlap, the median op would sit on the
    boundary between two of them and jump between their times from run to
    run; two check-axioms calls in five put the median inside one class and
    the 90th percentile inside the check-delta2 class.
    """

    name = "axiom_bulk"
    pool = 100
    traced_ops = 25
    CYCLE = ("check-axioms", "check-delta2", "check-homogeneous", "check-axioms",
             "check-regularity")
    # generate_instance draws a rational_from modular as weighted_abs (60 %),
    # p_power p=1 (20 %) or p_power p=2 (20 %); the rotation keeps those shares.
    MODULARS = (("weighted_abs", None), ("p_power", 1.0), ("weighted_abs", None),
                ("p_power", 2.0), ("weighted_abs", None))

    def inputs(self, seed, workdir):
        out_path = os.path.join(workdir, "report.ndjson")
        out = []
        for i in range(self.pool):
            command = self.CYCLE[i % len(self.CYCLE)]
            kind = self.MODULARS[(i // len(self.CYCLE)) % len(self.MODULARS)]
            # check-homogeneous needs a declared exponent: a degree-one modular.
            if command == "check-homogeneous" and kind == ("p_power", 2.0):
                kind = ("p_power", 1.0)
            dim = 1 + (i // (len(self.CYCLE) * len(self.MODULARS))) % 4
            s, space = instance(seed, i, "rational_from",
                                lambda sp: sp.dim == dim and modular(sp) == kind)
            cfg = {"instance": space.to_config(),
                   "budget": {"n_vectors": BULK_SAMPLES, "n_scalar_pairs": BULK_SAMPLES,
                              "epsilon": EPS, "rng_seed": s}}
            cfg_path = os.path.join(workdir, f"config-{i}.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            out.append([command, "--config", cfg_path, "--out", out_path])
        return out

    def run(self, argv):
        code = cli.main(list(argv))
        with open(argv[-1], "rb") as fh:
            return code, fh.read()

    def check(self, argv, out):
        code, data = out
        if code != 0:
            return f"{argv[0]} exited {code}"
        lines = data.decode("utf-8").splitlines()
        if not lines:
            return f"{argv[0]} wrote no report"
        for line in lines:
            try:
                rec = json.loads(line, parse_constant=_reject_constant)
            except ValueError as exc:
                return f"{argv[0]} report line is not strict JSON: {exc}"
            if json.dumps(rec, sort_keys=True, separators=(",", ":"),
                          allow_nan=False) != line:
                return f"{argv[0]} report line does not re-serialize to itself"
        return None

    def finish(self, inputs):
        first = self.run(inputs[0])[1]
        again = self.run(inputs[0])[1]
        return 1, [] if first == again else [f"{inputs[0][0]} report not byte-identical"]


WORKLOADS = {w.name: w for w in (RegistryValid(), RegistryMutated(), WitnessBatch(),
                                 AxiomBulk())}
