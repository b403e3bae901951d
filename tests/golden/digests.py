"""Byte-identity corpus: a sha256 of each pmtop output, keyed group/seed/index.

    python tests/golden/digests.py --check   # recompute every output and compare
    python tests/golden/digests.py --write   # regenerate digests.json

Groups:

registry    run_registry(...).to_json() on fixed valid and mutated instances,
            the full registry and the target predicate alone, at the
            criterion-7 budget
witness     each witness constructor's record on fixed inputs
cli         exit code, report and stderr of every subcommand and operation
            selection, on instances with and without each declaration, at
            epsilon 1e-9 and 0.3
criterion8  the criterion-8 configs with their flag sets
fuzz        a derandomized slice of the config fuzz of tests/test_cli.py; its
            cases are stored in digests.json, so the slice does not move with
            the hypothesis version
records     CLI reports that record violations of every blocked grid check:
            homogeneity at a wrong exponent, a breaking declared doubling
            constant, and break_pm4 over samples that span several pm4 blocks;
            and check-convergence at a pass on the entry's default grid, an
            infeasible empty local base, a given grid and n_max, a fail at a
            given grid blind to the offset, and a config error of each of
            its operation checks

A change that moves bytes on purpose regenerates the file and names the
changed keys: --check ends with a tally of the mismatched keys per group and
subcommand (the first word of each key's label), then its count.  The file
records the Python and numpy versions it was made with, and a mismatch names
them next to the running ones: on other versions a difference may come from
the platform, not from the change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import pmtop as p  # noqa: E402
from pmtop import cli, falsifier, topology  # noqa: E402

DIGESTS = Path(__file__).with_name("digests.json")
SEEDS = (0, 1000)
EPS = 1e-9
FUZZ_CASES = 150

# (key, label, output): output() returns the bytes that are digested.
Entry = tuple[str, str, Callable[[], bytes]]


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _registry(seed: int) -> Iterator[Entry]:
    budget = p.SampleBudget(n_vectors=10_000, n_scalar_pairs=10_000, epsilon=EPS)
    runs = []
    for i in range(6):
        family = ("rational_from", "step_from")[i % 2]
        runs.append((f"valid {family}", seed + i, family, None, None))
    for i, kind in enumerate(falsifier.MUTATION_KINDS):
        family = falsifier.MUTATION_FAMILY[kind]
        runs.append((f"{kind} full", seed + i, family, kind, None))
        runs.append((f"{kind} target", seed + i, family, kind,
                     [falsifier.MUTATION_TARGETS[kind]]))
    for index, (label, s, family, kind, predicates) in enumerate(runs):
        def output(s=s, family=family, kind=kind, predicates=predicates):
            space = falsifier.generate_instance(s, family, kind)
            run = falsifier.run_registry(
                space, p.SampleBudget(**{**budget.to_config(), "rng_seed": s}),
                predicates=predicates,
                instance=falsifier.instance_config(space, kind, s))
            return run.to_json().encode()
        yield f"registry/{seed}/{index}", label, output


def _witness_builds(dim: int, budget: p.SampleBudget) -> dict[str, Callable]:
    d = p.rational_space(p.PPower(p=1.0), dim, declared_c=2.0)
    h = p.rational_space(p.WeightedAbs(weights=(1.0,) * dim), dim,
                         declared_c=2.0, declared_beta=1.0)
    c0, z = np.full(dim, 0.2), np.full(dim, 0.25)
    return {
        "refine_ball": lambda: topology.refine_ball(d, p.Ball(d, c0, 0.5, 1.0), z, budget),
        "separation": lambda: topology.separation_witness(
            d, np.full(dim, 1.0), np.full(dim, -0.5), budget),
        "homogeneous_separation": lambda: topology.homogeneous_separation_witness(
            h, np.full(dim, 0.7), budget),
        "addition_continuity": lambda: topology.addition_continuity_witness(
            h, p.Ball(h, h.zero(), 0.5, 1.0), budget),
        "scalar_continuity": lambda: topology.scalar_continuity_witness(
            h, p.Ball(h, h.zero(), 0.4, 1.5), 1.7, budget),
        "basis_intersection": lambda: topology.basis_intersection_witness(
            d, p.Ball(d, c0, 0.5, 1.0), p.Ball(d, c0 + 0.03, 0.6, 1.3), z, budget),
        "local_base": lambda: topology.local_base_containment(
            d, c0, p.Ball(d, c0, 0.6, 1.2), budget),
    }


def _witnesses(seed: int) -> Iterator[Entry]:
    budget = p.SampleBudget(n_vectors=64, epsilon=EPS, rng_seed=seed)
    index = 0
    for dim in (1, 2):
        for name, build in _witness_builds(dim, budget).items():
            def output(build=build):
                try:
                    got = build()
                except Exception as exc:  # an exception is an output too
                    return f"raised {exc!r}".encode()
                return _canonical(got if isinstance(got, int) else got.to_record())
            yield f"witness/{seed}/{index}", f"{name} dim {dim}", output
            index += 1


def _run_cli(argv: list[str], cfg_text: str) -> bytes:
    """Exit code, stdout and stderr of one in-process CLI run on a config."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cfg_text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv[:1], "--config", path, *argv[1:]])
        return f"{code}\n{out.getvalue()}\0{err.getvalue().replace(tmp, '<tmp>')}".encode()


INSTANCES = {
    "rational": {"family": "rational_from", "modular": {"kind": "p_power", "p": 1.0},
                 "dim": 2},
    "step": {"family": "step_from", "modular": {"kind": "weighted_abs", "weights": [1.0]},
             "dim": 1},
}
DECLARATIONS = {"c+beta": {"declared_c": 2.0, "declared_beta": 1.0},
                "c": {"declared_c": 2.0}, "beta": {"declared_beta": 1.0}, "none": {}}


def _operations(dim: int) -> list[tuple[str, dict]]:
    def v(x):
        return [x] * dim

    ball = {"center": v(0.0), "level": 0.5, "scale": 1.0}
    return [
        ("check-axioms", {}),
        ("check-axioms", {"mutation": "break_pm3"}),
        ("check-delta2", {}),
        ("check-homogeneous", {}),
        ("check-homogeneous", {"beta": 1.0}),
        ("check-regularity", {}),
        ("ball-identities", {}),
        ("ball-identities", {"level": 0.3, "scale": 1.5, "level2": 0.8, "scale2": 2.5}),
        ("witness-refine", {}),
        ("witness-refine", {"outer": ball}),
        ("witness-refine", {"outer": ball, "z": v(0.05)}),
        ("witness-separate", {}),
        ("witness-separate", {"x": v(1.0)}),
        ("witness-separate", {"x": v(1.0), "y": v(-0.5)}),
        ("witness-separate", {"variant": "homogeneous"}),
        ("witness-separate", {"variant": "homogeneous", "x": v(0.7)}),
        ("witness-separate", {"variant": "other"}),
        ("witness-continuity", {}),
        ("witness-continuity", {"target": dict(ball, level=0.4, scale=1.5),
                                "scalar": -1.5}),
        ("check-convergence", {"sequence": {"kind": "harmonic", "base": v(0.0),
                                            "direction": v(0.3)}}),
        ("falsify", {"predicates": ["pm1", "translate_identity", "refine_ball",
                                    "scaling_identity", "scalar_continuity"]}),
        ("falsify", {}),
    ]


def _cli(seed: int) -> Iterator[Entry]:
    index = 0
    for inst_name, inst in INSTANCES.items():
        for decl_name, decl in DECLARATIONS.items():
            for eps in (1e-9, 0.3):
                budget = {"n_vectors": 300, "n_scalar_pairs": 300, "epsilon": eps,
                          "rng_seed": seed}
                for command, op in _operations(inst["dim"]):
                    cfg = {"instance": {**inst, **decl}, "budget": budget}
                    if op:
                        cfg["operation"] = op
                    label = f"{command} {json.dumps(op)} {inst_name} {decl_name} eps={eps}"
                    yield (f"cli/{seed}/{index}", label,
                           lambda command=command, cfg=cfg: _run_cli([command],
                                                                      json.dumps(cfg)))
                    index += 1


def _criterion8() -> Iterator[Entry]:
    cfg = json.dumps({"instance": {"family": "rational_from",
                                   "modular": {"kind": "p_power", "p": 1.0},
                                   "dim": 2, "declared_c": 2.0},
                      "budget": {"n_vectors": 2000, "rng_seed": 0}})
    for index, argv in enumerate((["check-axioms"], ["falsify", "--samples", "1000"],
                                  ["check-delta2", "--seed", "4"])):
        yield f"criterion8/0/{index}", " ".join(argv), lambda argv=argv: _run_cli(argv, cfg)


def _fuzz(cases: list[list[str]]) -> Iterator[Entry]:
    for index, (command, cfg_text) in enumerate(cases):
        yield (f"fuzz/0/{index}", f"{command} {cfg_text[:80]}",
               lambda command=command, cfg_text=cfg_text: _run_cli([command], cfg_text))


SEQUENCE = {"kind": "harmonic", "base": [0.0, 0.0], "direction": [0.3, 0.1]}
RECORD_CASES = [
    # Degree-one spaces checked at beta 0.5: most rows break.
    ("check-homogeneous", {"family": "rational_from", "dim": 1,
                           "modular": {"kind": "weighted_abs", "weights": [1.0]}},
     {"beta": 0.5}, 2000),
    ("check-homogeneous", {"family": "step_from", "dim": 2,
                           "modular": {"kind": "p_power", "p": 1.0}},
     {"beta": 0.5}, 2000),
    # Declared constants below the true ones (2 for p = 1, 4 for p = 2).
    ("check-delta2", {"family": "rational_from", "dim": 2, "declared_c": 1.5,
                      "modular": {"kind": "p_power", "p": 1.0}}, {}, 2000),
    ("check-delta2", {"family": "step_from", "dim": 1, "declared_c": 3.0,
                      "modular": {"kind": "p_power", "p": 2.0}}, {}, 2000),
    # About one sample in a hundred breaks pm4 at dim 4, so the kept records
    # come from several pm4 blocks.
    ("check-axioms", {"family": "rational_from", "dim": 4,
                      "modular": {"kind": "p_power", "p": 1.0}},
     {"mutation": "break_pm4"}, 12_000),
    ("check-axioms", {"family": "rational_from", "dim": 3,
                      "modular": {"kind": "weighted_abs", "weights": [1.0, 0.5, 2.0]}},
     {"mutation": "break_pm4"}, 12_000),
    # check-convergence at each exit: a constant offset on a step space at the
    # entry's step grid, which sees the offset, so both criteria call it
    # divergent (exit 0); an empty local base (exit 2); a given grid and n_max
    # (exit 0); and last, the first case at a given grid of t >= 10, where a
    # step kernel is 1 at every offset, so the value criterion calls the
    # constant offset convergent and the topological criterion does not (exit 1).
    ("check-convergence", {"family": "step_from", "dim": 2, "declared_c": 2.0,
                           "modular": {"kind": "p_power", "p": 1.0}},
     {"sequence": {"kind": "constant_offset", "base": [0.0, 0.0],
                   "direction": [0.3, 0.1]}}, 100),
    ("check-convergence", {"family": "rational_from", "dim": 1,
                           "modular": {"kind": "weighted_abs", "weights": [1.0]}},
     {"sequence": {"kind": "harmonic", "base": [0.0], "direction": [0.3]},
      "local_base_depth": 1}, 100),
    ("check-convergence", {"family": "rational_from", "dim": 2,
                           "modular": {"kind": "p_power", "p": 2.0}},
     {"sequence": {"kind": "geometric", "base": [0.0, 0.0], "direction": [0.3, -0.2],
                   "ratio": 0.5}, "t_grid": [0.5, 5.0, 50.0], "n_max": 4096}, 100),
    ("check-convergence", {"family": "step_from", "dim": 2, "declared_c": 2.0,
                           "modular": {"kind": "p_power", "p": 1.0}},
     {"sequence": {"kind": "constant_offset", "base": [0.0, 0.0],
                   "direction": [0.3, 0.1]}, "t_grid": [10.0, 100.0, 1000.0]}, 100),
    # check-convergence's operation checks, each an exit 3 with its stderr: an
    # unknown sequence kind, a direction of the wrong dimension, an empty
    # grid, n_max 0 and a local base depth that is not an integer.
    *(("check-convergence", {"family": "rational_from", "dim": 2,
                             "modular": {"kind": "p_power", "p": 1.0}}, op, 100)
      for op in ({"sequence": {"kind": "spiral", "base": [0.0, 0.0], "direction": [0.3, 0.1]}},
                 {"sequence": {"kind": "harmonic", "base": [0.0, 0.0], "direction": [0.3]}},
                 {"sequence": SEQUENCE, "t_grid": []},
                 {"sequence": SEQUENCE, "n_max": 0},
                 {"sequence": SEQUENCE, "local_base_depth": 1.5})),
]


def _records(seed: int) -> Iterator[Entry]:
    for index, (command, inst, op, n) in enumerate(RECORD_CASES):
        cfg = {"instance": inst, "operation": op,
               "budget": {"n_vectors": n, "n_scalar_pairs": n, "rng_seed": seed}}
        yield (f"records/{seed}/{index}", f"{command} {json.dumps(op)} {json.dumps(inst)}",
               lambda command=command, cfg=cfg: _run_cli([command], json.dumps(cfg)))


def corpus(fuzz_cases: list[list[str]]) -> Iterator[Entry]:
    for seed in SEEDS:
        yield from _registry(seed)
        yield from _witnesses(seed)
        yield from _cli(seed)
    yield from _criterion8()
    yield from _fuzz(fuzz_cases)
    for seed in SEEDS:
        yield from _records(seed)


def draw_fuzz_cases() -> list[list[str]]:
    """The first FUZZ_CASES configs the derandomized fuzz strategy draws."""
    import importlib.util

    from hypothesis import HealthCheck, given, settings

    spec = importlib.util.spec_from_file_location("test_cli", ROOT / "tests" / "test_cli.py")
    test_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(test_cli)
    cases: list[list[str]] = []

    @settings(max_examples=FUZZ_CASES, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(test_cli.configs())
    def collect(case):
        command, cfg = case
        cases.append([command, json.dumps(cfg)])

    collect()
    return cases


def load() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def digest(output: Callable[[], bytes]) -> str:
    return hashlib.sha256(output()).hexdigest()


def mismatch_message(stored: dict, key: str, label: str) -> str:
    made, now = stored["versions"], versions()
    return (f"{key} ({label}) differs from tests/golden/digests.json, made with "
            f"Python {made['python']} and numpy {made['numpy']}; this run has Python "
            f"{now['python']} and numpy {now['numpy']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate digests.json")
    mode.add_argument("--check", action="store_true", help="compare against digests.json")
    args = parser.parse_args(argv)
    if args.write:
        # Keep the stored fuzz cases, so a rewrite compares like with like.
        cases = load()["fuzz_cases"] if DIGESTS.exists() else draw_fuzz_cases()
        digests = {key: [label, digest(output)] for key, label, output in corpus(cases)}
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump({"versions": versions(), "digests": digests, "fuzz_cases": cases},
                      fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(digests)} digests to {DIGESTS}")
        return 0
    stored = load()
    seen, bad, tally = set(), [], Counter()
    for key, label, output in corpus(stored["fuzz_cases"]):
        seen.add(key)
        if stored["digests"].get(key, [None, None])[1] != digest(output):
            bad.append(mismatch_message(stored, key, label))
            tally[f"{key.split('/')[0]} {label.split()[0]}"] += 1
    gone = [key for key in stored["digests"] if key not in seen]
    bad += [f"{key} is stored but no longer computed" for key in gone]
    tally.update(f"{key.split('/')[0]} (no longer computed)" for key in gone)
    for line in bad:
        print(line)
    # Mismatched keys per group and subcommand (a label's first word), so a
    # change that moves bytes on purpose can name them; the count stays last.
    for name, count in sorted(tally.items()):
        print(f"mismatched {name}: {count}")
    print(f"{len(seen) - len(bad)} of {len(stored['digests'])} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
