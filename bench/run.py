"""pmtop benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; pmtop is imported from its ``src``.  One
process, one thread, a closed loop with one client.

--trace 0  runs the workload's timed loop for at least S seconds and at
           least MIN_OPS ops, and reports the end-to-end metrics (see
           BENCHMARK.json).  setup_s is the median over SETUP_REPEATS fresh
           processes of the time from process start until the first timed
           op can be issued: imports, input generation and one warm-up op.
--trace 1  runs a fixed number of ops three times: untraced, traced for
           times, and traced with tracemalloc for check_axioms memory.  The
           two traced passes must give identical counts.  It reports the
           per-layer metrics and writes the spans as NDJSON, plus a roll-up
           per layer, under .bench_out/.

Times are scaled to a nominal machine speed.  On a shared host the speed of
a core drifts by tens of percent over seconds, and a run of tens of seconds
does not average that out.  So a fixed pure-Python reference loop is timed
at least every PROBE_EVERY_S, and each op's wall time is multiplied by
NOMINAL_PROBE_S over the loop's time around that op.  An op that takes 10 ms
while the loop takes twice its nominal time is reported as 5 ms.  The raw
wall-clock figures go to the result file next to the scaled ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  An op fails if it raises or its output does
not pass the workload's check; the run is correct when no op failed and
every self-check held.
"""

import os

# Pinned before numpy is imported, so a stray variable cannot change the numbers.
for _var in ("PM_TOPOLOGY_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_OPS = 100        # so that ten latencies lie beyond the 90th percentile
SETUP_REPEATS = 7
READY = "ready"

PROBE_LOOP = 5000
PROBE_EVERY_S = 0.1
# About the fastest time of the reference loop (best of three) on a 2-core
# Xeon VM with CPython 3.11; scaled times are in seconds at that speed.
NOMINAL_PROBE_S = 3.0e-4


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_pmtop():
    if not (SRC / "pmtop" / "__init__.py").is_file():
        fail(f"no pmtop sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import pmtop
    if Path(pmtop.__file__).resolve().parent != SRC / "pmtop":
        fail(f"imported pmtop from {pmtop.__file__}, not from {SRC}")
    return pmtop


def machine() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu": cpu}


def reference_loop_s() -> float:
    """Best of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def to_nominal(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * NOMINAL_PROBE_S * 2.0 / (probe_before + probe_after)


@dataclass
class Pass:
    raw_s: list[float]       # wall time of each op
    scaled_s: list[float]    # the same, at nominal speed
    wall_s: float            # wall time of the whole pass
    failures: list[str]


def run_ops(wl, inputs, done, tracer=None) -> Pass:
    """Issues ops in input order until done(ops, elapsed) holds, timing the
    reference loop between ops at least every PROBE_EVERY_S."""
    probes, ops, failures = [], [], []
    start = time.perf_counter()
    last_probe = float("-inf")
    i = 0
    while True:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(reference_loop_s())
            last_probe = time.perf_counter()
        if tracer is not None:
            tracer.op_id = i
        inp = inputs[i % len(inputs)]
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
            reason = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, reason = None, f"raised {exc!r}"
        t1 = time.perf_counter()
        ops.append((t1 - t0, len(probes) - 1))
        if reason is None:
            reason = wl.check(inp, out)
        if reason:
            failures.append(f"op {i}: {reason}")
        i += 1
        if done(i, t1 - start):
            break
    probes.append(reference_loop_s())
    return Pass(raw_s=[d for d, _ in ops],
                scaled_s=[to_nominal(d, probes[j], probes[j + 1]) for d, j in ops],
                wall_s=time.perf_counter() - start, failures=failures)


def set_up(workload_name: str, seed: int, workdir: str):
    """Make the inputs and run one untimed warm-up op; returns the workload,
    its inputs and the warm-up's failures."""
    from workloads import WORKLOADS
    wl = WORKLOADS[workload_name]
    inputs = wl.inputs(seed, workdir)
    warm = run_ops(wl, inputs, lambda n, elapsed: True)
    return wl, inputs, [f"warm-up {f}" for f in warm.failures]


def setup_seconds(workload_name: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and nominal-speed times from spawning a fresh process until it is
    ready to time its first op."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_loop_s()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
             "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line != READY or code != 0:
            fail(f"set-up probe exited {code} without becoming ready")
        raw.append(elapsed)
        scaled.append(to_nominal(elapsed, before, reference_loop_s()))
    return raw, scaled


@dataclass
class Outcome:
    metrics: dict            # name -> (value, unit)
    attempted: int
    failures: list[str]      # failed ops
    problems: list[str]      # self-checks of the benchmark that did not hold
    extra: dict              # written to the result file only


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(args, wl, inputs, workdir) -> Outcome:
    setup_raw, setup_scaled = setup_seconds(args.workload, args.seed)
    loop = run_ops(wl, inputs,
                   lambda n, elapsed: elapsed >= args.seconds and n >= MIN_OPS)
    checks, finish_failures = wl.finish(inputs)
    ops = len(loop.scaled_s)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "throughput_ops_per_s": (ops / sum(loop.scaled_s), "ops/s"),
        "latency_p50_ms": (1e3 * statistics.median(loop.scaled_s), "ms"),
        "latency_p90_ms": (1e3 * p90(loop.scaled_s), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {"setup_s": statistics.median(setup_raw),
           "throughput_ops_per_s": ops / loop.wall_s,
           "latency_p50_ms": 1e3 * statistics.median(loop.raw_s),
           "latency_p90_ms": 1e3 * p90(loop.raw_s)}
    return Outcome(metrics, ops + checks, loop.failures + finish_failures, [],
                   {"ops": ops, "raw_wall_clock": raw, "setup_samples_s": setup_raw})


def traced(args, wl, inputs, workdir) -> Outcome:
    import pmtop
    from layers import PER_LAYER_UNITS, layer_metrics, new_tracer, self_test
    from workloads import WORKLOADS

    def fixed(tracer=None) -> Pass:
        return run_ops(wl, inputs, lambda n, elapsed: n >= wl.traced_ops, tracer)

    # Input generation is set-up work; it is traced on its own so that the
    # per-layer numbers of the ops stay free of it.
    setup_trace = new_tracer(pmtop, track_alloc=False)
    with setup_trace:
        wl.inputs(args.seed, workdir)
    plain = fixed()
    timed = new_tracer(pmtop, track_alloc=False)
    with timed:
        traced_pass = fixed(timed)
    alloc = new_tracer(pmtop, track_alloc=True)
    with alloc:
        alloc_pass = fixed(alloc)
    failures = plain.failures + traced_pass.failures + alloc_pass.failures
    attempted = 3 * wl.traced_ops

    problems = []
    first, second = timed.exact_counts(), alloc.exact_counts()
    if first != second:
        diff = sorted(k for k in first.keys() | second.keys()
                      if first.get(k) != second.get(k))
        problems.append(f"counts differ between two traced passes: {diff[:10]}")
    problems += [f"wrapper left after restore: {name}"
                 for name in timed.leftover_wrappers()]
    problems += self_test(pmtop, WORKLOADS, args.seed, workdir)

    values = layer_metrics(timed, alloc)
    values["falsifier.generate_instance.self_s"] = (
        setup_trace.stat("falsifier.generate_instance").self_s)
    untraced_s, traced_s = sum(plain.scaled_s), sum(traced_pass.scaled_s)
    values["trace.untraced_ops_per_s"] = wl.traced_ops / untraced_s
    values["trace.traced_ops_per_s"] = wl.traced_ops / traced_s
    values["trace.slowdown"] = traced_s / untraced_s
    values["error_ratio"] = len(failures) / attempted
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}

    stem = f"{args.workload}-seed{args.seed}"
    timed.write_spans(OUT_DIR / f"spans-{stem}.ndjson")
    with open(OUT_DIR / f"layers-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"ops": wl.traced_ops, "layers": timed.rollup(),
                   "functions": {n: {"calls": s.calls, "self_s": s.self_s}
                                 for n, s in sorted(timed.stats.items())},
                   "counts": first}, fh, indent=1, sort_keys=True)
    return Outcome(metrics, attempted, failures, problems,
                   {"ops": wl.traced_ops, "counts": first})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("registry_valid", "registry_mutated", "witness_batch",
                                 "axiom_bulk"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    import_pmtop()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        wl, inputs, warm_failures = set_up(args.workload, args.seed, workdir)
        if args.probe_setup:
            print(READY, flush=True)
            return
        out = (traced if args.trace else end_to_end)(args, wl, inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = warm_failures + out.failures
    spec_key = "per_layer" if args.trace else "end_to_end"
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)[spec_key]]
    if declared != list(out.metrics):
        out.problems.append("metrics differ from BENCHMARK.json: "
                            f"{sorted(set(declared) ^ set(out.metrics))}")
    info = machine()
    result = {"correct": not failures and not out.problems,
              "attempted": out.attempted + 1,  # the warm-up op
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()}}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "machine": info,
                   "failures": failures[:50], "problems": out.problems, **out.extra},
                  fh, indent=1)
    for line in failures[:20] + out.problems:
        print(f"not correct: {line}")
    print(f"machine: {json.dumps(info)}")
    for name, (value, unit) in out.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
