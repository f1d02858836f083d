#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --record-digests --seeds A-B [--workload NAME]

Run it from the repository root. It builds perfbench/bfbench from the
library sources (CMake, Release) into $CARGO_TARGET_DIR or .bench_build,
generates the workload's inputs from --seed, then runs the workload in
a fresh process per repetition for --seconds. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of untraced repetitions;
--trace 1 alternates traced and untraced repetitions and reports the
per-layer metrics, writes a Chrome trace and a self-time table under
<build>/traces/, and prints the table on stderr. README.md in this
directory defines every metric and workload.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import harness  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("sweep_all", "serve_overload_edf", "serve_chaos_closed")
DEFAULT_SEED = 1
# Never used while tuning a change; a claimed gain must also hold here.
HELDOUT_SEED = 7919
DIGESTS = HERE / "digests.json"
# Worker threads of the measured repetitions. Serving uses its pool only
# to precompile; sweep workers join on the slowest one, which makes a
# multi-threaded wall hostage to any preempted virtual CPU (README.md).
THREADS = 1
REP_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ns_per_req": "ns", "scaling_exp": "log2"}

# Per-layer host times: metric -> (span layer, "self_s" | "total_s").
LAYER_TIMES = {
    "runner.spec_s": ("runner.spec", "self_s"),
    "runner.expand_s": ("runner.expand", "self_s"),
    "runner.sweep_s": ("runner.sweep", "total_s"),
    "runner.report_s": ("runner.report", "self_s"),
    "runner.json_s": ("runner.json", "self_s"),
    "compiler.compile_s": ("compiler.compile", "total_s"),
    "sim.run_s": ("sim.run", "total_s"),
    "baselines.run_s": ("baselines.run", "total_s"),
    "serve.trace.parse_s": ("serve.trace.parse", "self_s"),
    "serve.engine.ctor_s": ("serve.engine.ctor", "self_s"),
    "serve.engine.run_s": ("serve.engine.run", "self_s"),
    "serve.report.json_s": ("serve.report.json", "self_s"),
}
# Per-layer counts reported by bfbench (0 where a workload lacks one).
LAYER_COUNTS = (
    "runner.cells", "core.cache_hit_ratio", "serve.compiles",
    "serve.cache_hits", "serve.batches", "serve.batch_fill",
    "serve.shed", "serve.deadline_misses", "serve.network_switches",
    "serve.distinct_shapes", "serve.goodput", "faults.lost_batches",
    "faults.retries", "faults.hedges_issued", "faults.hedge_win_ratio",
    "faults.wasted_ratio", "scheduler.edf_n_s", "scheduler.edf_2n_s",
    "scheduler.fifo_2n_s", "scheduler.edf_over_fifo")
# Layers whose busy time runner.parallel_eff divides among the threads.
SWEEP_WORKER_LAYERS = ("core.build", "compiler.compile", "sim.run",
                       "baselines.run")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configure and build bfbench; returns its path."""
    cmake_dir = out / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(cmake_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(cmake_dir), "--target", "bfbench",
              "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850).returncode != 0:
            sys.exit(f"build failed: {' '.join(step)}")
    return cmake_dir / "bfbench"


def nproc():
    return len(os.sched_getaffinity(0))


class Runner:
    """Runs repetitions of one workload and seed in fresh processes."""

    def __init__(self, binary, workload, seed, out):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.dir = out / "work" / f"{workload}-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.traces = out / "traces"

    def bfbench(self, command, *extra, stdout=subprocess.DEVNULL):
        # A persistent artifact store is not measured (README.md).
        env = {k: v for k, v in os.environ.items() if k != "BITFUSION_STORE"}
        return subprocess.run(
            [str(self.binary), command, "--workload", self.workload,
             "--seed", str(self.seed), "--dir", str(self.dir), *extra],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
            timeout=REP_TIMEOUT_S)

    def generate(self):
        done = self.bfbench("gen")
        if done.returncode != 0:
            sys.exit(f"input generation failed:\n{done.stderr}")

    def rep(self, threads, trace_path=None):
        """One repetition: its result dict, or None and the reason."""
        result = self.dir / "result.json"
        result.unlink(missing_ok=True)
        extra = ["--threads", str(threads), "--result", str(result)]
        if trace_path is not None:
            extra += ["--trace", str(trace_path)]
        try:
            with open(self.dir / "stdout.txt", "w") as stdout:
                done = self.bfbench("run", *extra, stdout=stdout)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {REP_TIMEOUT_S} s"
        if done.returncode != 0:
            return None, (f"exit code {done.returncode}: "
                          f"{done.stderr.strip()[-500:]}")
        try:
            return json.loads(result.read_text()), None
        except (OSError, ValueError) as err:
            return None, f"no result: {err}"


def load_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def recorded_digest(digests, workload, seed):
    table = digests.get(workload, {})
    return table.get("*", table.get(str(seed)))


def check(result, reference, recorded):
    """Reasons a repetition's outputs are wrong (empty when right)."""
    errors = harness.invariant_errors(result["digest"])
    if reference is not None:
        errors += [f"differs from the first repetition: {line}"
                   for line in harness.digest_diff(reference,
                                                   result["digest"])]
    if recorded is not None:
        errors += [f"differs from the recorded digest: {line}"
                   for line in harness.digest_diff(recorded,
                                                   result["digest"])]
    return errors


def end_to_end_values(reps):
    """Each end-to-end metric's value in every repetition."""
    return {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "ns_per_req": [r["ns_per_req"] for r in reps],
        "scaling_exp": [harness.scaling_exp(r["run_n_s"], r["run_2n_s"])
                        for r in reps],
    }


def end_to_end(reps):
    return {name: harness.median(v)
            for name, v in end_to_end_values(reps).items()}


def per_layer(rep, threads):
    """The per-layer metrics of one traced repetition."""
    layers = rep["layers"]

    def layer(name, field):
        return layers.get(name, {}).get(field, 0.0)

    out = {name: layer(*where) for name, where in LAYER_TIMES.items()}
    out.update({name: rep["counts"].get(name, 0) for name in LAYER_COUNTS})
    out["sim.cells"] = layer("sim.run", "spans")
    out["baselines.cells"] = layer("baselines.run", "spans")
    compiles = layer("compiler.compile", "spans")
    out["compiler.compiles"] = compiles
    out["compiler.us_per_compile"] = (
        out["compiler.compile_s"] * 1e6 / compiles if compiles else 0.0)
    busy = sum(layer(name, "total_s") for name in SWEEP_WORKER_LAYERS)
    sweep = out["runner.sweep_s"]
    out["runner.parallel_eff"] = busy / (threads * sweep) if sweep else 0.0
    out["trace.uncovered_s"] = rep["wall_s"] - rep["covered_s"]
    return out


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "compiler.us_per_compile":
        return "us"
    if name.endswith(("_ratio", "_eff", "_fill", "goodput", "overhead",
                      "_over_fifo")):
        return "ratio"
    return "count"


def self_time_table(rep, untraced_wall):
    rows = sorted(rep["layers"].items(), key=lambda kv: -kv[1]["wall_s"])
    wall = rep["wall_s"]
    lines = [f"{'layer':<20} {'spans':>7} {'total s':>10} {'self s':>10} "
             f"{'wall s':>10} {'wall %':>7}"]
    for name, t in rows:
        lines.append(f"{name:<20} {t['spans']:>7} {t['total_s']:>10.6f} "
                     f"{t['self_s']:>10.6f} {t['wall_s']:>10.6f} "
                     f"{100 * t['wall_s'] / wall:>6.2f}%")
    uncovered = wall - rep["covered_s"]
    lines.append(f"{'(no span)':<20} {'':>7} {'':>10} {'':>10} "
                 f"{uncovered:>10.6f} {100 * uncovered / wall:>6.2f}%")
    lines.append(f"traced wall {wall:.6f} s; untraced median wall "
                 f"{untraced_wall:.6f} s; tracing overhead "
                 f"{100 * (wall / untraced_wall - 1):+.2f}%")
    return "\n".join(lines)


def measure(args, binary, out):
    runner = Runner(binary, args.workload, args.seed, out)
    runner.generate()
    threads = THREADS
    recorded = recorded_digest(load_digests(), args.workload, args.seed)
    if recorded is None:
        log(f"no recorded digest for {args.workload} seed {args.seed}: "
            "checking invariants and agreement across repetitions and "
            "thread counts only")
    runner.traces.mkdir(parents=True, exist_ok=True)
    stem = runner.traces / f"{args.workload}-seed{args.seed}"

    attempted = failed = 0
    reference = None
    # Completed repetitions, each with whether its outputs were right.
    untraced, traced = [], []

    def run_one(rep_threads, trace_path=None):
        nonlocal attempted, failed, reference
        attempted += 1
        result, error = runner.rep(rep_threads, trace_path)
        errors = [error] if result is None else check(result, reference,
                                                      recorded)
        if errors:
            failed += 1
            log(f"repetition {attempted} ({rep_threads} threads) failed: "
                + "; ".join(errors[:5]))
        elif reference is None:
            reference = result["digest"]
        return result, not errors

    start = time.monotonic()
    while (time.monotonic() - start < args.seconds or not untraced
           or (args.trace and not traced)):
        if failed == attempted >= 3:
            break
        trace_path = None
        if args.trace and len(traced) < len(untraced):
            trace_path = stem.with_suffix(f".rep{attempted}.json")
        result, ok = run_one(threads, trace_path)
        if result is not None:
            result["trace_path"] = trace_path
            (traced if trace_path else untraced).append((result, ok))
    # The digest must not depend on the thread count.
    if nproc() != threads:
        run_one(nproc())

    if not untraced or (args.trace and not traced):
        sys.exit(f"{args.workload}: no repetition completed")
    # Time the right repetitions; only when none was right, the wrong.
    untraced = [r for r, ok in untraced if ok] or [r for r, _ in untraced]
    traced = [r for r, ok in traced if ok] or [r for r, _ in traced]
    e2e = end_to_end(untraced)
    if args.trace:
        layer_values = [per_layer(r, threads) for r in traced]
        metrics = {name: harness.median([v[name] for v in layer_values])
                   for name in layer_values[0]}
        metrics["trace.wall_s"] = harness.median(
            [r["wall_s"] for r in traced])
        metrics["trace.overhead"] = (metrics["trace.wall_s"]
                                     / e2e["wall_s"] - 1)
        typical = min(traced, key=lambda r: abs(
            r["wall_s"] - metrics["trace.wall_s"]))
        typical["trace_path"].replace(stem.with_suffix(".trace.json"))
        for rep_trace in runner.traces.glob(f"{stem.name}.rep*.json"):
            rep_trace.unlink()
        table = self_time_table(typical, e2e["wall_s"])
        stem.with_suffix(".selftime.txt").write_text(table + "\n")
        log(table)
        log(f"chrome trace: {stem.with_suffix('.trace.json')}")
        units = {name: layer_unit(name) for name in metrics}
        for name, value in metrics.items():
            log(f"{name:<28} {value:>16.6f} {units[name]}")
    else:
        metrics = e2e
        units = END_TO_END_UNITS
        for name, values in end_to_end_values(untraced).items():
            q1, q2, q3 = harness.quartiles(values)
            log(f"{name:<12} median {q2:>14.6f} {units[name]:<4} "
                f"quartiles {q1:.6g} .. {q3:.6g} over {len(values)} "
                "repetitions")
    log(f"{len(untraced)} untraced and {len(traced)} traced repetitions "
        f"at {threads} threads")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def record(args, binary, out):
    """Store the digest of each workload and seed in digests.json."""
    digests = load_digests()
    for workload in [args.workload] if args.workload else WORKLOADS:
        table = digests.setdefault(workload, {})
        for seed in ([DEFAULT_SEED] if workload == "sweep_all"
                     else parse_seeds(args.seeds)):
            runner = Runner(binary, workload, seed, out)
            runner.generate()
            result, error = runner.rep(THREADS)
            if result is None or harness.invariant_errors(result["digest"]):
                sys.exit(f"{workload} seed {seed}: {error or 'invariants'}")
            table["*" if workload == "sweep_all" else str(seed)] = \
                result["digest"]
            log(f"recorded {workload} seed {seed}")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--seeds", default=f"0-40,{HELDOUT_SEED}")
    args = parser.parse_args()
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    binary = build(out)
    if args.record_digests:
        record(args, binary, out)
        return
    print(json.dumps(measure(args, binary, out)), flush=True)


if __name__ == "__main__":
    main()
