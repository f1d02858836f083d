/**
 * @file
 * Performance benchmark harness: the repo's BENCH trajectory.
 *
 * Times the legacy recursive reference walk against the compiled
 * ExecPlan path (src/isa/exec_plan.h) on interpreter-bound workloads
 * (AlexNet conv layers at 8 bit, a tiled FC with 2-D set-rows DMA,
 * low-bit and 16-bit configs), and the end-to-end analytic sweep
 * wall-clock (fig13, cold vs warm artifact cache). Every measurement
 * lands in a machine-readable JSON dump (--json; CI archives it as
 * BENCH_<pr>.json) so later perf PRs are judged against a recorded
 * baseline; docs/performance.md documents the schema.
 *
 * The library's determinism audit bans wall-clock reads from
 * simulation inputs; here std::chrono::steady_clock is the bench's
 * *output* (measured duration), which is inherently run-dependent.
 * Every simulated/interpreted result is still checked bit-identical
 * across the paths before a time is reported: the harness exits
 * nonzero on an InterpStats mismatch, and --min-speedup (used by
 * the CI perf-smoke job) exits nonzero when the plan path fails to
 * clear the requested multiple on the smoke workload.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/common/json.h"
#include "src/compiler/codegen.h"
#include "src/core/artifact_cache.h"
#include "src/dnn/model_zoo.h"
#include "src/isa/exec_plan.h"
#include "src/isa/interpreter.h"
#include "src/isa/memory.h"
#include "src/runner/figures.h"
#include "src/runner/sweep.h"

namespace {

using namespace bitfusion;

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** One interpreter workload: a named network to execute per sample. */
struct Workload
{
    std::string name;
    Network net;
};

/**
 * The classic AlexNet convolution stack at 8x8 bit, spatial dims
 * divided by @p scale -- the paper's canonical interpreter-bound
 * workload and the CI smoke gate.
 */
Workload
alexnetConv8b(unsigned scale)
{
    // The floor is the kernel size (padding keeps every output
    // nonempty), so --scale divides the MAC count by ~scale^2.
    auto dim = [scale](unsigned full, unsigned kernel) {
        return std::max(full / scale, kernel);
    };
    const FusionConfig c8 = zoo::cfg8x8();
    std::vector<Layer> layers = {
        Layer::conv("conv1", 3, dim(227, 11), dim(227, 11), 96, 11, 4,
                    0, c8),
        Layer::conv("conv2", 96, dim(27, 5), dim(27, 5), 256, 5, 1, 2,
                    c8, 2),
        Layer::conv("conv3", 256, dim(13, 3), dim(13, 3), 384, 3, 1, 1,
                    c8),
        Layer::conv("conv4", 384, dim(13, 3), dim(13, 3), 384, 3, 1, 1,
                    c8, 2),
        Layer::conv("conv5", 384, dim(13, 3), dim(13, 3), 256, 3, 1, 1,
                    c8, 2),
    };
    return {"alexnet_conv_8b", Network("alexnet-conv", layers)};
}

Workload
tiledFc8b(unsigned scale)
{
    const unsigned k = std::max(4096u / scale, 256u);
    const unsigned m = std::max(1024u / scale, 128u);
    return {"tiled_fc_8b",
            Network("tiled-fc",
                    {Layer::fc("fc", k, m, zoo::cfg8x8())})};
}

Workload
lowBitFc(unsigned scale)
{
    const unsigned k = std::max(2048u / scale, 256u);
    return {"low_bit_fc_2x2",
            Network("low-bit-fc",
                    {Layer::fc("fc", k, k / 2, zoo::cfg2x2())})};
}

Workload
baselineFc16b(unsigned scale)
{
    const unsigned k = std::max(1024u / scale, 128u);
    return {"baseline_fc_16b",
            Network("baseline-fc",
                    {Layer::fc("fc", k, k / 4, zoo::cfg16x16())})};
}

/**
 * Per-rep wall times of one execution path, reduced to the median
 * (the reported throughput: robust against a noisy neighbor rep) and
 * the min (best case; --reps 1 makes them equal).
 */
struct PathTiming
{
    double medianMs = 0;
    double minMs = 0;
};

PathTiming
reduceTimes(std::vector<double> perRepMs)
{
    PathTiming t;
    if (perRepMs.empty())
        return t;
    std::sort(perRepMs.begin(), perRepMs.end());
    t.minMs = perRepMs.front();
    const std::size_t n = perRepMs.size();
    t.medianMs = (n % 2 == 1)
                     ? perRepMs[n / 2]
                     : 0.5 * (perRepMs[n / 2 - 1] + perRepMs[n / 2]);
    return t;
}

/** Timed result of one interpreter workload, both execution paths. */
struct InterpResult
{
    std::uint64_t macs = 0;
    PathTiming legacy;
    PathTiming plan;
    double planBuildMs = 0;
    /** Stats AND memory bit-identical to legacy. */
    bool parity = false;
    bool planFused = false;
};

InterpResult
runInterpWorkload(const Workload &w, unsigned reps)
{
    AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    cfg.batch = 1;
    const Compiler compiler(cfg);
    const CompiledNetwork cn = compiler.compile(w.net);

    // Lower every block once (timed: this is the cost run() pays on
    // the first execution of a distinct block).
    InterpResult r;
    const auto buildStart = Clock::now();
    std::vector<std::shared_ptr<const ExecPlan>> plans;
    for (const LayerSchedule &sched : cn.schedules)
        plans.push_back(ExecPlan::build(sched.block));
    r.planBuildMs = msSince(buildStart);

    std::uint64_t extent = 0;
    for (const auto &plan : plans) {
        extent = std::max(extent, plan->memoryExtent());
        r.planFused = r.planFused || plan->fused();
    }

    // Zero-filled memory: representable under every config, and the
    // interpreters' cost is data-independent.
    MemoryModel seedMem;
    seedMem.allocate(extent);

    MemoryModel legacyMem = seedMem;
    Interpreter legacy(legacyMem);
    std::vector<double> times;
    times.reserve(reps);
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto start = Clock::now();
        for (const LayerSchedule &sched : cn.schedules)
            legacy.runLegacy(sched.block);
        times.push_back(msSince(start));
    }
    r.legacy = reduceTimes(times);
    r.macs = legacy.stats().macs / reps;

    MemoryModel planMem = seedMem;
    Interpreter interp(planMem);
    times.clear();
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto start = Clock::now();
        for (const auto &p : plans)
            interp.run(*p);
        times.push_back(msSince(start));
    }
    r.plan = reduceTimes(times);

    // Full-parity check: every InterpStats counter and every off-chip
    // memory word, against the legacy walk.
    r.parity = legacy.stats() == interp.stats() &&
               legacyMem.size() == planMem.size();
    for (std::uint64_t a = 0; r.parity && a < legacyMem.size(); ++a)
        r.parity = legacyMem.read(a) == planMem.read(a);
    if (!r.parity)
        std::fprintf(stderr, "%s: plan diverged from the legacy walk\n",
                     w.name.c_str());
    return r;
}

/** fig13 sweep wall-clock, cold and warm artifact cache. */
struct SweepTimes
{
    double coldMs = 0;
    double warmMs = 0;
    std::size_t cells = 0;
};

SweepTimes
runSweepBench(unsigned threads)
{
    const figures::Figure *fig13 = figures::find("fig13");
    if (fig13 == nullptr) {
        std::fprintf(stderr, "fig13 is not registered\n");
        std::exit(1);
    }
    const SweepSpec spec = fig13->spec();

    ArtifactCache cache;
    SweepOptions opts;
    opts.threads = threads;
    opts.cache = &cache;
    const SweepRunner runner(opts);

    SweepTimes t;
    t.cells = spec.cellCount();
    const auto cold = Clock::now();
    runner.run(spec);
    t.coldMs = msSince(cold);
    const auto warm = Clock::now();
    runner.run(spec);
    t.warmMs = msSince(warm);
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned scale = 4;
    unsigned reps = 1;
    unsigned threads = 1;
    double minSpeedup = 0;
    double minSpeedup16b = 0;
    std::string jsonPath;
    bool skipSweep = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--scale") {
            scale = static_cast<unsigned>(
                cli::uintArg(argc, argv, i, "--scale", UINT32_MAX));
            if (scale == 0)
                scale = 1;
        } else if (arg == "--reps") {
            reps = static_cast<unsigned>(
                cli::uintArg(argc, argv, i, "--reps", UINT32_MAX));
            if (reps == 0)
                reps = 1;
        } else if (arg == "--threads") {
            threads = static_cast<unsigned>(
                cli::uintArg(argc, argv, i, "--threads", UINT32_MAX));
        } else if (arg == "--quick") {
            scale = 8;
        } else if (arg == "--full") {
            scale = 1;
        } else if (arg == "--min-speedup") {
            minSpeedup = cli::doubleArg(argc, argv, i, "--min-speedup");
        } else if (arg == "--min-speedup-16b") {
            minSpeedup16b =
                cli::doubleArg(argc, argv, i, "--min-speedup-16b");
        } else if (arg == "--json") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--json needs a path\n");
                return 2;
            }
            jsonPath = argv[++i];
        } else if (arg == "--skip-sweep") {
            skipSweep = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: bench_perf [--scale N] [--quick | --full]\n"
                "                  [--reps N] [--threads N]\n"
                "                  [--min-speedup X]\n"
                "                  [--min-speedup-16b X]\n"
                "                  [--json PATH] [--skip-sweep]\n"
                "\n"
                "Times the legacy interpreter walk against the\n"
                "compiled ExecPlan path and the fig13 sweep\n"
                "wall-clock;\n"
                "--reps N reports the median (and records the min)\n"
                "over N timed repetitions. See docs/performance.md.\n");
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return 2;
        }
    }

    const std::vector<Workload> workloads = {
        alexnetConv8b(scale),
        tiledFc8b(scale),
        lowBitFc(scale),
        baselineFc16b(scale),
    };

    json::Value entries = json::Value::array();
    std::printf("interpreter throughput (scale %u, reps %u, "
                "Mmac/s per path, median over reps)\n",
                scale, reps);
    std::printf("%-18s %9s %9s %9s %9s %9s\n", "workload", "Mmacs",
                "legacy", "plan", "speedup", "build ms");

    bool parityOk = true;
    double smokeSpeedup = 0;
    double speedup16b = 0;
    for (const Workload &w : workloads) {
        const InterpResult r = runInterpWorkload(w, reps);
        parityOk = parityOk && r.parity;
        const double mmacs = static_cast<double>(r.macs) / 1e6;
        auto rate = [mmacs](double ms) {
            return ms > 0 ? mmacs / (ms / 1e3) : 0;
        };
        const double speedup =
            r.plan.medianMs > 0 ? r.legacy.medianMs / r.plan.medianMs
                                : 0;
        if (w.name == "alexnet_conv_8b")
            smokeSpeedup = speedup;
        if (w.name == "baseline_fc_16b")
            speedup16b = speedup;
        std::printf("%-18s %9.2f %9.1f %9.1f %8.1fx %9.2f%s\n",
                    w.name.c_str(), mmacs, rate(r.legacy.medianMs),
                    rate(r.plan.medianMs), speedup, r.planBuildMs,
                    r.parity ? "" : "  PARITY MISMATCH");

        auto entry = [&](const std::string &metric, double value,
                         const char *unit) {
            entries.push(json::Value::object()
                             .set("section", "interp")
                             .set("name", w.name)
                             .set("metric", metric)
                             .set("value", value)
                             .set("unit", unit));
        };
        entry("macs", static_cast<double>(r.macs), "mac");
        entry("legacy_mmacs_per_s", rate(r.legacy.medianMs), "Mmac/s");
        entry("legacy_mmacs_per_s_min", rate(r.legacy.minMs),
              "Mmac/s");
        entry("plan_mmacs_per_s", rate(r.plan.medianMs), "Mmac/s");
        entry("plan_mmacs_per_s_min", rate(r.plan.minMs), "Mmac/s");
        entry("speedup", speedup, "x");
        entry("plan_build_ms", r.planBuildMs, "ms");
        entry("stats_parity", r.parity ? 1 : 0, "bool");
        // Whether a plan ran a fused reduction nest.
        entry("fused", r.planFused ? 1 : 0, "bool");
    }

    if (!skipSweep) {
        const SweepTimes t = runSweepBench(threads);
        std::printf("\nfig13 sweep wall-clock (%zu cells, %u "
                    "thread%s): cold %.1f ms, warm %.1f ms\n",
                    t.cells, threads == 0 ? 0 : threads,
                    threads == 1 ? "" : "s", t.coldMs, t.warmMs);
        auto entry = [&](const char *metric, double value) {
            entries.push(json::Value::object()
                             .set("section", "sweep")
                             .set("name", "fig13")
                             .set("metric", metric)
                             .set("value", value)
                             .set("unit", "ms"));
        };
        entry("wall_ms_cold", t.coldMs);
        entry("wall_ms_warm", t.warmMs);
    }

    if (!jsonPath.empty()) {
        json::Value doc = json::Value::object();
        doc.set("schema", "bitfusion-bench-1");
        doc.set("bench", "bench_perf");
        doc.set("scale", scale);
        doc.set("reps", reps);
        doc.set("entries", std::move(entries));
        std::ofstream out(jsonPath);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        out << doc.dump(2) << "\n";
    }

    if (!parityOk) {
        std::fprintf(stderr,
                     "FAIL: the plan diverged from the legacy walk "
                     "(stats or memory)\n");
        return 1;
    }
    if (minSpeedup > 0 && smokeSpeedup < minSpeedup) {
        std::fprintf(stderr,
                     "FAIL: alexnet_conv_8b speedup %.2fx below the "
                     "--min-speedup %.2fx gate\n",
                     smokeSpeedup, minSpeedup);
        return 1;
    }
    if (minSpeedup16b > 0 && speedup16b < minSpeedup16b) {
        std::fprintf(stderr,
                     "FAIL: baseline_fc_16b speedup %.2fx below the "
                     "--min-speedup-16b %.2fx gate\n",
                     speedup16b, minSpeedup16b);
        return 1;
    }
    return 0;
}
