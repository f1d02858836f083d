/**
 * @file
 * Out-of-tree extension tests: a toy backend and a toy scheduler
 * registered through the same PlatformRegistry::add() and
 * SchedulerRegistry::add() doors a real plug-in would use -- no file
 * under src/core/ or src/serve/ knows they exist -- then driven
 * through the sweep grid, a heterogeneous serving fleet, and the
 * shared ArtifactCache. Also pins the registry failure modes
 * (duplicate kinds, unknown kinds/variants/schedulers) and the GPU
 * baseline's board-power energy model against the pre-energy golden
 * cycle counts.
 */

#include <gtest/gtest.h>

#include "src/baselines/diannao.h"
#include "src/baselines/gpu.h"
#include "src/baselines/mxu.h"
#include "src/core/artifact_cache.h"
#include "src/core/platform_registry.h"
#include "src/dnn/model_zoo.h"
#include "src/runner/sweep.h"
#include "src/serve/scheduler.h"
#include "src/serve/serving_engine.h"

namespace bitfusion {
namespace {

using serve::BatchPlan;
using serve::InferenceRequest;
using serve::Scheduler;
using serve::SchedulerContext;
using serve::SchedulerRegistry;
using serve::ServeOptions;
using serve::ServeReport;
using serve::ServingEngine;

// ------------------------------------------------- The toy backend

/** Config of the toy platform: a flat-rate MAC engine. */
struct ToyConfig
{
    std::string name = "toy";
    double macsPerCycle = 1024.0;
    std::uint64_t bwBitsPerCycle = 64;
    unsigned batch = 4;

    bool
    operator==(const ToyConfig &o) const
    {
        return name == o.name && macsPerCycle == o.macsPerCycle &&
               bwBitsPerCycle == o.bwBitsPerCycle && batch == o.batch;
    }
};

/** Artifact the toy compile step produces (layer count). */
struct ToyArtifact : PlatformArtifact
{
    std::size_t layerCount = 0;
};

/**
 * Flat-rate platform: every MAC-array layer takes macs/macsPerCycle
 * cycles and streams its weights from DRAM once. Small on purpose --
 * the tests exercise the registries and caches, not the model.
 */
class ToyPlatform : public Platform
{
  public:
    explicit ToyPlatform(ToyConfig cfg) : cfg(std::move(cfg)) {}

    using Platform::run;

    std::string name() const override { return cfg.name; }

    PlatformInfo
    describe() const override
    {
        PlatformInfo info;
        info.name = cfg.name;
        info.kind = "toy";
        info.compute = "flat-rate MAC engine";
        info.freqMHz = 1000.0;
        info.batch = cfg.batch;
        return info;
    }

    std::string
    compileKey() const override
    {
        return "toy/" + std::to_string(cfg.macsPerCycle);
    }

    PlatformArtifactPtr
    compile(const Network &net) const override
    {
        auto artifact = std::make_shared<ToyArtifact>();
        artifact->layerCount = net.layers().size();
        return artifact;
    }

    RunStats
    run(const Network &net, const RunOptions &opts) const override
    {
        return walkLayers(net.name(), cfg.batch, 1000.0,
                          net.layers(), opts.timing, opts.perLayer,
                          [this](const Layer &layer, LayerWalk &walk) {
                              runLayer(layer, walk);
                          });
    }

  private:
    /** The model's own arithmetic: one layer's stats into the walk. */
    void
    runLayer(const Layer &layer, LayerWalk &walk) const
    {
        LayerStats st;
        st.name = layer.name;
        st.config = "toy";
        st.macs = layer.macsPerSample() * cfg.batch;
        st.computeCycles = static_cast<std::uint64_t>(
            static_cast<double>(st.macs) / cfg.macsPerCycle);
        st.utilization = 1.0;
        st.dramLoadBits = layer.weightBits();
        // No pipeline fill; the walk derives memCycles from the bits.
        walk.add(std::move(st), cfg.bwBitsPerCycle, 0);
    }

    ToyConfig cfg;
};

/** Spec factory, exactly as an out-of-tree backend would write it. */
PlatformSpec
toyPlatform(const ToyConfig &cfg = {})
{
    return specOf("toy", cfg.name, true, cfg);
}

PlatformRegistry::Entry
toyEntry()
{
    return {"toy", "(no variants)", "flat-rate test backend",
            [](const std::string &variant) {
                return variant.empty() ? std::optional(toyPlatform())
                                       : std::nullopt;
            },
            buildModel<ToyPlatform, ToyConfig>};
}

// ----------------------------------------------- The toy scheduler

/** Dispatches exactly the head-of-line request, immediately. */
class SingleScheduler : public Scheduler
{
  public:
    const char *name() const override { return "single"; }

    void
    plan(SchedulerContext &ctx, double now, BatchPlan &out) override
    {
        // The engine admits every arrival due by the planning time
        // before it plans, so the next one is strictly later; the
        // reused plan buffer arrives empty.
        EXPECT_GT(ctx.nextArrivalUs(), now);
        EXPECT_TRUE(out.members.empty());
        const serve::RequestHandle head = ctx.pending().oldest();
        out.members.push_back(head);
        out.network = ctx.pending()[head].network;
        out.samples = ctx.pending()[head].samples;
        out.dispatchUs = now;
    }
};

SchedulerRegistry::Entry
singleEntry()
{
    return {"single", "one request per batch (test policy)",
            [] { return std::make_unique<SingleScheduler>(); }};
}

/**
 * Register the toy backend and scheduler exactly once per process,
 * through the public add() doors only.
 */
void
registerToys()
{
    static const bool once = [] {
        PlatformRegistry::builtin().add(toyEntry());
        SchedulerRegistry::builtin().add(singleEntry());
        return true;
    }();
    (void)once;
}

/** Catalog entry whose quantized and baseline variants coincide. */
zoo::Benchmark
tinyBench(const std::string &name, unsigned out_c)
{
    Network net(name, {});
    net.add(Layer::fc("fc1", 64, out_c, zoo::cfg8x8()));
    net.add(Layer::fc("fc2", out_c, 16, zoo::cfg4x4()));
    return {name, net, net};
}

// ------------------------------------------------------- The tests

/** @p report, once its conservation invariants are checked. */
ServeReport
checked(ServeReport report)
{
    EXPECT_EQ(report.checkInvariants(), "");
    return report;
}

TEST(PluginBackend, ParsesAndBuildsThroughTheRegistry)
{
    registerToys();
    const PlatformRegistry &reg = PlatformRegistry::builtin();
    const PlatformSpec spec = reg.parse("toy");
    EXPECT_EQ(spec.kind, "toy");
    EXPECT_EQ(spec.name, "toy");
    EXPECT_EQ(spec.batch, 4u);
    const auto platform = reg.build(spec);
    EXPECT_EQ(platform->name(), "toy");
    EXPECT_EQ(platform->describe().kind, "toy");

    // The spec's batch reaches the built platform.
    PlatformSpec batched = reg.parse("toy");
    batched.batch = 9;
    EXPECT_EQ(reg.build(batched)->describe().batch, 9u);
}

TEST(PluginBackend, RunsThroughTheSweepGrid)
{
    registerToys();
    ArtifactCache cache;
    SweepSpec spec;
    spec.name = "plugin";
    spec.platforms = {PlatformRegistry::builtin().parse("toy"),
                      PlatformRegistry::builtin().parse("mxu")};
    spec.networks = {tinyBench("netA", 64), tinyBench("netB", 128)};

    SweepOptions opts;
    opts.threads = 2;
    opts.cache = &cache;
    const SweepResult result = SweepRunner(opts).run(spec);

    ASSERT_EQ(result.cells().size(), 4u);
    for (const auto &cell : result.cells())
        EXPECT_GT(cell.stats.totalCycles, 0u) << cell.platform;
    // The toy backend compiles (one artifact per network); the MXU
    // has no compile step and stays off the cache's counters.
    EXPECT_EQ(cache.compileCount(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(PluginBackend, ArtifactCacheReusesAcrossSweeps)
{
    registerToys();
    ArtifactCache cache;
    SweepSpec spec;
    spec.name = "plugin-cache";
    spec.platforms = {PlatformRegistry::builtin().parse("toy")};
    spec.networks = {tinyBench("netA", 64)};
    SweepOptions opts;
    opts.threads = 1;
    opts.cache = &cache;

    SweepRunner(opts).run(spec);
    EXPECT_EQ(cache.compileCount(), 1u);
    SweepRunner(opts).run(spec);
    EXPECT_EQ(cache.compileCount(), 1u);
    EXPECT_GE(cache.hitCount(), 1u);
}

TEST(PluginScheduler, DrivesAHeterogeneousFleet)
{
    registerToys();
    ArtifactCache cache;
    ServeOptions opts;
    opts.threads = 1;
    opts.scheduler = "single";
    opts.maxBatch = 8;
    opts.cache = &cache;
    ServingEngine engine({PlatformRegistry::builtin().parse("toy"),
                          PlatformRegistry::builtin().parse("dadiannao")},
                         opts);
    engine.setCatalog({tinyBench("netA", 64), tinyBench("netB", 128)});

    std::vector<InferenceRequest> trace;
    for (std::uint64_t i = 0; i < 12; ++i) {
        InferenceRequest r;
        r.id = i;
        r.network = (i % 2 != 0u) ? "netB" : "netA";
        r.samples = 2;
        r.arrivalUs = static_cast<double>(i) * 50.0;
        trace.push_back(r);
    }
    const ServeReport report = checked(engine.run(trace));
    EXPECT_EQ(report.requests.size(), 12u);
    ASSERT_EQ(report.replicas.size(), 2u);
    // "single" never coalesces: one batch per request.
    EXPECT_EQ(report.batches.size(), 12u);
    EXPECT_EQ(report.scheduler, "single");
}

TEST(PluginRegistryDeath, DuplicateAndUnknownNamesAreFatal)
{
    registerToys();
    EXPECT_DEATH(PlatformRegistry::builtin().add(toyEntry()),
                 "duplicate platform kind");
    EXPECT_DEATH(SchedulerRegistry::builtin().add(singleEntry()),
                 "duplicate scheduler");
    EXPECT_DEATH(PlatformRegistry::builtin().parse("npu"),
                 "unknown platform");
    EXPECT_DEATH(SchedulerRegistry::builtin().make("rr"),
                 "unknown scheduler");
    EXPECT_DEATH(PlatformRegistry::builtin().parse("toy:v2"),
                 "unknown toy variant 'v2'; toy takes \\(no variants\\)");
    EXPECT_DEATH(PlatformRegistry::builtin().parse("mxu:v3"),
                 "unknown mxu variant 'v3'");
    EXPECT_DEATH(PlatformRegistry::builtin().parse("dadiannao:pudiannao"),
                 "unknown dadiannao variant 'pudiannao'; dadiannao takes "
                 "dadiannao \\(default\\) \\| diannao");
}

TEST(PluginListings, NewKindsAndPoliciesAreEnumerable)
{
    registerToys();
    bool saw_mxu = false, saw_diannao = false, saw_toy = false;
    for (const auto &entry : PlatformRegistry::builtin().entries()) {
        saw_mxu |= entry.kind == "mxu";
        saw_diannao |= entry.kind == "dadiannao";
        saw_toy |= entry.kind == "toy";
        EXPECT_FALSE(entry.help.empty()) << entry.kind;
        EXPECT_FALSE(entry.variants.empty()) << entry.kind;
    }
    EXPECT_TRUE(saw_mxu);
    EXPECT_TRUE(saw_diannao);
    EXPECT_TRUE(saw_toy);

    bool saw_single = false;
    for (const auto &entry : SchedulerRegistry::builtin().entries()) {
        saw_single |= entry.name == "single";
        EXPECT_FALSE(entry.help.empty()) << entry.name;
    }
    EXPECT_TRUE(saw_single);
    EXPECT_NE(SchedulerRegistry::builtin().names().find("single"),
              std::string::npos);
}

// ------------------------------------------- GPU energy satellite

/**
 * Cycle counts copied from tests/golden/fig17.json as generated
 * before the GPU energy model existed: the energy satellite must not
 * move a single timing digit.
 */
TEST(GpuEnergy, CyclesPinnedToPreEnergyGolden)
{
    const struct
    {
        GpuSpec spec;
        const char *network;
        std::uint64_t cycles;
    } pins[] = {
        {GpuSpec::tegraX2Fp32(), "AlexNet", 69151125ull},
        {GpuSpec::tegraX2Fp32(), "LSTM", 1258571ull},
        {GpuSpec::titanXpFp32(), "AlexNet", 3206947ull},
        {GpuSpec::titanXpInt8(), "AlexNet", 2028342ull},
        {GpuSpec::titanXpInt8(), "LSTM", 58760ull},
    };
    for (const auto &pin : pins) {
        const zoo::Benchmark bench =
            std::string(pin.network) == "LSTM" ? zoo::lstm()
                                               : zoo::alexnet();
        const GpuModel model(pin.spec);
        EXPECT_EQ(model.run(bench.baseline).totalCycles, pin.cycles)
            << pin.spec.name << " " << pin.network;
    }
}

TEST(GpuEnergy, BoardPowerTimesTime)
{
    const GpuModel model(GpuSpec::titanXpInt8());
    const RunStats rs = model.run(zoo::alexnet().baseline);
    const double totalJ = rs.energy().totalJ();
    ASSERT_GT(totalJ, 0.0);
    // Energy is board power x the Simple-timing wall time; the only
    // slack is totalCycles' truncation to whole nanoseconds.
    const double expected =
        GpuSpec::titanXpInt8().boardPowerW * rs.seconds();
    EXPECT_NEAR(totalJ, expected, 1e-3 * expected);
    // All of it is modeled as compute (board-level, not component).
    EXPECT_DOUBLE_EQ(totalJ, rs.energy().computeJ);
}

TEST(GpuEnergy, InvariantAcrossTimingModels)
{
    const GpuModel model(GpuSpec::tegraX2Fp32());
    RunOptions simple, overlap;
    simple.timing = TimingModel::Simple;
    overlap.timing = TimingModel::Overlap;
    const Network &net = zoo::lstm().baseline;
    const RunStats a = model.run(net, simple);
    const RunStats b = model.run(net, overlap);
    EXPECT_DOUBLE_EQ(a.energy().totalJ(), b.energy().totalJ());
    EXPECT_LE(b.totalCycles, a.totalCycles);
}

// --------------------------------------- New-backend model checks

TEST(MxuModel, TilePassesCoverTheGemm)
{
    MxuConfig cfg;
    cfg.rows = 256;
    cfg.cols = 256;
    const MxuModel model(cfg);
    // An FC layer is a GEMM with m = outputs, k = inputs, n = 1 per
    // sample: ceil(k/rows) * ceil(m/cols) weight tiles, each shifted
    // in (rows cycles) and streamed through by the whole batch.
    const struct
    {
        unsigned m, k;
        std::uint64_t passes;
    } cases[] = {{256, 256, 1}, {257, 256, 2}, {512, 512, 4}, {1, 1, 1}};
    for (const auto &c : cases) {
        const Network net("gemm", {Layer::fc("f", c.k, c.m, zoo::cfg8x8())});
        const RunStats rs = model.run(net);
        ASSERT_EQ(rs.layers.size(), 1u);
        EXPECT_EQ(rs.layers[0].computeCycles,
                  c.passes * (1ull * cfg.batch + cfg.rows))
            << c.m << "x" << c.k;
    }
}

TEST(MxuModel, ParseRoundTripsVariants)
{
    const PlatformRegistry &reg = PlatformRegistry::builtin();
    EXPECT_EQ(reg.parse("mxu").name, "mxu-v1");
    EXPECT_EQ(reg.parse("mxu:v1").name, "mxu-v1");
    EXPECT_EQ(reg.parse("mxu:edge").name, "mxu-edge");
    EXPECT_EQ(reg.parse("mxu:edge").kind, "mxu");
    EXPECT_EQ(reg.parse("mxu").config.as<MxuConfig>().rows, 256u);
    EXPECT_EQ(reg.parse("mxu:edge").config.as<MxuConfig>().rows, 64u);
}

TEST(DianNaoModel, ResidencyFollowsTheEdram)
{
    const DianNaoModel dadiannao{DianNaoConfig::dadiannao()};
    // AlexNet's ~61M 16-bit weights overflow the 36 MB eDRAM; the
    // LSTM fits with room to spare.
    EXPECT_FALSE(dadiannao.weightsFit(zoo::alexnet().baseline));
    EXPECT_TRUE(dadiannao.weightsFit(zoo::lstm().baseline));
    // The original DianNao streams everything.
    const DianNaoModel diannao{DianNaoConfig::diannao()};
    EXPECT_FALSE(diannao.weightsFit(zoo::lstm().baseline));

    // Residency zeroes the weight DRAM term.
    const RunStats resident = dadiannao.run(zoo::lstm().baseline);
    const RunStats streamed = diannao.run(zoo::lstm().baseline);
    std::uint64_t resident_load = 0, streamed_load = 0;
    for (const auto &l : resident.layers)
        resident_load += l.dramLoadBits;
    for (const auto &l : streamed.layers)
        streamed_load += l.dramLoadBits;
    EXPECT_LT(resident_load, streamed_load);
}

TEST(DianNaoModel, ParseRoundTripsVariants)
{
    const PlatformRegistry &reg = PlatformRegistry::builtin();
    EXPECT_EQ(reg.parse("dadiannao").name, "dadiannao");
    EXPECT_EQ(reg.parse("dadiannao:diannao").name, "diannao");
    EXPECT_EQ(reg.parse("dadiannao:diannao").kind, "dadiannao");
    EXPECT_EQ(
        reg.parse("dadiannao").config.as<DianNaoConfig>().tiles, 16u);
    EXPECT_EQ(reg.parse("dadiannao:diannao")
                  .config.as<DianNaoConfig>()
                  .tiles,
              1u);
    EXPECT_FALSE(reg.parse("dadiannao").runsQuantized);
}

// ----------------------------------------- Config handle contract

TEST(PlatformConfig, ValueSemanticsAndEquality)
{
    const PlatformSpec a = toyPlatform();
    PlatformSpec b = a; // deep copy through clone()
    EXPECT_TRUE(a.config == b.config);

    ToyConfig faster;
    faster.macsPerCycle = 2048.0;
    const PlatformSpec c = toyPlatform(faster);
    EXPECT_FALSE(a.config == c.config);

    // Cross-type comparison is false, not fatal.
    EXPECT_FALSE(a.config ==
                 PlatformRegistry::builtin().parse("mxu").config);

    // get_if: typed access without commitment.
    EXPECT_NE(a.config.get_if<ToyConfig>(), nullptr);
    EXPECT_EQ(a.config.get_if<MxuConfig>(), nullptr);

    PlatformConfig empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_TRUE(empty == PlatformConfig{});
    EXPECT_FALSE(empty == a.config);
}

} // namespace
} // namespace bitfusion
