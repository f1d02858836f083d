/**
 * @file
 * Platform-interface tests: parity between registry-built platforms
 * and the concrete model classes (field-for-field RunStats equality
 * on AlexNet/LSTM at batch 16, every registered variant, both timing
 * models), PlatformSpec/registry round-trips, CLI parsing,
 * compiled-artifact reuse, and the LayerWalk timing models (overlap
 * never exceeds simple).
 */

#include <gtest/gtest.h>

#include "src/baselines/diannao.h"
#include "src/baselines/eyeriss.h"
#include "src/baselines/gpu.h"
#include "src/baselines/mxu.h"
#include "src/baselines/stripes.h"
#include "src/compiler/codegen.h"
#include "src/core/platform_registry.h"
#include "src/dnn/model_zoo.h"
#include "src/sim/bitfusion_platform.h"
#include "src/sim/simulator.h"

namespace bitfusion {
namespace {

/** Field-for-field equality of two runs (exact, including energy). */
void
expectSameRun(const RunStats &a, const RunStats &b)
{
    EXPECT_EQ(a.platform, b.platform);
    EXPECT_EQ(a.network, b.network);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_DOUBLE_EQ(a.freqMHz, b.freqMHz);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
        const LayerStats &la = a.layers[i];
        const LayerStats &lb = b.layers[i];
        EXPECT_EQ(la.name, lb.name) << i;
        EXPECT_EQ(la.config, lb.config) << i;
        EXPECT_EQ(la.macs, lb.macs) << i;
        EXPECT_EQ(la.computeCycles, lb.computeCycles) << i;
        EXPECT_EQ(la.memCycles, lb.memCycles) << i;
        EXPECT_EQ(la.cycles, lb.cycles) << i;
        EXPECT_EQ(la.dramLoadBits, lb.dramLoadBits) << i;
        EXPECT_EQ(la.dramStoreBits, lb.dramStoreBits) << i;
        EXPECT_EQ(la.sramBits, lb.sramBits) << i;
        EXPECT_EQ(la.rfBits, lb.rfBits) << i;
        EXPECT_DOUBLE_EQ(la.utilization, lb.utilization) << i;
        EXPECT_DOUBLE_EQ(la.energy.computeJ, lb.energy.computeJ) << i;
        EXPECT_DOUBLE_EQ(la.energy.bufferJ, lb.energy.bufferJ) << i;
        EXPECT_DOUBLE_EQ(la.energy.rfJ, lb.energy.rfJ) << i;
        EXPECT_DOUBLE_EQ(la.energy.dramJ, lb.energy.dramJ) << i;
    }
}

/** The two parity benchmarks of the suite, at the paper's batch 16. */
std::vector<zoo::Benchmark>
parityBenchmarks()
{
    return {zoo::alexnet(), zoo::lstm()};
}

/** Every registered variant of the six built-in platform kinds. */
const char *const kVariantTokens[] = {
    "bitfusion",         "bitfusion:16nm",    "bitfusion:stripes-tile",
    "eyeriss",           "stripes",           "gpu:tegra-x2-fp32",
    "gpu:titan-xp-fp32", "gpu:titan-xp-int8", "mxu",
    "mxu:edge",          "dadiannao",         "dadiannao:diannao",
};

/** The network variant @p spec's platform runs. */
const Network &
variantOf(const PlatformSpec &spec, const zoo::Benchmark &bench)
{
    return spec.runsQuantized ? bench.quantized : bench.baseline;
}

/**
 * Registry-built platform of every variant of @p kind against @p
 * direct(spec), the model class constructed by hand from the spec's
 * config: equal runs under both timing models.
 */
template <typename Direct>
void
expectRegistryMatchesModel(const std::string &kind, Direct direct)
{
    const PlatformRegistry &reg = PlatformRegistry::builtin();
    unsigned variants = 0;
    for (const char *token : kVariantTokens) {
        const PlatformSpec spec = reg.parse(token);
        if (spec.kind != kind)
            continue;
        ++variants;
        const auto model = direct(spec);
        const auto platform = reg.build(spec);
        for (const auto &bench : parityBenchmarks()) {
            for (TimingModel timing :
                 {TimingModel::Simple, TimingModel::Overlap}) {
                SCOPED_TRACE(std::string(token) + " " + bench.name +
                             " " + toString(timing));
                RunOptions opts;
                opts.timing = timing;
                const Network &net = variantOf(spec, bench);
                expectSameRun(model.run(net, opts),
                              platform->run(net, opts));
            }
        }
    }
    EXPECT_GT(variants, 0u) << kind;
}

TEST(PlatformParity, BitFusionMatchesSimulator)
{
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    const Simulator direct(cfg);
    const auto platform = PlatformRegistry::builtin().build(
        bitfusionPlatform(cfg));
    for (const auto &bench : parityBenchmarks()) {
        expectSameRun(direct.run(Compiler(cfg).compile(bench.quantized)),
                      platform->run(bench.quantized));
    }
    expectRegistryMatchesModel("bitfusion", [](const PlatformSpec &spec) {
        return Simulator(spec.config.as<AcceleratorConfig>());
    });
}

TEST(PlatformParity, EyerissMatchesModel)
{
    expectRegistryMatchesModel("eyeriss", [](const PlatformSpec &spec) {
        return EyerissModel(spec.config.as<EyerissConfig>());
    });
}

TEST(PlatformParity, StripesMatchesModel)
{
    expectRegistryMatchesModel("stripes", [](const PlatformSpec &spec) {
        return StripesModel(spec.config.as<StripesConfig>());
    });
}

TEST(PlatformParity, GpuMatchesModel)
{
    expectRegistryMatchesModel("gpu", [](const PlatformSpec &spec) {
        return GpuModel(spec.config.as<GpuSpec>());
    });
}

TEST(PlatformParity, MxuMatchesModel)
{
    expectRegistryMatchesModel("mxu", [](const PlatformSpec &spec) {
        return MxuModel(spec.config.as<MxuConfig>());
    });
}

TEST(PlatformParity, DianNaoMatchesModel)
{
    expectRegistryMatchesModel("dadiannao", [](const PlatformSpec &spec) {
        return DianNaoModel(spec.config.as<DianNaoConfig>());
    });
}

TEST(PlatformParity, CompiledArtifactMatchesDirectRun)
{
    const Simulator sim(AcceleratorConfig::eyerissMatched45());
    const Network &net = zoo::alexnet().quantized;
    const PlatformArtifactPtr artifact = sim.compile(net);
    ASSERT_NE(artifact, nullptr);
    RunOptions opts;
    opts.artifact = artifact.get();
    expectSameRun(sim.run(net), sim.run(net, opts));
}

/** Exact (==, not within ULPs) equality of two runs' totals. */
void
expectSameTotals(const RunTotals &a, const RunTotals &b)
{
    EXPECT_EQ(a.energy.computeJ, b.energy.computeJ);
    EXPECT_EQ(a.energy.bufferJ, b.energy.bufferJ);
    EXPECT_EQ(a.energy.rfJ, b.energy.rfJ);
    EXPECT_EQ(a.energy.dramJ, b.energy.dramJ);
    EXPECT_EQ(a.macs, b.macs);
    EXPECT_EQ(a.dramLoadBits, b.dramLoadBits);
    EXPECT_EQ(a.dramStoreBits, b.dramStoreBits);
}

TEST(PlatformRun, PerLayerOffKeepsEveryTotalBitIdentical)
{
    // A run without per-layer records walks the same layers in the
    // same order as one with them: totalCycles and every totals
    // field are bit-identical, and both equal a layer-order re-sum
    // of the kept records. The bare run holds no records, not even
    // reserved capacity; the kept records still carry their labels.
    const PlatformRegistry &reg = PlatformRegistry::builtin();
    const std::vector<zoo::Benchmark> benches = zoo::all();
    for (const char *token : kVariantTokens) {
        const PlatformSpec spec = reg.parse(token);
        const auto platform = reg.build(spec);
        for (const auto &bench : benches) {
            const Network &net = variantOf(spec, bench);
            const PlatformArtifactPtr artifact = platform->compile(net);
            for (TimingModel timing :
                 {TimingModel::Simple, TimingModel::Overlap}) {
                SCOPED_TRACE(std::string(token) + " " + bench.name +
                             " " + toString(timing));
                RunOptions opts;
                opts.timing = timing;
                opts.artifact = artifact.get();
                const RunStats kept = platform->run(net, opts);
                opts.perLayer = false;
                const RunStats bare = platform->run(net, opts);

                EXPECT_TRUE(bare.layers.empty());
                EXPECT_EQ(bare.layers.capacity(), 0u);
                ASSERT_FALSE(kept.layers.empty());
                RunTotals resum;
                for (const LayerStats &l : kept.layers) {
                    EXPECT_FALSE(l.name.empty());
                    EXPECT_FALSE(l.config.empty());
                    resum.energy += l.energy;
                    resum.macs += l.macs;
                    resum.dramLoadBits += l.dramLoadBits;
                    resum.dramStoreBits += l.dramStoreBits;
                }
                EXPECT_EQ(bare.totalCycles, kept.totalCycles);
                expectSameTotals(bare.totals, kept.totals);
                expectSameTotals(kept.totals, resum);
            }
        }
    }
}

TEST(PlatformRegistry, RoundTripDescribe)
{
    const PlatformRegistry &reg = PlatformRegistry::builtin();
    const struct
    {
        PlatformSpec spec;
        const char *kind;
        const char *name;
    } cases[] = {
        {bitfusionPlatform(AcceleratorConfig::eyerissMatched45()),
         "bitfusion", "bitfusion-eyeriss-matched-45nm"},
        {eyerissPlatform(), "eyeriss", "eyeriss-45nm"},
        {stripesPlatform(), "stripes", "stripes-45nm"},
        {gpuPlatform(GpuSpec::titanXpFp32()), "gpu",
         "titan-xp-fp32"},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(c.spec.kind, c.kind);
        const auto platform = reg.build(c.spec);
        const PlatformInfo info = platform->describe();
        EXPECT_EQ(info.kind, c.kind);
        EXPECT_EQ(info.name, c.name);
        EXPECT_EQ(platform->name(), info.name);
        EXPECT_EQ(info.batch, c.spec.batch);
        EXPECT_EQ(info.batch, 16u); // paper default everywhere
        EXPECT_FALSE(info.compute.empty());
    }
}

TEST(PlatformRegistry, BatchOverrideAppliesAtBuild)
{
    const PlatformRegistry &reg = PlatformRegistry::builtin();
    PlatformSpec spec = eyerissPlatform();
    EXPECT_EQ(spec.batch, 16u);
    spec.batch = 4;
    EXPECT_EQ(reg.build(spec)->describe().batch, 4u);

    PlatformSpec gpu = gpuPlatform(GpuSpec::tegraX2Fp32());
    EXPECT_EQ(gpu.batch, kGpuDefaultBatch);
    gpu.batch = 64;
    EXPECT_EQ(reg.build(gpu)->describe().batch, 64u);
}

TEST(PlatformRegistry, ParsesCliTokens)
{
    const PlatformRegistry &reg = PlatformRegistry::builtin();
    EXPECT_EQ(reg.parse("eyeriss").kind, "eyeriss");
    EXPECT_EQ(reg.parse("stripes").kind, "stripes");
    EXPECT_EQ(reg.parse("bitfusion").name,
              "bitfusion-eyeriss-matched-45nm");
    EXPECT_EQ(reg.parse("bitfusion:16nm").name, "bitfusion-4096fu-16nm");
    // Variant names are case- and separator-insensitive.
    EXPECT_EQ(reg.parse("gpu:titanxp-int8").name, "titan-xp-int8");
    EXPECT_EQ(reg.parse("gpu:Titan-Xp-FP32").name, "titan-xp-fp32");
    EXPECT_EQ(reg.parse("gpu:tegra-x2").name, "tegra-x2-fp32");
    // The quantized-variant choice matches the paper methodology.
    EXPECT_TRUE(reg.parse("bitfusion").runsQuantized);
    EXPECT_TRUE(reg.parse("stripes").runsQuantized);
    EXPECT_FALSE(reg.parse("eyeriss").runsQuantized);
    EXPECT_FALSE(reg.parse("gpu:titanxp-int8").runsQuantized);
}

TEST(PlatformRegistryDeath, RejectsUnknownTokens)
{
    // The registry owns every diagnostic; the CLIs exit 2 with it.
    const PlatformRegistry &reg = PlatformRegistry::builtin();
    PlatformSpec spec;
    EXPECT_EQ(reg.parse("tpu", spec),
              "unknown platform 'tpu' (known: bitfusion, eyeriss, "
              "stripes, gpu, mxu, dadiannao)");
    EXPECT_EQ(reg.parse("gpu:v100", spec),
              "unknown gpu variant 'v100'; gpu takes tegra-x2-fp32 | "
              "titan-xp-fp32 | titan-xp-int8");
    EXPECT_EQ(reg.parse("gpu", spec),
              "unknown gpu variant ''; gpu takes tegra-x2-fp32 | "
              "titan-xp-fp32 | titan-xp-int8");
    EXPECT_EQ(reg.parse("eyeriss:v2", spec),
              "unknown eyeriss variant 'v2'; eyeriss takes (no variants)");
    EXPECT_EQ(reg.parse("mxu:v3", spec),
              "unknown mxu variant 'v3'; mxu takes v1 (default) | edge");
    EXPECT_TRUE(spec.name.empty()); // untouched by a rejected token
    EXPECT_EQ(reg.parse("mxu:edge", spec), "");
    EXPECT_EQ(spec.name, "mxu-edge");

    std::vector<PlatformSpec> fleet;
    EXPECT_EQ(reg.parseFleet("eyeriss,,mxu", fleet),
              "fleet list 'eyeriss,,mxu' has an empty element (expected "
              "KIND[:VARIANT],KIND[:VARIANT],...)");
    EXPECT_EQ(reg.parseFleet("", fleet),
              "fleet list must name at least one platform");
    EXPECT_EQ(reg.parseFleet("eyeriss,stripes:x", fleet),
              "unknown stripes variant 'x'; stripes takes (no variants)");
    EXPECT_EQ(reg.parseFleet("eyeriss,mxu:edge", fleet), "");
    ASSERT_EQ(fleet.size(), 2u);
    EXPECT_EQ(fleet[1].name, "mxu-edge");

    // The fatal forms die with the same text.
    EXPECT_DEATH(reg.parse("gpu:v100"), "unknown gpu variant 'v100'");
    EXPECT_DEATH(reg.parseFleet("eyeriss,"), "has an empty element");
}

TEST(PlatformRegistryDeath, RejectsZeroBatch)
{
    // The spec owns the batch; no platform runs a zero batch.
    PlatformSpec spec = eyerissPlatform();
    spec.batch = 0;
    EXPECT_DEATH(PlatformRegistry::builtin().build(spec),
                 "platform spec 'eyeriss' has a zero batch");
}

TEST(TimingModel, ParseAndName)
{
    TimingModel m = TimingModel::Overlap;
    EXPECT_TRUE(parseTimingModel("simple", m));
    EXPECT_EQ(m, TimingModel::Simple);
    EXPECT_TRUE(parseTimingModel("overlap", m));
    EXPECT_EQ(m, TimingModel::Overlap);
    EXPECT_FALSE(parseTimingModel("exact", m));
    EXPECT_STREQ(toString(TimingModel::Simple), "simple");
    EXPECT_STREQ(toString(TimingModel::Overlap), "overlap");
}

TEST(TimingModel, OverlapNeverExceedsSimple)
{
    // The acceptance property of the phase pipeline: overlap can
    // only hide stall cycles, never add them, on every platform.
    const PlatformRegistry &reg = PlatformRegistry::builtin();
    for (const char *token : kVariantTokens) {
        const PlatformSpec spec = reg.parse(token);
        const auto platform = reg.build(spec);
        for (const auto &bench : zoo::all()) {
            const Network &net = variantOf(spec, bench);
            RunOptions simple, overlap;
            overlap.timing = TimingModel::Overlap;
            const RunStats s = platform->run(net, simple);
            const RunStats o = platform->run(net, overlap);
            EXPECT_LE(o.totalCycles, s.totalCycles)
                << spec.name << "/" << bench.name;
        }
    }
}

TEST(TimingModel, OverlapHidesPerLayerPipelineFill)
{
    // Multi-layer Bit Fusion run: simple pays rows+cols fill per MAC
    // schedule, overlap pays the deepest fill once, so the gap is at
    // least (#schedules - 1) * (rows + cols) when compute-bound.
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    const Simulator sim(cfg);
    const CompiledNetwork net =
        Compiler(cfg).compile(zoo::alexnet().quantized);
    const RunStats s = sim.run(net, TimingModel::Simple);
    const RunStats o = sim.run(net, TimingModel::Overlap);
    ASSERT_GT(net.schedules.size(), 1u);
    EXPECT_LT(o.totalCycles, s.totalCycles);
}

TEST(TimingModel, OverlapPreservesTrafficAndEnergy)
{
    // The timing model only re-composes phase times; traffic,
    // utilization, and energy bookkeeping are identical.
    const PlatformRegistry &reg = PlatformRegistry::builtin();
    RunOptions overlap;
    overlap.timing = TimingModel::Overlap;
    for (const char *token : kVariantTokens) {
        const PlatformSpec spec = reg.parse(token);
        const auto platform = reg.build(spec);
        for (const auto &bench : zoo::all()) {
            SCOPED_TRACE(std::string(token) + " " + bench.name);
            const Network &net = variantOf(spec, bench);
            const RunStats s = platform->run(net);
            const RunStats o = platform->run(net, overlap);
            ASSERT_EQ(s.layers.size(), o.layers.size());
            EXPECT_EQ(s.energy().totalJ(), o.energy().totalJ());
            for (std::size_t i = 0; i < s.layers.size(); ++i) {
                const LayerStats &a = s.layers[i];
                const LayerStats &b = o.layers[i];
                EXPECT_EQ(a.name, b.name) << i;
                EXPECT_EQ(a.dramLoadBits, b.dramLoadBits) << i;
                EXPECT_EQ(a.dramStoreBits, b.dramStoreBits) << i;
                EXPECT_EQ(a.sramBits, b.sramBits) << i;
                EXPECT_EQ(a.rfBits, b.rfBits) << i;
                EXPECT_EQ(a.computeCycles, b.computeCycles) << i;
                EXPECT_EQ(a.memCycles, b.memCycles) << i;
                EXPECT_EQ(a.utilization, b.utilization) << i;
            }
        }
    }
}

TEST(LayerWalk, SimpleMatchesSeedFormula)
{
    // The DRAM-to-phase rule of the cycle-domain models: memCycles is
    // one combined divCeil of load + store bits at the bandwidth, and
    // a layer's Simple latency is max(compute, mem) + fill.
    LayerStats compute_bound;
    compute_bound.computeCycles = 1000;
    compute_bound.dramLoadBits = 6400;
    compute_bound.dramStoreBits = 1600;
    LayerStats mem_bound;
    mem_bound.computeCycles = 10;
    mem_bound.dramLoadBits = 6401;
    mem_bound.dramStoreBits = 1;

    LayerWalk walk(TimingModel::Simple);
    walk.add(compute_bound, 128, 24);
    walk.add(mem_bound, 128, 0);
    RunStats rs;
    EXPECT_DOUBLE_EQ(walk.finish(rs), 1024.0 + 51.0);
    ASSERT_EQ(rs.layers.size(), 2u);
    EXPECT_EQ(rs.layers[0].memCycles, 63u); // divCeil(6400 + 1600, 128)
    EXPECT_EQ(rs.layers[0].cycles, 1024u);  // max(1000, 63) + 24
    // Combined rounding: divCeil(6401 + 1, 128) = 51, where separate
    // load and store roundings would give 51 + 1 = 52.
    EXPECT_EQ(rs.layers[1].memCycles, 51u);
    EXPECT_EQ(rs.layers[1].cycles, 51u);
    EXPECT_EQ(rs.totalCycles, 1075u);
}

TEST(LayerWalk, SecondsWalkKeepsTheSeedFloatOrder)
{
    // A walk in seconds (the GPU) reports per-layer cycles as
    // seconds x 1e9 but the run total as seconds x MHz x 1e6, the
    // seed GPU model's order. The two differ where rounding does:
    // 2.5e-8 x 1e9 truncates to 25, (2.5e-8 x 1000) x 1e6 to 24.
    LayerWalk walk(TimingModel::Simple, 1e9);
    walk.add(LayerStats{}, LayerPhases{0.0, 2.5e-8, 0.0});
    RunStats rs;
    rs.freqMHz = 1000.0;
    EXPECT_DOUBLE_EQ(walk.finish(rs), 2.5e-8);
    EXPECT_EQ(rs.layers[0].cycles, 25u);
    EXPECT_EQ(rs.totalCycles, 24u);
}

TEST(LayerWalk, OverlapBoundByBusierChannelPlusOneFill)
{
    // Two layers, one compute-bound and one memory-bound; overlap
    // collapses to max(sum compute + one fill, sum mem).
    LayerPhases a; // compute-bound
    a.computeUnits = 1000.0;
    a.memUnits = 100.0;
    a.fillUnits = 24.0;
    LayerPhases b; // memory-bound
    b.computeUnits = 50.0;
    b.memUnits = 700.0;
    b.fillUnits = 24.0;

    LayerWalk simple(TimingModel::Simple);
    simple.add(LayerStats{}, a);
    simple.add(LayerStats{}, b);
    RunStats rs_simple;
    EXPECT_DOUBLE_EQ(simple.finish(rs_simple), 1024.0 + 724.0);
    EXPECT_EQ(rs_simple.totalCycles, 1748u);
    EXPECT_EQ(rs_simple.layers[0].cycles, 1024u);
    EXPECT_EQ(rs_simple.layers[1].cycles, 724u);

    LayerWalk overlap(TimingModel::Overlap);
    overlap.add(LayerStats{}, a);
    overlap.add(LayerStats{}, b);
    RunStats rs_overlap;
    // max(1000 + 50 + 24, 100 + 700) = 1074: layer b's memory phase
    // is prefetched behind layer a's compute, and only one array
    // fill is exposed.
    EXPECT_DOUBLE_EQ(overlap.finish(rs_overlap), 1074.0);
    EXPECT_EQ(rs_overlap.totalCycles, 1074u);
    // Exposed-cycle attribution follows the bottleneck channel.
    EXPECT_EQ(rs_overlap.layers[0].cycles, 1024u);
    EXPECT_EQ(rs_overlap.layers[1].cycles, 50u);
}

TEST(Simulator, AuxLayersReportRealUtilization)
{
    // Satellite fix: standalone pooling/activation schedules used to
    // hard-code utilization 0.
    AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    cfg.layerFusion = false; // keep aux layers as separate schedules
    const Simulator sim(cfg);
    const CompiledNetwork net =
        Compiler(cfg).compile(zoo::alexnet().quantized);
    const RunStats rs = sim.run(net);
    ASSERT_EQ(rs.layers.size(), net.schedules.size());
    unsigned auxSeen = 0;
    for (std::size_t i = 0; i < rs.layers.size(); ++i) {
        if (net.schedules[i].usesMacArray)
            continue;
        ++auxSeen;
        const LayerStats &st = rs.layers[i];
        EXPECT_GT(st.utilization, 0.0) << st.name;
        EXPECT_LE(st.utilization, 1.0 + 1e-9) << st.name;
    }
    EXPECT_GT(auxSeen, 0u);
}

} // namespace
} // namespace bitfusion
