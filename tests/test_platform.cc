/**
 * @file
 * Platform-interface tests: parity between registry-built platforms
 * and the concrete model classes (field-for-field RunStats equality
 * on AlexNet/LSTM at batch 16), PlatformSpec/registry round-trips,
 * CLI parsing, compiled-artifact reuse, and the LayerWalk timing
 * models (overlap never exceeds simple).
 */

#include <gtest/gtest.h>

#include "src/baselines/eyeriss.h"
#include "src/baselines/gpu.h"
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
}

TEST(PlatformParity, EyerissMatchesModel)
{
    const EyerissModel direct;
    const auto platform =
        PlatformRegistry::builtin().build(eyerissPlatform());
    for (const auto &bench : parityBenchmarks()) {
        expectSameRun(direct.run(bench.baseline),
                      platform->run(bench.baseline));
    }
}

TEST(PlatformParity, StripesMatchesModel)
{
    const StripesModel direct;
    const auto platform =
        PlatformRegistry::builtin().build(stripesPlatform());
    for (const auto &bench : parityBenchmarks()) {
        expectSameRun(direct.run(bench.quantized),
                      platform->run(bench.quantized));
    }
}

TEST(PlatformParity, GpuMatchesModel)
{
    const GpuModel direct(GpuSpec::titanXpInt8());
    const auto platform = PlatformRegistry::builtin().build(
        gpuPlatform(GpuSpec::titanXpInt8()));
    for (const auto &bench : parityBenchmarks()) {
        expectSameRun(direct.run(bench.baseline),
                      platform->run(bench.baseline));
    }
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
    const PlatformRegistry &reg = PlatformRegistry::builtin();
    EXPECT_DEATH(reg.parse("tpu"), "unknown platform");
    EXPECT_DEATH(reg.parse("gpu:v100"), "unknown gpu variant");
    EXPECT_DEATH(reg.parse("eyeriss:v2"), "takes no variant");
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
    const PlatformSpec specs[] = {
        bitfusionPlatform(AcceleratorConfig::eyerissMatched45()),
        eyerissPlatform(),
        stripesPlatform(),
        gpuPlatform(GpuSpec::titanXpFp32()),
    };
    for (const auto &spec : specs) {
        const auto platform = reg.build(spec);
        for (const auto &bench : zoo::all()) {
            const Network &net =
                spec.runsQuantized ? bench.quantized : bench.baseline;
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
    const EyerissModel m;
    RunOptions overlap;
    overlap.timing = TimingModel::Overlap;
    const RunStats s = m.run(zoo::lstm().baseline);
    const RunStats o = m.run(zoo::lstm().baseline, overlap);
    ASSERT_EQ(s.layers.size(), o.layers.size());
    EXPECT_DOUBLE_EQ(s.energy().totalJ(), o.energy().totalJ());
    for (std::size_t i = 0; i < s.layers.size(); ++i) {
        EXPECT_EQ(s.layers[i].dramLoadBits, o.layers[i].dramLoadBits);
        EXPECT_EQ(s.layers[i].dramStoreBits, o.layers[i].dramStoreBits);
        EXPECT_EQ(s.layers[i].sramBits, o.layers[i].sramBits);
        EXPECT_EQ(s.layers[i].computeCycles, o.layers[i].computeCycles);
        EXPECT_EQ(s.layers[i].memCycles, o.layers[i].memCycles);
    }
}

TEST(LayerWalk, SimpleMatchesSeedFormula)
{
    const LayerPhases p =
        LayerPhases::fromBits(1000, 6400, 1600, 128, 24);
    EXPECT_DOUBLE_EQ(p.computeUnits, 1000.0);
    EXPECT_DOUBLE_EQ(p.memUnits, 63.0); // divCeil(6400 + 1600, 128)
    // max(compute, mem) + fill.
    EXPECT_DOUBLE_EQ(LayerWalk::simpleUnits(p), 1024.0);
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
    unsigned auxSeen = 0;
    for (const auto &sched : net.schedules) {
        if (sched.usesMacArray)
            continue;
        ++auxSeen;
        const LayerStats st = sim.runSchedule(sched);
        EXPECT_GT(st.utilization, 0.0) << st.name;
        EXPECT_LE(st.utilization, 1.0 + 1e-9) << st.name;
    }
    EXPECT_GT(auxSeen, 0u);
}

} // namespace
} // namespace bitfusion
