/**
 * @file
 * Simulator tests: systolic mapping properties, cycle-count
 * invariants, bandwidth/batch monotonicity, tile scaling, and the
 * configuration presets.
 */

#include <gtest/gtest.h>

#include "src/common/table.h"
#include "src/dnn/model_zoo.h"
#include "src/sim/simulator.h"
#include "src/sim/systolic.h"

namespace bitfusion {
namespace {

TEST(Config, PresetsValidate)
{
    AcceleratorConfig::eyerissMatched45().validate();
    AcceleratorConfig::stripesTileMatched45().validate();
    AcceleratorConfig::gpuScale16().validate();
}

TEST(Config, EyerissMatchedMatchesPaper)
{
    const auto cfg = AcceleratorConfig::eyerissMatched45();
    EXPECT_EQ(cfg.fusionUnits(), 512u);
    EXPECT_EQ(cfg.onChipBits(), 112ULL * 1024 * 8);
    EXPECT_EQ(cfg.bwBitsPerCycle, 128u);
    EXPECT_DOUBLE_EQ(cfg.freqMHz, 500.0);
    EXPECT_EQ(cfg.batch, 16u);
}

TEST(Config, GpuScaleMatchesPaper)
{
    const auto cfg = AcceleratorConfig::gpuScale16();
    EXPECT_EQ(cfg.fusionUnits(), 4096u);
    EXPECT_EQ(cfg.onChipBits(), 896ULL * 1024 * 8);
    EXPECT_EQ(cfg.tech, TechNode::Nm16);
}

TEST(Config, CompileKeyText)
{
    const std::string paper = "262144/131072/524288|b16|lf,lo";
    EXPECT_EQ(AcceleratorConfig::eyerissMatched45().compileKey(), paper);
    EXPECT_EQ(AcceleratorConfig::gpuScale16().compileKey(), paper);
    EXPECT_EQ(AcceleratorConfig::stripesTileMatched45().compileKey(),
              paper);

    AcceleratorConfig off = AcceleratorConfig::eyerissMatched45();
    off.layerFusion = false;
    off.loopOrdering = false;
    EXPECT_EQ(off.compileKey(), "262144/131072/524288|b16|-,-");
}

TEST(Config, CompileKeyCoversEveryCompilerField)
{
    const AcceleratorConfig base = AcceleratorConfig::eyerissMatched45();
    const std::vector<void (*)(AcceleratorConfig &)> edits = {
        [](AcceleratorConfig &c) { c.ibufBits *= 2; },
        [](AcceleratorConfig &c) { c.obufBits *= 2; },
        [](AcceleratorConfig &c) { c.wbufBits *= 2; },
        [](AcceleratorConfig &c) { c.batch = 1; },
        [](AcceleratorConfig &c) { c.layerFusion = false; },
        [](AcceleratorConfig &c) { c.loopOrdering = false; },
    };
    for (std::size_t i = 0; i < edits.size(); ++i) {
        AcceleratorConfig changed = base;
        edits[i](changed);
        EXPECT_NE(changed.compileKey(), base.compileKey()) << "field " << i;
    }
}

TEST(Simulator, CompileKeyIsTheConfigs)
{
    AcceleratorConfig cfg = AcceleratorConfig::gpuScale16();
    cfg.batch = 3;
    cfg.loopOrdering = false;
    EXPECT_EQ(Simulator(cfg).compileKey(), cfg.compileKey());
    EXPECT_EQ(Simulator(cfg).compileKey(),
              "262144/131072/524288|b3|lf,-");
}

TEST(ConfigDeath, RejectsBadConfigs)
{
    AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    cfg.rows = 0;
    EXPECT_DEATH(cfg.validate(), "rows");
    cfg = AcceleratorConfig::eyerissMatched45();
    cfg.bwBitsPerCycle = 0;
    EXPECT_DEATH(cfg.validate(), "bandwidth");
    cfg = AcceleratorConfig::eyerissMatched45();
    cfg.bricksPerUnit = 12;
    EXPECT_DEATH(cfg.validate(), "power of two");
}

TEST(Systolic, PeakMacsMatchFusedPEs)
{
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    const SystolicArray arr(cfg);
    // 512 units x 16 PEs at binary.
    EXPECT_EQ(arr.peakMacsPerCycle(zoo::cfg1x1()), 512ULL * 16);
    EXPECT_EQ(arr.peakMacsPerCycle(zoo::cfg2x2()), 512ULL * 16);
    EXPECT_EQ(arr.peakMacsPerCycle(zoo::cfg4x4()), 512ULL * 4);
    EXPECT_EQ(arr.peakMacsPerCycle(zoo::cfg8x8()), 512u);
    // 16-bit: one PE per unit over four temporal passes.
    EXPECT_EQ(arr.peakMacsPerCycle(zoo::cfg16x16()), 512u / 4);
}

TEST(Systolic, UtilizationNeverExceedsOne)
{
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    const SystolicArray arr(cfg);
    const std::uint64_t ms[] = {1, 8, 64, 100, 1024, 8192};
    const std::uint64_t ks[] = {1, 8, 100, 5000};
    const std::uint64_t ns[] = {1, 16, 10000};
    for (auto m : ms)
        for (auto k : ks)
            for (auto n : ns) {
                const auto t = arr.map(m, k, n, n, zoo::cfg4x4());
                EXPECT_LE(t.utilization, 1.0 + 1e-9)
                    << m << " " << k << " " << n;
                EXPECT_GT(t.utilization, 0.0);
                EXPECT_GE(t.cycles, 1u);
            }
}

TEST(Systolic, FullDimsReachNearPeak)
{
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    const SystolicArray arr(cfg);
    // m = cols*PEs, k = rows multiples, long n stream.
    const auto t = arr.map(64 * 4, 8 * 100, 100000, 100000,
                           zoo::cfg4x4());
    EXPECT_GT(t.utilization, 0.99);
}

TEST(Systolic, CyclesScaleWithTemporalPasses)
{
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    const SystolicArray arr(cfg);
    const auto t8 = arr.map(512, 800, 1000, 1000, zoo::cfg8x8());
    const auto t16 = arr.map(512, 800, 1000, 1000, zoo::cfg16x16());
    // Same spatial mapping, 4x temporal cost.
    EXPECT_NEAR(static_cast<double>(t16.cycles) / t8.cycles, 4.0, 0.2);
}

TEST(Systolic, LowerBitwidthNeverSlower)
{
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    const SystolicArray arr(cfg);
    const FusionConfig order[] = {zoo::cfg16x16(), zoo::cfg8x8(),
                                  zoo::cfg4x4(), zoo::cfg2x2()};
    std::uint64_t prev = ~0ULL;
    for (const auto &c : order) {
        const auto t = arr.map(4096, 4096, 256, 256, c);
        EXPECT_LE(t.cycles, prev) << c.toString();
        prev = t.cycles;
    }
}

TEST(Simulator, MacConservationAcrossZoo)
{
    const Simulator sim(AcceleratorConfig::eyerissMatched45());
    for (const auto &b : zoo::all()) {
        const RunStats rs = sim.run(b.quantized);
        std::uint64_t expect = 0;
        for (const auto &l : b.quantized.layers())
            expect += l.macsPerSample();
        EXPECT_EQ(rs.totalMacs(), expect * rs.batch) << b.name;
    }
}

TEST(Simulator, CyclesBoundedByPeak)
{
    const Simulator sim(AcceleratorConfig::eyerissMatched45());
    const SystolicArray arr(sim.config());
    for (const auto &b : zoo::all()) {
        const RunStats rs = sim.run(b.quantized);
        // No layer may beat the binary peak rate.
        for (const auto &l : rs.layers) {
            if (l.macs == 0)
                continue;
            const double rate = static_cast<double>(l.macs) / l.cycles;
            EXPECT_LE(rate, static_cast<double>(
                                arr.peakMacsPerCycle(zoo::cfg1x1())) +
                                1e-9)
                << b.name << "/" << l.name;
        }
    }
}

TEST(Simulator, MoreBandwidthNeverSlower)
{
    for (const auto &b : zoo::all()) {
        double prev = 1e300;
        for (std::uint64_t bw : {32, 64, 128, 256, 512}) {
            AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
            cfg.bwBitsPerCycle = bw;
            const Simulator sim(cfg);
            const double sec = sim.run(b.quantized).secondsPerSample();
            EXPECT_LE(sec, prev * 1.0001) << b.name << " bw=" << bw;
            prev = sec;
        }
    }
}

TEST(Simulator, BiggerBatchNeverSlowerPerSample)
{
    for (const auto &b : zoo::all()) {
        double prev = 1e300;
        for (unsigned batch : {1, 4, 16, 64}) {
            AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
            cfg.batch = batch;
            const Simulator sim(cfg);
            const double sec = sim.run(b.quantized).secondsPerSample();
            EXPECT_LE(sec, prev * 1.05) << b.name << " batch=" << batch;
            prev = sec;
        }
    }
}

TEST(Simulator, RecurrentNetsAreBandwidthBound)
{
    // Fig. 15's defining feature: RNN/LSTM scale linearly with
    // bandwidth.
    for (const auto &b : {zoo::rnn(), zoo::lstm()}) {
        AcceleratorConfig lo = AcceleratorConfig::eyerissMatched45();
        lo.bwBitsPerCycle = 128;
        AcceleratorConfig hi = lo;
        hi.bwBitsPerCycle = 512;
        const double s_lo =
            Simulator(lo).run(b.quantized).secondsPerSample();
        const double s_hi =
            Simulator(hi).run(b.quantized).secondsPerSample();
        EXPECT_GT(s_lo / s_hi, 3.0) << b.name;
    }
}

TEST(Simulator, ConvNetsSaturateWithBandwidth)
{
    AcceleratorConfig lo = AcceleratorConfig::eyerissMatched45();
    AcceleratorConfig hi = lo;
    hi.bwBitsPerCycle = 512;
    const auto b = zoo::cifar10();
    const double s_lo =
        Simulator(lo).run(b.quantized).secondsPerSample();
    const double s_hi =
        Simulator(hi).run(b.quantized).secondsPerSample();
    EXPECT_LT(s_lo / s_hi, 2.0);
}

TEST(Simulator, TilesScaleComputeBoundLayers)
{
    AcceleratorConfig one = AcceleratorConfig::eyerissMatched45();
    AcceleratorConfig four = one;
    four.tiles = 4;
    four.batch = 16;
    const auto b = zoo::vgg7();
    const double s1 =
        Simulator(one).run(b.quantized).secondsPerSample();
    const double s4 =
        Simulator(four).run(b.quantized).secondsPerSample();
    EXPECT_GT(s1 / s4, 2.0);
    EXPECT_LE(s1 / s4, 4.2);
}

TEST(Simulator, EnergyComponentsPositiveAndConsistent)
{
    const Simulator sim(AcceleratorConfig::eyerissMatched45());
    for (const auto &b : zoo::all()) {
        const RunStats rs = sim.run(b.quantized);
        const ComponentEnergy e = rs.energy();
        EXPECT_GT(e.computeJ, 0.0) << b.name;
        EXPECT_GT(e.bufferJ, 0.0) << b.name;
        EXPECT_GT(e.dramJ, 0.0) << b.name;
        EXPECT_DOUBLE_EQ(e.rfJ, 0.0) << b.name; // no RF in Bit Fusion
        EXPECT_NEAR(e.totalJ(),
                    e.computeJ + e.bufferJ + e.dramJ, 1e-15);
    }
}

TEST(Simulator, SixteenNmUsesLessOnChipEnergy)
{
    AcceleratorConfig n45 = AcceleratorConfig::eyerissMatched45();
    AcceleratorConfig n16 = n45;
    n16.tech = TechNode::Nm16;
    const auto b = zoo::lenet5();
    const ComponentEnergy e45 =
        Simulator(n45).run(b.quantized).energy();
    const ComponentEnergy e16 =
        Simulator(n16).run(b.quantized).energy();
    EXPECT_LT(e16.computeJ, e45.computeJ);
    EXPECT_LT(e16.bufferJ, e45.bufferJ);
    // DRAM interface energy does not scale with the logic node.
    EXPECT_DOUBLE_EQ(e16.dramJ, e45.dramJ);
}

TEST(Simulator, LayerFusionReducesTrafficAndTime)
{
    AcceleratorConfig fused = AcceleratorConfig::eyerissMatched45();
    AcceleratorConfig unfused = fused;
    unfused.layerFusion = false;
    const auto b = zoo::cifar10();
    const RunStats rf = Simulator(fused).run(b.quantized);
    const RunStats ru = Simulator(unfused).run(b.quantized);
    auto dram = [](const RunStats &rs) {
        std::uint64_t bits = 0;
        for (const auto &l : rs.layers)
            bits += l.dramLoadBits + l.dramStoreBits;
        return bits;
    };
    EXPECT_LT(dram(rf), dram(ru));
    EXPECT_LE(rf.seconds(), ru.seconds());
}

TEST(Simulator, PowerBudgetOfSixteenNmConfig)
{
    // §V-A: the scaled configuration consumes ~895 mW. Average power
    // = energy / time must land in the sub-watt regime.
    const Simulator sim(AcceleratorConfig::gpuScale16());
    std::vector<double> watts;
    for (const auto &b : zoo::all()) {
        const RunStats rs = sim.run(b.quantized);
        watts.push_back(rs.energy().totalJ() / rs.seconds());
    }
    const double avg = geomean(watts);
    EXPECT_GT(avg, 0.05);
    EXPECT_LT(avg, 5.0);
}

} // namespace
} // namespace bitfusion
