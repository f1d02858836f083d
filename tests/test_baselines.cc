/**
 * @file
 * Baseline platform model tests: Eyeriss row-stationary utilization
 * and traffic, Stripes bit-serial scaling, the GPU rooflines, and
 * each platform's own SRAM energy constant.
 */

#include <gtest/gtest.h>

#include "src/baselines/diannao.h"
#include "src/baselines/eyeriss.h"
#include "src/baselines/gpu.h"
#include "src/baselines/mxu.h"
#include "src/baselines/stripes.h"
#include "src/dnn/model_zoo.h"
#include "src/energy/energy_model.h"
#include "src/sim/simulator.h"

namespace bitfusion {
namespace {

TEST(Eyeriss, ConvUtilizationReasonable)
{
    const EyerissModel m;
    // 3x3 conv with tall output: 4 sets of 3 rows fill the 12-row
    // array fully.
    const Layer c3 =
        Layer::conv("c", 64, 56, 56, 64, 3, 1, 1, zoo::cfg16x16());
    EXPECT_GT(m.utilization(c3), 0.9);
    // 11x11 kernel only fits one set (11 of 12 rows).
    const Layer c11 =
        Layer::conv("c", 3, 227, 227, 96, 11, 4, 0, zoo::cfg16x16());
    EXPECT_NEAR(m.utilization(c11), (11.0 / 12.0) * (55.0 / 56.0),
                0.02);
    // Tiny 6-row output strands half the columns.
    const Layer small =
        Layer::conv("c", 256, 8, 8, 256, 3, 1, 1, zoo::cfg16x16());
    EXPECT_LT(m.utilization(small), 0.8);
}

TEST(Eyeriss, FcUtilizationTracksBatch)
{
    EyerissConfig cfg;
    cfg.batch = 16;
    const EyerissModel m16(cfg);
    cfg.batch = 4;
    const EyerissModel m4(cfg);
    const Layer fc = Layer::fc("f", 4096, 1000, zoo::cfg16x16());
    EXPECT_GT(m16.utilization(fc), m4.utilization(fc));
    EXPECT_LE(m16.utilization(fc), 1.0);
}

TEST(Eyeriss, SixteenBitTrafficAndRf)
{
    const EyerissModel m;
    const RunStats rs = m.run(zoo::lenet5().baseline);
    EXPECT_GT(rs.totalCycles, 0u);
    for (const auto &l : rs.layers) {
        // 4 RF accesses x 16 bits per MAC.
        EXPECT_EQ(l.rfBits, l.macs * 64) << l.name;
        EXPECT_GT(l.energy.rfJ, 0.0) << l.name;
    }
}

TEST(Eyeriss, RfDominatesComputeEnergy)
{
    // The Fig. 14 signature: Eyeriss spends more in its register
    // files than in its multipliers.
    const EyerissModel m;
    const ComponentEnergy e = m.run(zoo::cifar10().baseline).energy();
    EXPECT_GT(e.rfJ, e.computeJ);
}

TEST(Eyeriss, ComputeRateBoundedByPEs)
{
    const EyerissModel m;
    for (const auto &b : zoo::all()) {
        const RunStats rs = m.run(b.baseline);
        const double rate =
            static_cast<double>(rs.totalMacs()) / rs.totalCycles;
        EXPECT_LE(rate, 168.0 + 1e-9) << b.name;
    }
}

TEST(Stripes, PeakScalesInverselyWithWeightBits)
{
    const StripesModel m;
    EXPECT_DOUBLE_EQ(m.peakMacsPerCycle(1), 4096.0);
    EXPECT_DOUBLE_EQ(m.peakMacsPerCycle(2), 2048.0);
    EXPECT_DOUBLE_EQ(m.peakMacsPerCycle(8), 512.0);
    EXPECT_DOUBLE_EQ(m.peakMacsPerCycle(16), 256.0);
}

TEST(Stripes, TileGeometry)
{
    const StripesConfig cfg;
    EXPECT_EQ(cfg.mParallel() * cfg.kParallel() * cfg.nParallel(),
              cfg.sips);
}

TEST(Stripes, RuntimeScalesWithWeightBits)
{
    // Same topology at 1-bit vs 8-bit weights: compute time ~8x.
    auto with_bits = [](unsigned wb) {
        FusionConfig c{8, 8, false, wb > 1};
        c.wBits = wb;
        Network net("t", {});
        net.add(Layer::conv("c", 64, 32, 32, 256, 3, 1, 1, c));
        StripesConfig scfg;
        scfg.bwBitsPerCycle = 1 << 20; // remove the memory bound
        return StripesModel(scfg).run(net).totalCycles;
    };
    const double ratio = static_cast<double>(with_bits(8)) /
                         static_cast<double>(with_bits(1));
    EXPECT_NEAR(ratio, 8.0, 0.5);
}

TEST(Stripes, InputBitwidthGivesNoBenefit)
{
    // The defining Stripes limitation: activations always 16-bit.
    auto with_abits = [](unsigned ab) {
        FusionConfig c{ab, 2, false, true};
        Network net("t", {});
        net.add(Layer::conv("c", 64, 32, 32, 128, 3, 1, 1, c));
        return StripesModel().run(net).totalCycles;
    };
    EXPECT_EQ(with_abits(2), with_abits(8));
}

TEST(Stripes, UtilizationBounded)
{
    const StripesModel m;
    for (const auto &b : zoo::all()) {
        const RunStats rs = m.run(b.quantized);
        for (const auto &l : rs.layers)
            EXPECT_LE(l.utilization, 1.0 + 1e-9)
                << b.name << "/" << l.name;
    }
}

TEST(Gpu, SpecsMatchTableIII)
{
    const GpuSpec tx2 = GpuSpec::tegraX2Fp32();
    const GpuSpec txp = GpuSpec::titanXpFp32();
    // 3584 cores @ 1531 MHz vs 256 @ 875 MHz: ~24.5x peak.
    EXPECT_NEAR(txp.peakMacsPerSec / tx2.peakMacsPerSec, 24.5, 0.5);
    const GpuSpec int8 = GpuSpec::titanXpInt8();
    EXPECT_DOUBLE_EQ(int8.peakMacsPerSec, 4.0 * txp.peakMacsPerSec);
    EXPECT_EQ(int8.bytesPerElem, 1.0);
}

TEST(Gpu, TitanBeatsTegraEverywhere)
{
    const GpuModel tx2(GpuSpec::tegraX2Fp32());
    const GpuModel txp(GpuSpec::titanXpFp32());
    for (const auto &b : zoo::all()) {
        const double s_tx2 = tx2.run(b.baseline).secondsPerSample();
        const double s_txp = txp.run(b.baseline).secondsPerSample();
        EXPECT_GT(s_tx2 / s_txp, 1.0) << b.name;
    }
}

TEST(Gpu, SmallModelsUnderutilizeBigGpu)
{
    // The Fig. 17 shape: LeNet/RNN gain far less from the Titan than
    // the large CNNs do.
    const GpuModel tx2(GpuSpec::tegraX2Fp32());
    const GpuModel txp(GpuSpec::titanXpFp32());
    auto speedup = [&](const zoo::Benchmark &b) {
        return tx2.run(b.baseline).secondsPerSample() /
               txp.run(b.baseline).secondsPerSample();
    };
    EXPECT_GT(speedup(zoo::resnet18()), speedup(zoo::lenet5()));
    EXPECT_GT(speedup(zoo::alexnet()), speedup(zoo::rnn()));
}

TEST(Gpu, Int8FasterThanFp32OnComputeBoundNets)
{
    const GpuModel fp32(GpuSpec::titanXpFp32());
    const GpuModel int8(GpuSpec::titanXpInt8());
    for (const auto &b : {zoo::alexnet(), zoo::resnet18(), zoo::vgg7()}) {
        EXPECT_LT(int8.run(b.baseline).secondsPerSample(),
                  fp32.run(b.baseline).secondsPerSample())
            << b.name;
    }
}

TEST(Gpu, MemoryBoundLayersLimitedByBandwidth)
{
    // A weight-heavy FC at batch 1 is bandwidth-bound: time >=
    // bytes / bandwidth.
    Network net("fc", {});
    net.add(Layer::fc("f", 8192, 8192, zoo::cfg16x16()));
    const GpuSpec spec = GpuSpec::titanXpFp32();
    const GpuModel m(spec, 1);
    const double sec = m.run(net).seconds();
    const double bytes = 8192.0 * 8192.0 * 4.0;
    EXPECT_GE(sec, bytes / spec.memBytesPerSec * 0.99);
}

/**
 * Every layer of @p rs, a run of @p platform, charges its buffer
 * traffic at the power law of @p capacityBits, times the on-chip
 * @p scale, exactly.
 */
void
expectBufferEnergyAt(const char *platform, const RunStats &rs,
                     std::uint64_t capacityBits, double scale = 1.0)
{
    const double pj = EnergyModel::sramEnergyPerBitPj(capacityBits);
    ASSERT_FALSE(rs.layers.empty()) << platform;
    for (const LayerStats &l : rs.layers) {
        EXPECT_GT(l.sramBits, 0u) << platform << " " << l.name;
        EXPECT_EQ(l.energy.bufferJ,
                  static_cast<double>(l.sramBits) * pj * scale * 1e-12)
            << platform << " " << l.name;
    }
}

TEST(Energy, EachPlatformUsesItsOwnSramConstant)
{
    // Capacities differ from every default, so a constant taken from
    // a default or another config cannot match.
    const zoo::Benchmark b = zoo::lenet5();

    AcceleratorConfig bf = AcceleratorConfig::eyerissMatched45();
    bf.ibufBits = 64ULL * 1024 * 8;
    bf.obufBits = 8ULL * 1024 * 8;
    bf.wbufBits = 96ULL * 1024 * 8;
    bf.tiles = 2;
    bf.tech = TechNode::Nm16;
    expectBufferEnergyAt("bitfusion", Simulator(bf).run(b.quantized),
                         (64ULL + 8 + 96) * 1024 * 8 * 2,
                         HwModel::energyScale(TechNode::Nm16));

    EyerissConfig eyeriss;
    eyeriss.sramBits = 96ULL * 1024 * 8;
    expectBufferEnergyAt("eyeriss", EyerissModel(eyeriss).run(b.baseline),
                         eyeriss.sramBits);

    StripesConfig stripes;
    stripes.sramBits = 48ULL * 1024 * 8;
    expectBufferEnergyAt("stripes", StripesModel(stripes).run(b.quantized),
                         stripes.sramBits);

    MxuConfig mxu;
    mxu.sramBits = 6ULL * 1024 * 1024 * 8;
    expectBufferEnergyAt("mxu", MxuModel(mxu).run(b.quantized),
                         mxu.sramBits);

    DianNaoConfig diannao;
    diannao.sramBits = 3ULL * 1024 * 1024 * 8;
    expectBufferEnergyAt("dadiannao", DianNaoModel(diannao).run(b.baseline),
                         diannao.sramBits);
}

} // namespace
} // namespace bitfusion
