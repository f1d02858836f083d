/**
 * @file
 * Compiler tests: tile feasibility and traffic properties, loop
 * ordering decisions, layer fusion, and whole-network compilation
 * invariants across the model zoo.
 */

#include <gtest/gtest.h>

#include "src/compiler/codegen.h"
#include "src/compiler/tiling.h"
#include "src/dnn/model_zoo.h"

namespace bitfusion {
namespace {

AcceleratorConfig
smallConfig()
{
    AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    return cfg;
}

TEST(Tiler, TilesRespectBufferBudgets)
{
    const AcceleratorConfig cfg = smallConfig();
    const Tiler tiler(cfg);
    const struct
    {
        std::uint64_t m, k, n;
        FusionConfig bits;
    } cases[] = {
        {8192, 18432, 16, zoo::cfg4x1()},   // AlexNet 2x fc6
        {512, 2400, 11664, zoo::cfg4x1()},  // AlexNet 2x conv2
        {128, 1152, 16384, zoo::cfg1x1()},  // Cifar conv2
        {2915, 5830, 16, zoo::cfg4x4()},    // RNN
        {10, 10, 1, zoo::cfg8x8()},         // tiny
        {1, 1, 1, zoo::cfg16x16()},         // degenerate
    };
    for (const auto &c : cases) {
        const Tiling t = tiler.chooseTiles(c.m, c.k, c.n, c.bits, 8);
        EXPECT_GE(t.mt, 1u);
        EXPECT_GE(t.kt, 1u);
        EXPECT_GE(t.nt, 1u);
        EXPECT_LE(t.mt, c.m);
        EXPECT_LE(t.kt, c.k);
        EXPECT_LE(t.nt, c.n);
        // Weight tile fits half the weight buffer (or is minimal).
        if (t.mt * t.kt > 1) {
            EXPECT_LE(t.mt * t.kt * c.bits.wBits, cfg.wbufBits / 2)
                << c.m << "x" << c.k;
        }
        // Input and output tiles fit their halves.
        EXPECT_LE(t.kt * t.nt * c.bits.aBits, cfg.ibufBits / 2 +
                      t.kt * c.bits.aBits);
        EXPECT_LE(t.mt * t.nt * 32, cfg.obufBits / 2 + t.mt * 32);
    }
}

TEST(Tiler, SmallLayersStayResident)
{
    const Tiler tiler(smallConfig());
    // Weights fit entirely -> whole-matrix tile, whole-stream nt.
    const Tiling t = tiler.chooseTiles(32, 64, 100, zoo::cfg8x8(), 8);
    EXPECT_EQ(t.mt, 32u);
    EXPECT_EQ(t.kt, 64u);
    EXPECT_LE(t.nt, 100u); // OBUF residency may tile the stream
    // One weight fetch, one input fetch: resident weights are never
    // refetched even when the stream is tiled.
    EXPECT_EQ(Tiler::trafficBits(LoopOrder::InputStationary, t, 32, 64,
                                 100, 1000, 2000, 500),
              3500u);
}

TEST(Tiler, TrafficFormulas)
{
    const Tiling t{16, 32, 8};
    // n_total 32 -> 4 n-tiles; m 64 -> 4 m-tiles.
    EXPECT_EQ(Tiler::trafficBits(LoopOrder::InputStationary, t, 64, 320,
                                 32, 100, 10, 1),
              10 + 100 * 4 + 1u);
    EXPECT_EQ(Tiler::trafficBits(LoopOrder::WeightStationary, t, 64, 320,
                                 32, 100, 10, 1),
              100 + 10 * 4 + 1u);
}

TEST(Tiler, OrderPicksCheaperDirection)
{
    const AcceleratorConfig cfg = smallConfig();
    const Tiler tiler(cfg);
    const Tiling t{16, 32, 8};
    // Huge weights, small inputs -> keep weights resident.
    EXPECT_EQ(tiler.chooseOrder(t, 64, 320, 32, 1'000'000, 10, 1),
              LoopOrder::WeightStationary);
    // Huge inputs, small weights -> keep inputs resident.
    EXPECT_EQ(tiler.chooseOrder(t, 64, 320, 32, 10, 1'000'000, 1),
              LoopOrder::InputStationary);
}

TEST(Tiler, DisabledOrderingFallsBackToInputStationary)
{
    AcceleratorConfig cfg = smallConfig();
    cfg.loopOrdering = false;
    const Tiler tiler(cfg);
    const Tiling t{16, 32, 8};
    EXPECT_EQ(tiler.chooseOrder(t, 64, 320, 32, 1'000'000, 10, 1),
              LoopOrder::InputStationary);
}

TEST(Compiler, CompilesEveryZooNetwork)
{
    const Compiler compiler(smallConfig());
    for (const auto &b : zoo::all()) {
        const CompiledNetwork cn = compiler.compile(b.quantized);
        EXPECT_FALSE(cn.schedules.empty()) << b.name;
        for (const auto &s : cn.schedules) {
            s.block.validate();
            if (s.usesMacArray) {
                // GEMM dims conserve the layer's MACs.
                EXPECT_EQ(s.m * s.k * s.n,
                          s.layer.macsPerSample())
                    << b.name << "/" << s.layer.name;
            }
        }
    }
}

TEST(Compiler, LayerFusionAbsorbsActAndPool)
{
    const Compiler compiler(smallConfig());
    const CompiledNetwork cn =
        compiler.compile(zoo::cifar10().quantized);
    // conv1 is followed by act; conv2 by act+pool.
    ASSERT_GE(cn.schedules.size(), 2u);
    EXPECT_EQ(cn.schedules[0].layer.name, "conv1");
    EXPECT_TRUE(cn.schedules[0].fusedActivation);
    EXPECT_EQ(cn.schedules[1].layer.name, "conv2");
    EXPECT_TRUE(cn.schedules[1].fusedActivation);
    EXPECT_TRUE(cn.schedules[1].fusedPool);
    // Fused pool shrinks the DRAM output footprint.
    EXPECT_EQ(cn.schedules[1].outElems,
              cn.schedules[1].layer.outputCount() / 4);
    // No standalone act/pool schedules for fused layers.
    for (const auto &s : cn.schedules)
        EXPECT_TRUE(s.usesMacArray) << s.layer.name;
}

TEST(Compiler, FusionDisabledKeepsAuxLayers)
{
    AcceleratorConfig cfg = smallConfig();
    cfg.layerFusion = false;
    const Compiler compiler(cfg);
    const CompiledNetwork cn =
        compiler.compile(zoo::cifar10().quantized);
    EXPECT_EQ(cn.schedules.size(),
              zoo::cifar10().quantized.layers().size());
    bool any_aux = false;
    for (const auto &s : cn.schedules)
        any_aux |= !s.usesMacArray;
    EXPECT_TRUE(any_aux);
}

TEST(Compiler, FusedOutputBitsTrackConsumer)
{
    const Compiler compiler(smallConfig());
    const CompiledNetwork cn =
        compiler.compile(zoo::cifar10().quantized);
    // conv1 (8b/8b) feeds the binary conv2 -> outputs stored at 1 bit.
    EXPECT_EQ(cn.schedules[0].outBits, 1u);
    // Unfused outputs would be 32-bit; fused ones never are.
    for (const auto &s : cn.schedules) {
        if (s.fusedActivation) {
            EXPECT_LT(s.outBits, 32u) << s.layer.name;
        }
    }
}

TEST(Compiler, TotalMacsScaleWithBatch)
{
    const Compiler compiler(smallConfig());
    const CompiledNetwork cn = compiler.compile(zoo::lenet5().quantized);
    EXPECT_EQ(cn.totalMacs(),
              zoo::lenet5().quantized.totalMacs() * cn.batch);
}

TEST(Compiler, BlocksCarryLayerBitwidths)
{
    const Compiler compiler(smallConfig());
    for (const auto &b : zoo::all()) {
        const CompiledNetwork cn = compiler.compile(b.quantized);
        for (const auto &s : cn.schedules) {
            if (s.usesMacArray) {
                EXPECT_EQ(s.block.config(), s.layer.bits)
                    << b.name << "/" << s.layer.name;
            }
        }
    }
}

TEST(Compiler, ConvBlockLoopsCoverAllMacs)
{
    const Compiler compiler(smallConfig());
    const Layer conv =
        Layer::conv("c", 8, 10, 10, 16, 3, 1, 1, zoo::cfg4x4(), 2);
    const InstructionBlock blk =
        compiler.emitConv(conv, BlockBases{}, 8);
    EXPECT_EQ(blk.innermostIterations(), conv.macsPerSample());
}

TEST(Compiler, FcBlockLoopsCoverAllMacs)
{
    const Compiler compiler(smallConfig());
    const Layer fc = Layer::fc("f", 128, 64, zoo::cfg2x2());
    const InstructionBlock blk =
        compiler.emitFc(fc, BlockBases{}, 16, 32);
    EXPECT_EQ(blk.innermostIterations(), fc.macsPerSample());
}

TEST(LargestDivisor, PinnedResults)
{
    // The sqrt-enumeration rewrite must reproduce the old linear
    // scan exactly: the largest divisor of value that is <= cap.
    EXPECT_EQ(Compiler::largestDivisor(12, 5), 4u);
    EXPECT_EQ(Compiler::largestDivisor(13, 5), 1u);   // prime
    EXPECT_EQ(Compiler::largestDivisor(16, 16), 16u); // cap == value
    EXPECT_EQ(Compiler::largestDivisor(16, 100), 16u);
    EXPECT_EQ(Compiler::largestDivisor(100, 10), 10u);
    EXPECT_EQ(Compiler::largestDivisor(100, 9), 5u);
    EXPECT_EQ(Compiler::largestDivisor(36, 35), 18u);
    EXPECT_EQ(Compiler::largestDivisor(97, 96), 1u);  // prime, big cap
    EXPECT_EQ(Compiler::largestDivisor(1, 1), 1u);
    EXPECT_EQ(Compiler::largestDivisor(7, 0), 1u);    // degenerate cap
    // Perfect squares hit the d * d == value boundary.
    EXPECT_EQ(Compiler::largestDivisor(49, 48), 7u);
    EXPECT_EQ(Compiler::largestDivisor(49, 7), 7u);
    EXPECT_EQ(Compiler::largestDivisor(49, 6), 1u);
    // A paper-sized case: AlexNet 2x fc6 output dim.
    EXPECT_EQ(Compiler::largestDivisor(8192, 100), 64u);
}

TEST(LargestDivisor, MatchesLinearReference)
{
    for (std::uint64_t value = 1; value <= 400; ++value) {
        for (std::uint64_t cap : {std::uint64_t{1}, std::uint64_t{2},
                                  std::uint64_t{7}, std::uint64_t{19},
                                  value / 2, value}) {
            if (cap == 0)
                continue;
            std::uint64_t expect = 1;
            for (std::uint64_t d = std::min(cap, value); d >= 1; --d) {
                if (value % d == 0) {
                    expect = d;
                    break;
                }
            }
            ASSERT_EQ(Compiler::largestDivisor(value, cap), expect)
                << "value " << value << " cap " << cap;
        }
    }
}

} // namespace
} // namespace bitfusion
