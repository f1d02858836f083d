/**
 * @file
 * Tests for the extension features: fixed-point LSTM cell execution,
 * within-layer bitwidth variation (multiple blocks per layer), and
 * the report writers.
 */

#include <gtest/gtest.h>

#include "src/compiler/codegen.h"
#include "src/compiler/mixed_precision.h"
#include "src/core/report.h"
#include "src/dnn/model_zoo.h"
#include "src/dnn/reference.h"
#include "src/sim/simulator.h"

namespace bitfusion {
namespace {

// ---------------------------------------------------------------
// Fixed-point LSTM cell.
// ---------------------------------------------------------------

TEST(LstmCell, HardSigmoidShape)
{
    const unsigned f = 8; // Q8
    const std::int64_t one = 1 << f;
    EXPECT_EQ(Reference::hardSigmoid(0, f), one / 2);
    EXPECT_EQ(Reference::hardSigmoid(4 * one, f), one); // saturates high
    EXPECT_EQ(Reference::hardSigmoid(-4 * one, f), 0);  // saturates low
    EXPECT_EQ(Reference::hardSigmoid(one, f), one / 2 + one / 4);
    // Monotone.
    std::int64_t prev = -1;
    for (std::int64_t x = -5 * one; x <= 5 * one; x += one / 4) {
        const std::int64_t y = Reference::hardSigmoid(x, f);
        EXPECT_GE(y, prev);
        prev = y;
    }
}

TEST(LstmCell, HardTanhShape)
{
    const unsigned f = 8;
    const std::int64_t one = 1 << f;
    EXPECT_EQ(Reference::hardTanh(0, f), 0);
    EXPECT_EQ(Reference::hardTanh(one / 2, f), one / 2);
    EXPECT_EQ(Reference::hardTanh(3 * one, f), one);
    EXPECT_EQ(Reference::hardTanh(-3 * one, f), -one);
}

TEST(LstmCell, ZeroWeightsKeepDecayedState)
{
    // With all-zero weights: i=f=o=sigmoid(0)=0.5, g=0;
    // c' = 0.5*c, h' = 0.5*tanh(0.5*c).
    const unsigned f = 8;
    const std::int64_t one = 1 << f;
    const Layer l = Layer::lstm("l", 2, 2, zoo::cfg4x4());
    Tensor x(static_cast<std::size_t>(2)), h(static_cast<std::size_t>(2)),
        c(static_cast<std::size_t>(2));
    c[0] = one;      // 1.0
    c[1] = one / 2;  // 0.5
    Tensor w(l.weightCount());
    const Tensor out = Reference::lstmCell(l, x, h, c, w, f);
    EXPECT_EQ(out[2], one / 2);     // c'[0] = 0.5
    EXPECT_EQ(out[3], one / 4);     // c'[1] = 0.25
    EXPECT_EQ(out[0], one / 4);     // h'[0] = 0.5 * tanh(0.5) = 0.25
    EXPECT_EQ(out[1], one / 8);     // h'[1] = 0.5 * 0.25
}

TEST(LstmCell, ForgetGateSaturationPreservesCell)
{
    // Large positive forget-gate pre-activation -> f = 1; with i
    // saturated low, c' = c exactly.
    const unsigned f = 8;
    const std::int64_t one = 1 << f;
    const Layer l = Layer::lstm("l", 1, 1, zoo::cfg4x4());
    Tensor x(static_cast<std::size_t>(1)), h(static_cast<std::size_t>(1)),
        c(static_cast<std::size_t>(1));
    x[0] = one; // 1.0 input
    c[0] = 100;
    // Gate order [Wi | Wf | Wg | Wo], each 1 x 2 over [x; h].
    Tensor w(l.weightCount());
    w[0] = -8 * one; // Wi.x: i saturates to 0
    w[2] = 8 * one;  // Wf.x: f saturates to 1
    w[4] = 0;        // Wg
    w[6] = 0;        // Wo: o = 0.5
    const Tensor out = Reference::lstmCell(l, x, h, c, w, f);
    EXPECT_EQ(out[1], 100);              // c preserved
    EXPECT_EQ(out[0], (one / 2) * 100 >> f); // h = 0.5 * tanh(c)
}

TEST(LstmCell, GateMatrixMatchesFcLowering)
{
    // The pre-activation z of every gate equals the FC lowering the
    // compiler emits for the LSTM layer's (4h x (in+h)) matrix.
    const unsigned f = 6;
    const Layer l = Layer::lstm("l", 3, 4, zoo::cfg4x4());
    Prng prng(61);
    Tensor x(static_cast<std::size_t>(3)), h(static_cast<std::size_t>(4)),
        c(static_cast<std::size_t>(4));
    x.fillRandom(prng, 4, true);
    h.fillRandom(prng, 4, true);
    Tensor w(l.weightCount());
    w.fillRandom(prng, 4, true);

    Tensor cat(static_cast<std::size_t>(7));
    for (int i = 0; i < 3; ++i)
        cat[i] = x[i];
    for (int i = 0; i < 4; ++i)
        cat[3 + i] = h[i];
    const Layer fc = Layer::fc("z", 7, 16, zoo::cfg4x4());
    const Tensor z = Reference::fullyConnected(fc, cat, w);

    const Tensor out = Reference::lstmCell(l, x, h, c, w, f);
    for (unsigned j = 0; j < 4; ++j) {
        const std::int64_t i_g =
            Reference::hardSigmoid(z[0 * 4 + j] >> f, f);
        const std::int64_t f_g =
            Reference::hardSigmoid(z[1 * 4 + j] >> f, f);
        const std::int64_t g_g =
            Reference::hardTanh(z[2 * 4 + j] >> f, f);
        const std::int64_t o_g =
            Reference::hardSigmoid(z[3 * 4 + j] >> f, f);
        const std::int64_t c_new =
            ((f_g * c[j]) >> f) + ((i_g * g_g) >> f);
        EXPECT_EQ(out[4 + j], c_new) << j;
        const std::int64_t h_new =
            (o_g * Reference::hardTanh(c_new, f)) >> f;
        EXPECT_EQ(out[j], h_new) << j;
    }
}

// ---------------------------------------------------------------
// Within-layer bitwidth variation.
// ---------------------------------------------------------------

TEST(MixedPrecision, SplitConservesWorkExactly)
{
    const Layer conv =
        Layer::conv("c", 64, 14, 14, 100, 3, 1, 1, zoo::cfg8x8());
    const auto parts = splitByOutputChannels(
        conv, {{0.25, zoo::cfg8x8()}, {0.75, zoo::cfg2x2()}});
    ASSERT_EQ(parts.size(), 2u);
    EXPECT_EQ(parts[0].outC + parts[1].outC, conv.outC);
    EXPECT_EQ(parts[0].macsPerSample() + parts[1].macsPerSample(),
              conv.macsPerSample());
    EXPECT_EQ(parts[0].weightCount() + parts[1].weightCount(),
              conv.weightCount());
    EXPECT_EQ(parts[0].bits.aBits, 8u);
    EXPECT_EQ(parts[1].bits.wBits, 2u);
}

TEST(MixedPrecision, ThreeWaySplitOfFc)
{
    const Layer fc = Layer::fc("f", 512, 1000, zoo::cfg8x8());
    const auto parts = splitByOutputChannels(
        fc, {{0.5, zoo::cfg2x2()},
             {0.3, zoo::cfg4x4()},
             {0.2, zoo::cfg8x8()}});
    ASSERT_EQ(parts.size(), 3u);
    unsigned total = 0;
    for (const auto &p : parts)
        total += p.outC;
    EXPECT_EQ(total, 1000u);
    EXPECT_EQ(parts[0].outC, 500u);
    EXPECT_EQ(parts[1].outC, 300u);
    EXPECT_EQ(parts[2].outC, 200u);
}

TEST(MixedPrecision, CompilesToOneBlockPerSlice)
{
    const Layer conv =
        Layer::conv("c", 32, 16, 16, 64, 3, 1, 1, zoo::cfg8x8());
    const auto parts = splitByOutputChannels(
        conv, {{0.5, zoo::cfg8x8()}, {0.5, zoo::cfg2x2()}});
    Network net("mixed", {parts[0], parts[1]});
    const Compiler compiler(AcceleratorConfig::eyerissMatched45());
    const CompiledNetwork cn = compiler.compile(net);
    ASSERT_EQ(cn.schedules.size(), 2u);
    EXPECT_EQ(cn.schedules[0].block.config(), zoo::cfg8x8());
    EXPECT_EQ(cn.schedules[1].block.config(), zoo::cfg2x2());
    // Each block re-fuses the array via its own setup instruction.
    EXPECT_EQ(cn.schedules[0].block.instructions.front().op,
              Opcode::Setup);
    EXPECT_EQ(cn.schedules[1].block.instructions.front().op,
              Opcode::Setup);
}

TEST(MixedPrecision, LowerPrecisionSliceRunsFaster)
{
    const Layer conv =
        Layer::conv("c", 256, 14, 14, 512, 3, 1, 1, zoo::cfg8x8());
    const auto parts = splitByOutputChannels(
        conv, {{0.5, zoo::cfg8x8()}, {0.5, zoo::cfg2x2()}});
    const Simulator sim(AcceleratorConfig::eyerissMatched45());
    const RunStats mixed =
        sim.run(Network("mixed", {parts[0], parts[1]}));
    const RunStats uniform = sim.run(Network("uniform", {conv}));
    // Half the channels at ternary precision beats all-8-bit.
    EXPECT_LT(mixed.totalCycles, uniform.totalCycles);
}

TEST(MixedPrecisionDeath, RejectsBadSplits)
{
    const Layer conv =
        Layer::conv("c", 8, 8, 8, 16, 3, 1, 1, zoo::cfg8x8());
    EXPECT_DEATH(splitByOutputChannels(conv, {}), "no parts");
    EXPECT_DEATH(
        splitByOutputChannels(conv, {{-0.5, zoo::cfg8x8()},
                                     {1.5, zoo::cfg8x8()}}),
        "non-positive");
    const Layer pool = Layer::pool("p", 8, 8, 8, 2, 2);
    EXPECT_DEATH(splitByOutputChannels(pool, {{1.0, zoo::cfg8x8()}}),
                 "conv/fc");
}

// ---------------------------------------------------------------
// Report writers.
// ---------------------------------------------------------------

TEST(Report, CsvHasHeaderAndOneRowPerLayer)
{
    const Simulator sim(AcceleratorConfig::eyerissMatched45());
    const RunStats rs = sim.run(zoo::lenet5().quantized);
    const std::string csv = report::csv(rs);
    const auto lines = std::count(csv.begin(), csv.end(), '\n');
    EXPECT_EQ(static_cast<std::size_t>(lines), rs.layers.size() + 1);
    EXPECT_NE(csv.find("layer,config,macs"), std::string::npos);
    EXPECT_NE(csv.find("conv1"), std::string::npos);
}

TEST(Report, SummaryMentionsKeyNumbers)
{
    const Simulator sim(AcceleratorConfig::eyerissMatched45());
    const RunStats rs = sim.run(zoo::lenet5().quantized);
    const std::string s = report::summary(rs);
    EXPECT_NE(s.find("LeNet-5"), std::string::npos);
    EXPECT_NE(s.find("cycles/batch"), std::string::npos);
    EXPECT_NE(s.find("uJ"), std::string::npos);
}

TEST(Report, VersusComputesRatios)
{
    const Simulator a(AcceleratorConfig::eyerissMatched45());
    AcceleratorConfig slow_cfg = AcceleratorConfig::eyerissMatched45();
    slow_cfg.bwBitsPerCycle = 32;
    const Simulator b(slow_cfg);
    const RunStats fast = a.run(zoo::rnn().quantized);
    const RunStats slow = b.run(zoo::rnn().quantized);
    const std::string s = report::versus(fast, slow);
    EXPECT_NE(s.find("speedup"), std::string::npos);
    EXPECT_NE(s.find("RNN"), std::string::npos);
}

TEST(ReportDeath, VersusRejectsDifferentNetworks)
{
    const Simulator sim(AcceleratorConfig::eyerissMatched45());
    const RunStats a = sim.run(zoo::rnn().quantized);
    const RunStats b = sim.run(zoo::lstm().quantized);
    EXPECT_DEATH(report::versus(a, b), "different networks");
}

} // namespace
} // namespace bitfusion
