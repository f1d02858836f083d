/**
 * @file
 * Tests for the fixed-point LSTM cell's reference execution.
 */

#include <gtest/gtest.h>

#include "src/dnn/model_zoo.h"
#include "src/dnn/reference.h"

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

} // namespace
} // namespace bitfusion
