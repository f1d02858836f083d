/**
 * @file
 * Property tests for the multiply decomposition (Eqs. 1-3): for
 * every supported bitwidth/sign combination, the sum of shifted
 * BitBrick products must equal the plain integer product. Low
 * widths are swept exhaustively, high widths randomly.
 *
 * The NativeMultiply and WideConfigProducts tests are the evidence
 * for the compiled interpreter plan (src/isa/exec_plan.h): both its
 * fused MAC-nest kernel and its per-op MAC multiply natively and
 * count one decomposition's worth of BitBrick ops per MAC, which is
 * exact only because decomposeMultiply == a * w and the
 * decomposition size is aLanes x wLanes for every operand pair.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/arch/decompose.h"
#include "src/common/bitutils.h"
#include "src/common/prng.h"
#include "src/dnn/model_zoo.h"

namespace bitfusion {
namespace {

struct Case
{
    unsigned aBits, wBits;
    bool aSigned, wSigned;
};

class DecomposeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
  protected:
    FusionConfig
    cfg() const
    {
        static const unsigned widths[] = {1, 2, 4, 8, 16};
        const unsigned a = widths[std::get<0>(GetParam())];
        const unsigned w = widths[std::get<1>(GetParam())];
        const int signs = std::get<2>(GetParam());
        FusionConfig c;
        c.aBits = a;
        c.wBits = w;
        // Binary operands are unsigned by definition.
        c.aSigned = (signs & 1) && a > 1;
        c.wSigned = (signs & 2) && w > 1;
        return c;
    }
};

TEST_P(DecomposeSweep, RandomOperandsMatchIntegerProduct)
{
    const FusionConfig c = cfg();
    Prng prng(0x5eed0000 + c.aBits * 64 + c.wBits * 4 +
              (c.aSigned ? 2 : 0) + (c.wSigned ? 1 : 0));
    for (int i = 0; i < 200; ++i) {
        const std::int64_t a = c.aSigned ? prng.nextSigned(c.aBits)
                                         : prng.nextUnsigned(c.aBits);
        const std::int64_t w = c.wSigned ? prng.nextSigned(c.wBits)
                                         : prng.nextUnsigned(c.wBits);
        const auto ops = decomposeMultiply(a, w, c);
        EXPECT_EQ(evaluateDecomposition(ops), a * w)
            << c.toString() << " a=" << a << " w=" << w;
    }
}

TEST_P(DecomposeSweep, OperandCountMatchesLaneProduct)
{
    const FusionConfig c = cfg();
    const auto ops = decomposeMultiply(0, 0, c);
    EXPECT_EQ(ops.size(), bitBrickLanes(c.aBits) * bitBrickLanes(c.wBits));
}

TEST_P(DecomposeSweep, ExtremeOperandsMatch)
{
    const FusionConfig c = cfg();
    const std::int64_t a_lo = c.aSigned ? signedMin(c.aBits) : 0;
    const std::int64_t a_hi =
        c.aSigned ? signedMax(c.aBits) : unsignedMax(c.aBits);
    const std::int64_t w_lo = c.wSigned ? signedMin(c.wBits) : 0;
    const std::int64_t w_hi =
        c.wSigned ? signedMax(c.wBits) : unsignedMax(c.wBits);
    for (std::int64_t a : {a_lo, a_hi}) {
        for (std::int64_t w : {w_lo, w_hi}) {
            const auto ops = decomposeMultiply(a, w, c);
            EXPECT_EQ(evaluateDecomposition(ops), a * w)
                << c.toString() << " a=" << a << " w=" << w;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, DecomposeSweep,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 5),
                                            ::testing::Range(0, 4)));

TEST(Decompose, ExhaustiveFourByFourSigned)
{
    FusionConfig c{4, 4, true, true};
    for (std::int64_t a = -8; a <= 7; ++a)
        for (std::int64_t w = -8; w <= 7; ++w)
            EXPECT_EQ(evaluateDecomposition(decomposeMultiply(a, w, c)),
                      a * w)
                << "a=" << a << " w=" << w;
}

TEST(Decompose, ExhaustiveFourByFourUnsigned)
{
    FusionConfig c{4, 4, false, false};
    for (std::int64_t a = 0; a <= 15; ++a)
        for (std::int64_t w = 0; w <= 15; ++w)
            EXPECT_EQ(evaluateDecomposition(decomposeMultiply(a, w, c)),
                      a * w);
}

TEST(Decompose, ExhaustiveEightByTwoMixed)
{
    FusionConfig c{8, 2, false, true};
    for (std::int64_t a = 0; a <= 255; ++a)
        for (std::int64_t w = -2; w <= 1; ++w)
            EXPECT_EQ(evaluateDecomposition(decomposeMultiply(a, w, c)),
                      a * w);
}

TEST(Decompose, PaperFigureSixExample)
{
    // 11 x 6 = 66 with 4-bit unsigned operands (paper Fig. 6).
    FusionConfig c{4, 4, false, false};
    const auto ops = decomposeMultiply(11, 6, c);
    EXPECT_EQ(ops.size(), 4u);
    EXPECT_EQ(evaluateDecomposition(ops), 66);
}

TEST(Decompose, PaperFigureSevenExample)
{
    // 15 x 1 + 10 x 2 = 35 with 4-bit x 2-bit operands (Fig. 7).
    FusionConfig c{4, 2, false, false};
    const auto a = decomposeMultiply(15, 1, c);
    const auto b = decomposeMultiply(10, 2, c);
    EXPECT_EQ(a.size() + b.size(), 4u);
    EXPECT_EQ(evaluateDecomposition(a) + evaluateDecomposition(b), 35);
}

TEST(Decompose, RejectsUnrepresentableOperands)
{
    FusionConfig c{4, 4, false, true};
    EXPECT_FALSE(representable(16, 4, false));
    EXPECT_FALSE(representable(-1, 4, false));
    EXPECT_FALSE(representable(8, 4, true));
    EXPECT_TRUE(representable(-8, 4, true));
    EXPECT_DEATH(decomposeMultiply(16, 0, c), "not representable");
}

/**
 * Every raw operand pair of @p cfg: the decomposition equals the
 * native product and has the value-independent size the plan counts.
 */
void
expectNativeMultiplyExhaustive(const FusionConfig &cfg)
{
    const std::size_t lanes =
        static_cast<std::size_t>(bitBrickLanes(cfg.aBits)) *
        bitBrickLanes(cfg.wBits);
    for (std::uint64_t ra = 0; ra < (1ULL << cfg.aBits); ++ra) {
        const std::int64_t a = cfg.aSigned
                                   ? signExtend(ra, cfg.aBits)
                                   : static_cast<std::int64_t>(ra);
        for (std::uint64_t rw = 0; rw < (1ULL << cfg.wBits); ++rw) {
            const std::int64_t w = cfg.wSigned
                                       ? signExtend(rw, cfg.wBits)
                                       : static_cast<std::int64_t>(rw);
            const auto ops = decomposeMultiply(a, w, cfg);
            ASSERT_EQ(evaluateDecomposition(ops), a * w)
                << cfg.toString() << " a=" << a << " w=" << w;
            ASSERT_EQ(ops.size(), lanes)
                << cfg.toString() << " a=" << a << " w=" << w;
        }
    }
}

TEST(NativeMultiply, PaperConfigsMatchExactDecomposition)
{
    for (const FusionConfig &cfg :
         {zoo::cfg1x1(), zoo::cfg2x2(), zoo::cfg4x1(), zoo::cfg4x4(),
          zoo::cfg8x8()}) {
        SCOPED_TRACE(cfg.toString());
        expectNativeMultiplyExhaustive(cfg);
    }
}

TEST(NativeMultiply, AllSignednessCombosMatchExactDecomposition)
{
    for (unsigned bits : {4u, 8u}) {
        for (bool aSigned : {false, true}) {
            for (bool wSigned : {false, true}) {
                const FusionConfig cfg{bits, bits, aSigned, wSigned};
                SCOPED_TRACE(cfg.toString());
                expectNativeMultiplyExhaustive(cfg);
            }
        }
    }
}

TEST(WideConfigProducts, SampledPairsMatchExactDecomposition)
{
    // Configs too wide for an exhaustive sweep: pin a*w == the
    // BitBrick decomposition on the 16-bit and mixed-width configs at
    // the range corners and on random samples.
    const FusionConfig cfgs[] = {FusionConfig{16, 16, true, true},
                                 FusionConfig{16, 16, false, false},
                                 FusionConfig{16, 8, true, true},
                                 FusionConfig{8, 16, false, true},
                                 FusionConfig{16, 4, true, false},
                                 FusionConfig{2, 16, false, true}};
    Prng prng(20260808);
    for (const FusionConfig &cfg : cfgs) {
        auto corners = [](unsigned bits, bool sgn) {
            return sgn ? std::vector<std::int64_t>{signedMin(bits), -1,
                                                   0, 1,
                                                   signedMax(bits)}
                       : std::vector<std::int64_t>{0, 1,
                                                   unsignedMax(bits)};
        };
        std::vector<std::int64_t> as = corners(cfg.aBits, cfg.aSigned);
        std::vector<std::int64_t> ws = corners(cfg.wBits, cfg.wSigned);
        for (unsigned i = 0; i < 24; ++i) {
            as.push_back(cfg.aSigned ? prng.nextSigned(cfg.aBits)
                                     : prng.nextUnsigned(cfg.aBits));
            ws.push_back(cfg.wSigned ? prng.nextSigned(cfg.wBits)
                                     : prng.nextUnsigned(cfg.wBits));
        }
        for (std::int64_t a : as) {
            for (std::int64_t w : ws) {
                ASSERT_EQ(a * w, evaluateDecomposition(
                                     decomposeMultiply(a, w, cfg)))
                    << cfg.toString() << " a=" << a << " w=" << w;
            }
        }
    }
}

} // namespace
} // namespace bitfusion
