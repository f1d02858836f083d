/**
 * @file
 * Tests for the fusion microarchitecture: FusionConfig accounting,
 * the spatial shift-add tree, the temporal design, the hybrid Fusion
 * Unit, and the hardware cost library.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "src/arch/fusion_config.h"
#include "src/arch/fusion_unit.h"
#include "src/arch/hw_model.h"
#include "src/arch/spatial_fusion.h"
#include "src/arch/temporal_unit.h"
#include "src/common/prng.h"
#include "src/runner/paper.h"

namespace bitfusion {
namespace {

TEST(FusionConfig, FusedPEsMatchPaperFigure2)
{
    // Fig. 2(b): 16 Fused-PEs for binary/ternary.
    EXPECT_EQ(FusionConfig({1, 1, false, false}).fusedPEs(), 16u);
    EXPECT_EQ(FusionConfig({2, 2, true, true}).fusedPEs(), 16u);
    // Fig. 2(c): 4 Fused-PEs at 8-bit inputs x 2-bit weights.
    EXPECT_EQ(FusionConfig({8, 2, false, true}).fusedPEs(), 4u);
    // Fig. 2(d): one Fused-PE at 8x8.
    EXPECT_EQ(FusionConfig({8, 8, false, true}).fusedPEs(), 1u);
    // Mixed 4-bit cases from §II-A: 8/2, 4/4, 2/8 all use 4 bricks.
    EXPECT_EQ(FusionConfig({4, 4, false, true}).fusedPEs(), 4u);
    EXPECT_EQ(FusionConfig({2, 8, false, true}).fusedPEs(), 4u);
    EXPECT_EQ(FusionConfig({4, 2, false, true}).fusedPEs(), 8u);
}

TEST(FusionConfig, TemporalPassesFor16Bit)
{
    EXPECT_EQ(FusionConfig({8, 8, false, true}).temporalPasses(), 1u);
    EXPECT_EQ(FusionConfig({16, 8, true, true}).temporalPasses(), 2u);
    EXPECT_EQ(FusionConfig({8, 16, false, true}).temporalPasses(), 2u);
    EXPECT_EQ(FusionConfig({16, 16, true, true}).temporalPasses(), 4u);
}

TEST(FusionConfig, SixteenBitUsesFullUnitSpatially)
{
    const FusionConfig c{16, 16, true, true};
    EXPECT_EQ(c.bricksPerProduct(), 16u);
    EXPECT_EQ(c.fusedPEs(), 1u);
}

TEST(FusionConfigDeath, RejectsUnsupportedWidths)
{
    EXPECT_DEATH(FusionConfig({3, 4, false, true}).validate(),
                 "unsupported");
    EXPECT_DEATH(FusionConfig({4, 32, false, true}).validate(),
                 "unsupported");
    EXPECT_DEATH(FusionConfig({1, 1, true, false}).validate(),
                 "binary");
}

TEST(FusionConfig, ToStringFormat)
{
    EXPECT_EQ(FusionConfig({4, 1, false, false}).toString(), "4b/1b");
    EXPECT_EQ(FusionConfig({16, 8, true, true}).toString(), "16b/8b");
    for (unsigned a : {1u, 2u, 4u, 8u, 16u})
        for (unsigned w : {1u, 2u, 4u, 8u, 16u})
            EXPECT_EQ(FusionConfig({a, w, false, false}).toString(),
                      std::to_string(a) + "b/" + std::to_string(w) + "b");
    // The buffer holds the widest unsigned on either side.
    EXPECT_EQ(FusionConfig({4294967295u, 4294967295u}).toString(),
              "4294967295b/4294967295b");
}

TEST(SpatialFusionTree, StructureOver16Bricks)
{
    const SpatialFusionTree tree(16);
    EXPECT_EQ(tree.levels(), 2u);
    // ceil(16/4) + ceil(4/4) = 5 four-input adders.
    EXPECT_EQ(tree.adderCount(), 5u);
    EXPECT_EQ(tree.shifterCount(), 15u);
}

TEST(SpatialFusionTree, CombineSumsShiftedProducts)
{
    const SpatialFusionTree tree(16);
    // 4-bit x 4-bit decomposition of 11 x 6 (paper Fig. 6).
    std::vector<BitBrickOp> ops = {
        {3, 2, false, false, 0}, // low x low
        {3, 1, false, false, 2}, // low x hi
        {2, 2, false, false, 2}, // hi x low
        {2, 1, false, false, 4}, // hi x hi
    };
    EXPECT_EQ(tree.combine(ops), 66);
}

TEST(SpatialFusionTree, EmptyCombineIsZero)
{
    EXPECT_EQ(SpatialFusionTree(16).combine({}), 0);
}

TEST(SpatialFusionTreeDeath, OverCapacityPanics)
{
    SpatialFusionTree tree(4);
    std::vector<BitBrickOp> ops(5, BitBrickOp{1, 1, false, false, 0});
    EXPECT_DEATH(tree.combine(ops), "BitBricks");
}

TEST(TemporalUnit, CyclesPerProductScalesWithLanes)
{
    EXPECT_EQ(TemporalUnit::cyclesPerProduct({2, 2, false, true}), 1u);
    EXPECT_EQ(TemporalUnit::cyclesPerProduct({4, 4, false, true}), 4u);
    EXPECT_EQ(TemporalUnit::cyclesPerProduct({8, 8, false, true}), 16u);
    EXPECT_EQ(TemporalUnit::cyclesPerProduct({16, 16, true, true}), 64u);
    EXPECT_EQ(TemporalUnit::cyclesPerProduct({8, 2, false, true}), 4u);
}

TEST(TemporalUnit, AccumulatesCorrectProducts)
{
    TemporalUnit unit;
    const FusionConfig c{8, 8, false, true};
    unsigned cycles = unit.multiplyAccumulate(200, -100, c);
    EXPECT_EQ(cycles, 16u);
    EXPECT_EQ(unit.value(), -20000);
    unit.multiplyAccumulate(3, 5, c);
    EXPECT_EQ(unit.value(), -20000 + 15);
    EXPECT_EQ(unit.cycles(), 32u);
    unit.reset();
    EXPECT_EQ(unit.value(), 0);
    EXPECT_EQ(unit.cycles(), 0u);
}

/** Sweep of FusionUnit multiply-accumulate over all configs. */
class FusionUnitSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    FusionConfig
    cfg() const
    {
        static const unsigned widths[] = {1, 2, 4, 8, 16};
        const unsigned a = widths[std::get<0>(GetParam())];
        const unsigned w = widths[std::get<1>(GetParam())];
        return FusionConfig{a, w, false, w > 1};
    }
};

TEST_P(FusionUnitSweep, MatchesIntegerDotProduct)
{
    const FusionConfig c = cfg();
    FusionUnit unit;
    unit.configure(c);
    Prng prng(99 + c.aBits * 100 + c.wBits);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
        std::int64_t expect = 0;
        const unsigned n =
            1 + static_cast<unsigned>(prng.below(unit.fusedPEs()));
        for (unsigned i = 0; i < n; ++i) {
            const std::int64_t a = prng.nextUnsigned(c.aBits);
            const std::int64_t w = c.wSigned ? prng.nextSigned(c.wBits)
                                             : prng.nextUnsigned(c.wBits);
            pairs.emplace_back(a, w);
            expect += a * w;
        }
        const std::int64_t carry =
            prng.nextSigned(20); // incoming partial sum
        EXPECT_EQ(unit.multiplyAccumulate(pairs, carry), carry + expect);
    }
}

TEST_P(FusionUnitSweep, CycleCostMatchesTemporalPasses)
{
    const FusionConfig c = cfg();
    FusionUnit unit;
    unit.configure(c);
    std::vector<std::pair<std::int64_t, std::int64_t>> pairs(
        unit.fusedPEs(), {1, 1});
    const auto before = unit.stats().cycles;
    unit.multiplyAccumulate(pairs);
    EXPECT_EQ(unit.stats().cycles - before, c.temporalPasses());
}

TEST_P(FusionUnitSweep, BitBrickOpCountMatchesDecomposition)
{
    const FusionConfig c = cfg();
    FusionUnit unit;
    unit.configure(c);
    std::vector<std::pair<std::int64_t, std::int64_t>> pairs(
        unit.fusedPEs(), {1, 1});
    unit.multiplyAccumulate(pairs);
    EXPECT_EQ(unit.stats().bitBrickOps,
              static_cast<std::uint64_t>(unit.fusedPEs()) *
                  bitBrickLanes(c.aBits) * bitBrickLanes(c.wBits));
}

INSTANTIATE_TEST_SUITE_P(AllWidths, FusionUnitSweep,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 5)));

TEST(FusionUnitDeath, TooManyPairsPanics)
{
    FusionUnit unit;
    unit.configure({8, 8, false, true});
    std::vector<std::pair<std::int64_t, std::int64_t>> pairs(2, {1, 1});
    EXPECT_DEATH(unit.multiplyAccumulate(pairs), "Fused-PEs");
}

TEST(HwModel, Figure10Constants)
{
    const UnitCost fu = HwModel::fusionUnit45();
    const UnitCost tmp = HwModel::temporalDesign45();
    EXPECT_NEAR(fu.totalAreaUm2(), 1394.0, 1.0);
    EXPECT_NEAR(tmp.totalAreaUm2(), 4906.0, 1.0);
    // The paper's area and power reductions.
    EXPECT_NEAR(tmp.totalAreaUm2() / fu.totalAreaUm2(),
                paper::fig10::areaReduction, 0.1);
    EXPECT_NEAR(tmp.totalPowerNw() / fu.totalPowerNw(),
                paper::fig10::powerReduction, 0.1);
}

TEST(HwModel, BudgetYields512Units)
{
    EXPECT_EQ(HwModel::fusionUnitsForBudget(1.1), paper::fig10::fusionUnits);
}

TEST(HwModel, TechScaling16nm)
{
    // 0.42 C x 0.86^2 V^2.
    EXPECT_NEAR(HwModel::energyScale(TechNode::Nm16), 0.3106, 1e-3);
    EXPECT_DOUBLE_EQ(HwModel::energyScale(TechNode::Nm45), 1.0);
    EXPECT_LT(HwModel::areaScale(TechNode::Nm16), 0.2);
}

TEST(HwModel, MacEnergyScalesWithBitwidth)
{
    const double e11 = HwModel::macEnergyPj(1, 1);
    const double e44 = HwModel::macEnergyPj(4, 4);
    const double e88 = HwModel::macEnergyPj(8, 8);
    const double e1616 = HwModel::macEnergyPj(16, 16);
    EXPECT_LT(e11, e44);
    EXPECT_LT(e44, e88);
    EXPECT_LT(e88, e1616);
    // Quadratic with operand width: 8/8 uses 16x the bricks of 2/2,
    // each paying its share of the shared tree pass.
    EXPECT_NEAR(e88 / HwModel::macEnergyPj(2, 2), 16.0, 1e-9);
    // 16 nm cheaper than 45 nm.
    EXPECT_LT(HwModel::macEnergyPj(8, 8, TechNode::Nm16), e88);
}

} // namespace
} // namespace bitfusion
