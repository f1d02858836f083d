/**
 * @file
 * Randomized property sweeps over the compiler and timing models:
 * for thousands of random GEMM shapes, the tiler must produce
 * feasible tiles whose traffic beats naive schedules, and the
 * systolic mapping must respect conservation and monotonicity
 * invariants; and no cycle-domain platform slows down when given
 * more off-chip bandwidth.
 */

#include <gtest/gtest.h>

#include "src/baselines/diannao.h"
#include "src/baselines/eyeriss.h"
#include "src/baselines/mxu.h"
#include "src/baselines/stripes.h"
#include "src/common/prng.h"
#include "src/compiler/tiling.h"
#include "src/core/platform_registry.h"
#include "src/dnn/model_zoo.h"
#include "src/sim/systolic.h"

namespace bitfusion {
namespace {

FusionConfig
randomConfig(Prng &prng)
{
    static const unsigned widths[] = {1, 2, 4, 8, 16};
    FusionConfig c;
    c.aBits = widths[prng.below(5)];
    c.wBits = widths[prng.below(5)];
    c.aSigned = c.aBits > 1 && prng.below(2);
    c.wSigned = c.wBits > 1 && prng.below(2);
    return c;
}

class RandomGemmSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomGemmSweep, TilerInvariants)
{
    Prng prng(1000 + GetParam());
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    const Tiler tiler(cfg);
    for (int trial = 0; trial < 40; ++trial) {
        const std::uint64_t m = 1 + prng.below(8192);
        const std::uint64_t k = 1 + prng.below(16384);
        const std::uint64_t n = 1 + prng.below(65536);
        const FusionConfig bits = randomConfig(prng);
        const Tiling t = tiler.chooseTiles(m, k, n, bits);

        // Feasibility.
        ASSERT_GE(t.mt, 1u);
        ASSERT_GE(t.kt, 1u);
        ASSERT_GE(t.nt, 1u);
        ASSERT_LE(t.mt, m);
        ASSERT_LE(t.kt, k);
        ASSERT_LE(t.nt, n);
        if (t.mt * t.kt > 1) {
            ASSERT_LE(t.mt * t.kt * bits.wBits, cfg.wbufBits / 2);
        }

        // The chosen tile's traffic never exceeds the trivial
        // (1,1,1)-ish fallback tile's traffic.
        const std::uint64_t w_bits = m * k * bits.wBits;
        const std::uint64_t i_bits = k * n * bits.aBits;
        const Tiling naive{1, std::min<std::uint64_t>(k, cfg.rows), 1};
        const LoopOrder order =
            tiler.chooseOrder(t, m, k, n, w_bits, i_bits, 0);
        const std::uint64_t chosen = Tiler::trafficBits(
            order, t, m, k, n, w_bits, i_bits, 0);
        const std::uint64_t fallback = std::min(
            Tiler::trafficBits(LoopOrder::InputStationary, naive, m, k,
                               n, w_bits, i_bits, 0),
            Tiler::trafficBits(LoopOrder::WeightStationary, naive, m, k,
                               n, w_bits, i_bits, 0));
        ASSERT_LE(chosen, fallback)
            << "m=" << m << " k=" << k << " n=" << n << " "
            << bits.toString();

        // Lower bound: every operand moves at least once.
        ASSERT_GE(chosen, std::min(w_bits, i_bits));
    }
}

TEST_P(RandomGemmSweep, SystolicInvariants)
{
    Prng prng(2000 + GetParam());
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    const SystolicArray arr(cfg);
    for (int trial = 0; trial < 40; ++trial) {
        const std::uint64_t m = 1 + prng.below(4096);
        const std::uint64_t k = 1 + prng.below(8192);
        const std::uint64_t n = 1 + prng.below(32768);
        const FusionConfig bits = randomConfig(prng);
        const SystolicTiming t = arr.map(m, k, n, n, bits);

        // Utilization in (0, 1]; cycles bounded below by ideal.
        ASSERT_GT(t.utilization, 0.0);
        ASSERT_LE(t.utilization, 1.0 + 1e-9);
        const double ideal =
            static_cast<double>(m) * k * n /
            static_cast<double>(arr.peakMacsPerCycle(bits));
        ASSERT_GE(static_cast<double>(t.cycles), ideal - 1.0);

        // Pass accounting covers the full GEMM.
        ASSERT_GE(t.mPasses * cfg.cols *
                      bits.fusedPEs(cfg.bricksPerUnit),
                  m);
        ASSERT_GE(t.kPasses * cfg.rows, k);

        // Doubling n at most doubles-ish the cycles and never
        // reduces utilization.
        const SystolicTiming t2 = arr.map(m, k, 2 * n, 2 * n, bits);
        ASSERT_GE(t2.cycles, t.cycles);
        ASSERT_LE(t2.cycles, 2 * t.cycles + cfg.rows + cfg.cols);
        ASSERT_GE(t2.utilization, t.utilization - 1e-9);
    }
}

TEST_P(RandomGemmSweep, WiderOperandsNeverIncreaseThroughput)
{
    Prng prng(3000 + GetParam());
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    const SystolicArray arr(cfg);
    for (int trial = 0; trial < 30; ++trial) {
        const std::uint64_t m = 1 + prng.below(2048);
        const std::uint64_t k = 1 + prng.below(4096);
        const std::uint64_t n = 1 + prng.below(8192);
        // Fix activations, widen weights monotonically.
        std::uint64_t prev = 0;
        for (unsigned wb : {1, 2, 4, 8, 16}) {
            FusionConfig c{4, wb, false, wb > 1};
            const SystolicTiming t = arr.map(m, k, n, n, c);
            ASSERT_GE(t.cycles, prev) << "wb=" << wb;
            prev = t.cycles;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGemmSweep, ::testing::Range(0, 8));

/** Double @p spec's off-chip bandwidth when it holds a Config. */
template <typename Config>
bool
doubleBandwidth(PlatformSpec &spec)
{
    const Config *cfg = spec.config.get_if<Config>();
    if (cfg == nullptr)
        return false;
    Config wider = *cfg;
    wider.bwBitsPerCycle *= 2;
    spec.config = PlatformConfig::wrap(wider);
    return true;
}

// The safety net for any change to the DRAM side: more bandwidth
// never costs cycles, on every cycle-domain variant, zoo network,
// batch and timing model (9 x 8 x 7 x 2 = 1008 cases).
TEST(BandwidthProperty, DoublingBandwidthNeverRaisesCycles)
{
    const PlatformRegistry &reg = PlatformRegistry::builtin();
    const std::vector<zoo::Benchmark> zoo = zoo::all();
    for (const char *token :
         {"bitfusion:45nm", "bitfusion:16nm", "bitfusion:stripes-tile",
          "eyeriss", "stripes", "mxu:v1", "mxu:edge",
          "dadiannao:dadiannao", "dadiannao:diannao"}) {
        for (const unsigned batch : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
            PlatformSpec spec = reg.parse(token);
            spec.batch = batch;
            PlatformSpec wide = spec;
            ASSERT_TRUE(doubleBandwidth<AcceleratorConfig>(wide) ||
                        doubleBandwidth<EyerissConfig>(wide) ||
                        doubleBandwidth<StripesConfig>(wide) ||
                        doubleBandwidth<MxuConfig>(wide) ||
                        doubleBandwidth<DianNaoConfig>(wide))
                << token;
            const auto narrow = reg.build(spec);
            const auto fast = reg.build(wide);
            for (const auto &b : zoo) {
                const Network &net =
                    spec.runsQuantized ? b.quantized : b.baseline;
                for (const TimingModel timing :
                     {TimingModel::Simple, TimingModel::Overlap}) {
                    RunOptions opts;
                    opts.timing = timing;
                    opts.perLayer = false;
                    EXPECT_LE(fast->run(net, opts).totalCycles,
                              narrow->run(net, opts).totalCycles)
                        << token << " batch " << batch << " " << b.name
                        << (timing == TimingModel::Simple ? " simple"
                                                          : " overlap");
                }
            }
        }
    }
}

} // namespace
} // namespace bitfusion
