/**
 * @file
 * Compiler tests: tile feasibility and traffic properties, loop
 * ordering decisions, layer fusion, and whole-network compilation
 * invariants across the model zoo.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "src/baselines/diannao.h"
#include "src/baselines/eyeriss.h"
#include "src/baselines/mxu.h"
#include "src/baselines/stripes.h"
#include "src/common/prng.h"
#include "src/compiler/codegen.h"
#include "src/compiler/tiling.h"
#include "src/core/layer_walk.h"
#include "src/dnn/model_zoo.h"
#include "src/isa/interpreter.h"
#include "src/isa/memory.h"
#include "src/runner/figures.h"

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
        const Tiling t = tiler.chooseTiles(c.m, c.k, c.n, c.bits);
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
    const Tiling t = tiler.chooseTiles(32, 64, 100, zoo::cfg8x8());
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

/**
 * The tile search in its plain form, kept as the oracle of
 * Tiler::chooseTiles: every candidate divides afresh for its nt
 * bounds and prices both loop orders through trafficBits().
 */
Tiling
referenceChooseTiles(const AcceleratorConfig &cfg, std::uint64_t m,
                     std::uint64_t k, std::uint64_t n_total,
                     const FusionConfig &bits)
{
    const std::uint64_t wbuf = std::max<std::uint64_t>(cfg.wbufBits / 2, 1);
    const std::uint64_t ibuf = std::max<std::uint64_t>(cfg.ibufBits / 2, 1);
    const std::uint64_t obuf = std::max<std::uint64_t>(cfg.obufBits / 2, 1);
    const unsigned acc_bits = 32;
    const std::uint64_t w_total = m * k * bits.wBits;
    const std::uint64_t i_total = k * n_total * bits.aBits;
    const std::uint64_t o_total = m * n_total * acc_bits;

    Tiling best;
    std::uint64_t best_cost = ~0ULL;
    for (std::uint64_t kt = 1;; kt *= 2) {
        kt = std::min(kt, k);
        for (std::uint64_t mt = 1;; mt *= 2) {
            mt = std::min(mt, m);
            if (mt * kt * bits.wBits > wbuf && !(mt == 1 && kt == 1))
                break;
            std::uint64_t nt =
                std::min(ibuf / std::max<std::uint64_t>(1, kt * bits.aBits),
                         obuf / std::max<std::uint64_t>(1, mt * acc_bits));
            nt = std::max<std::uint64_t>(1, std::min(nt, n_total));

            Tiling t{mt, kt, nt};
            const std::uint64_t cost = std::min(
                Tiler::trafficBits(LoopOrder::InputStationary, t, m, k,
                                   n_total, w_total, i_total, o_total),
                Tiler::trafficBits(LoopOrder::WeightStationary, t, m, k,
                                   n_total, w_total, i_total, o_total));
            if (cost < best_cost ||
                (cost == best_cost && mt * kt > best.mt * best.kt)) {
                best_cost = cost;
                best = t;
            }
            if (mt == m)
                break;
        }
        if (kt == k)
            break;
    }
    return best;
}

/** chooseTiles against the oracle on one input; false on a mismatch. */
::testing::AssertionResult
matchesReference(const AcceleratorConfig &cfg, std::uint64_t m,
                 std::uint64_t k, std::uint64_t n_total,
                 const FusionConfig &bits)
{
    const Tiling got = Tiler(cfg).chooseTiles(m, k, n_total, bits);
    const Tiling want = referenceChooseTiles(cfg, m, k, n_total, bits);
    if (got.mt == want.mt && got.kt == want.kt && got.nt == want.nt)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "m " << m << " k " << k << " n " << n_total << " bits "
           << bits.toString() << " buffers " << cfg.wbufBits << "/"
           << cfg.ibufBits << "/" << cfg.obufBits << ": got (" << got.mt
           << ", " << got.kt << ", " << got.nt << "), want (" << want.mt
           << ", " << want.kt << ", " << want.nt << ")";
}

/**
 * Every scratchpad split a tile search runs against: each figure's
 * Bit Fusion configurations and each baseline's shared buffer, for
 * every figure grid and every registered variant. The tiler reads
 * only the three buffer sizes, so configurations are deduplicated
 * on them.
 */
std::vector<AcceleratorConfig>
tileSearchBuffers()
{
    std::vector<PlatformSpec> specs;
    for (const figures::Figure &figure : figures::all()) {
        const SweepSpec spec = figure.spec();
        specs.insert(specs.end(), spec.platforms.begin(),
                     spec.platforms.end());
    }
    for (const char *token :
         {"bitfusion", "bitfusion:16nm", "bitfusion:stripes-tile",
          "eyeriss", "stripes", "mxu", "mxu:edge", "dadiannao",
          "dadiannao:diannao"}) {
        specs.push_back(PlatformRegistry::builtin().parse(token));
    }

    std::set<std::array<std::uint64_t, 3>> seen;
    std::vector<AcceleratorConfig> out;
    const auto keep = [&](const AcceleratorConfig &cfg) {
        if (seen.insert({cfg.wbufBits, cfg.ibufBits, cfg.obufBits}).second)
            out.push_back(cfg);
    };
    const auto shared = [&](std::uint64_t sramBits) {
        keep(sharedBufferConfig(1, 1, sramBits, 1, 1));
    };
    for (const PlatformSpec &spec : specs) {
        const PlatformConfig &c = spec.config;
        if (const auto *bf = c.get_if<AcceleratorConfig>())
            keep(*bf);
        else if (const auto *ey = c.get_if<EyerissConfig>())
            shared(ey->sramBits);
        else if (const auto *st = c.get_if<StripesConfig>())
            shared(st->sramBits);
        else if (const auto *mx = c.get_if<MxuConfig>())
            shared(mx->sramBits);
        else if (const auto *dn = c.get_if<DianNaoConfig>())
            shared(dn->sramBits);
    }
    return out;
}

TEST(Tiler, MatchesReferenceOnEveryZooLayerAndBuffer)
{
    const std::vector<AcceleratorConfig> buffers = tileSearchBuffers();
    // Bit Fusion, the 8-bit MXU and the 16-bit baselines.
    EXPECT_GE(buffers.size(), 5u);
    // Each MAC layer's GEMM at its own bitwidths and at the 8- and
    // 16-bit widths the baselines plan with; variants and networks
    // repeat shapes, so shapes are deduplicated.
    std::set<std::array<std::uint64_t, 5>> shapes;
    for (const zoo::Benchmark &bench : zoo::all()) {
        for (const Network *net : {&bench.quantized, &bench.baseline}) {
            for (const Layer &layer : net->layers()) {
                if (!layer.usesMacArray())
                    continue;
                const auto gemm = layer.gemmShape();
                for (const FusionConfig &bits :
                     {layer.bits, FusionConfig{8, 8}, FusionConfig{16, 16}})
                    shapes.insert({gemm.m, gemm.k, gemm.n, bits.aBits,
                                   bits.wBits});
            }
        }
    }
    std::size_t inputs = 0;
    for (const auto &[m, k, n, aBits, wBits] : shapes) {
        const FusionConfig bits{static_cast<unsigned>(aBits),
                                static_cast<unsigned>(wBits)};
        for (const AcceleratorConfig &cfg : buffers) {
            for (std::uint64_t batch = 1; batch <= 256; ++batch) {
                ASSERT_TRUE(matchesReference(cfg, m, k, n * batch, bits));
                ++inputs;
            }
        }
    }
    EXPECT_EQ(inputs, shapes.size() * buffers.size() * 256);
}

TEST(Tiler, MatchesReferenceOnRandomShapes)
{
    // Log-uniform sizes reach both tiny buffers (the forced 1x1 tile)
    // and layers far larger than any in the zoo.
    Prng prng(0x7117e5);
    const auto logUniform = [&](unsigned maxLog2) {
        const unsigned bits = static_cast<unsigned>(prng.below(maxLog2));
        return (1ULL << bits) + prng.below(1ULL << bits);
    };
    const unsigned widths[] = {1, 2, 4, 8, 16};
    for (int i = 0; i < 100000; ++i) {
        AcceleratorConfig cfg;
        cfg.wbufBits = logUniform(28);
        cfg.ibufBits = logUniform(28);
        cfg.obufBits = logUniform(28);
        const FusionConfig bits{widths[prng.below(5)],
                                widths[prng.below(5)]};
        ASSERT_TRUE(matchesReference(cfg, logUniform(18), logUniform(18),
                                     logUniform(22), bits))
            << "draw " << i;
    }
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

TEST(Compiler, EmittersSizeTheirBlocksExactly)
{
    // Each emitter reserves its block's instruction count up front:
    // a miscounted reserve shows as capacity != size. Without layer
    // fusion the pool and activation emitters run too.
    std::set<LayerKind> kinds;
    for (bool fusion : {true, false}) {
        AcceleratorConfig cfg = smallConfig();
        cfg.layerFusion = fusion;
        const Compiler compiler(cfg);
        for (const auto &b : zoo::all()) {
            for (const Network *net : {&b.quantized, &b.baseline}) {
                for (const auto &s : compiler.compile(*net).schedules) {
                    EXPECT_EQ(s.block.instructions.capacity(),
                              s.block.instructions.size())
                        << b.name << "/" << s.layer.name;
                    kinds.insert(s.layer.kind);
                }
            }
        }
    }
    for (LayerKind kind : {LayerKind::Conv, LayerKind::FullyConnected,
                           LayerKind::Pool, LayerKind::Activation})
        EXPECT_EQ(kinds.count(kind), 1u) << toString(kind);
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
    // The schedules carry every MAC of one sample, and the compiled
    // network the batch that multiplies them.
    const Network &net = zoo::lenet5().quantized;
    AcceleratorConfig cfg = smallConfig();
    for (const unsigned batch : {1u, 16u}) {
        cfg.batch = batch;
        const CompiledNetwork cn = Compiler(cfg).compile(net);
        std::uint64_t per_sample = 0;
        for (const auto &s : cn.schedules)
            per_sample += s.layer.macsPerSample();
        EXPECT_EQ(cn.batch, batch);
        EXPECT_EQ(per_sample, net.totalMacs());
    }
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

// The loops cover every MAC: the interpreter, walking the emitted
// nest over zeroed tensors, executes exactly one sample's MACs.
TEST(Compiler, ConvBlockLoopsCoverAllMacs)
{
    const Compiler compiler(smallConfig());
    const Layer conv =
        Layer::conv("c", 8, 10, 10, 16, 3, 1, 1, zoo::cfg4x4(), 2);
    MemoryModel mem;
    BlockBases bases;
    bases.input = mem.allocate(conv.inC * (conv.inH + 2 * conv.pad) *
                               (conv.inW + 2 * conv.pad)); // padded CHW
    bases.weights = mem.allocate(conv.weightCount());
    bases.output = mem.allocate(conv.outputCount());
    Interpreter interp(mem);
    interp.run(compiler.emitConv(conv, bases, 8));
    EXPECT_EQ(interp.stats().macs, conv.macsPerSample());
}

TEST(Compiler, FcBlockLoopsCoverAllMacs)
{
    const Compiler compiler(smallConfig());
    const Layer fc = Layer::fc("f", 128, 64, zoo::cfg2x2());
    MemoryModel mem;
    BlockBases bases;
    bases.input = mem.allocate(fc.inputCount());
    bases.weights = mem.allocate(fc.weightCount());
    bases.output = mem.allocate(fc.outputCount());
    Interpreter interp(mem);
    interp.run(compiler.emitFc(fc, bases, 16, 32));
    EXPECT_EQ(interp.stats().macs, fc.macsPerSample());
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
