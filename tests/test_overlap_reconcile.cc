/**
 * @file
 * Overlap-vs-interpreter reconciliation: the overlap timing model's
 * per-channel busy times are analytic; this suite cross-checks them
 * against what the Fusion-ISA interpreter actually executes and
 * moves on a small network zoo, then checks the overlap composition
 * identity on every platform x paper benchmark.
 *
 * What reconciles exactly (no tolerance):
 *  - DRAM channel: the analytic per-layer load/store bits equal the
 *    interpreter's ld-mem/st-mem element counts at the layer
 *    bitwidths, including on layers whose working set does not fit
 *    (tiled weights/inputs are refetched identically by the codegen
 *    loop nest and the analytic traffic planner), and therefore the
 *    analytic memCycles equal divCeil(interpreter bits, bw).
 *  - Compute channel: the MAC count the interpreter executes equals
 *    the analytic count, and the analytic busy time satisfies
 *    utilization == macs / (computeCycles * peakMacsPerCycle).
 *
 * Where the analytic prologue/epilogue model diverges from pure
 * instruction counts, the checks are one-sided bounds instead of
 * equality: the interpreter has no notion of the systolic pipeline
 * fill, so the interpreter-derived ideal compute busy is a lower
 * bound (computeCycles >= ceil(macs / peak)), and the overlap run
 * total obeys
 *     max(interp mem busy, interp ideal compute) <= overlap total
 *     <= simple total.
 * The composition identity itself --
 *     overlap total == max(sum compute + max fill, sum mem)
 * -- is checked on every platform and benchmark with a tolerance of
 * one cycle per layer (per-layer cycles are truncated to integers
 * when the walk finishes, so the reconstructed fill absorbs up to
 * one cycle of rounding per layer; the GPU's seconds-to-cycles
 * conversion rounds the same way).
 */

#include <gtest/gtest.h>

#include "src/common/bitutils.h"
#include "src/compiler/codegen.h"
#include "src/core/platform_registry.h"
#include "src/dnn/model_zoo.h"
#include "src/dnn/tensor.h"
#include "src/isa/interpreter.h"
#include "src/sim/simulator.h"
#include "src/sim/systolic.h"

namespace bitfusion {
namespace {

/** Batch-1 configuration: the interpreter executes one sample. */
AcceleratorConfig
batch1Config()
{
    AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    cfg.batch = 1;
    return cfg;
}

/** Interpreter-side traffic of one compiled fc schedule. */
struct InterpTraffic
{
    std::uint64_t loadBits = 0;
    std::uint64_t storeBits = 0;
    std::uint64_t macs = 0;
};

InterpTraffic
interpretFc(const AcceleratorConfig &cfg, const Layer &layer,
            const LayerSchedule &sched)
{
    Prng prng(layer.inC * 31 + layer.outC);
    Tensor input(layer.inputCount());
    input.fillRandom(prng, layer.bits.aBits, layer.bits.aSigned);
    Tensor weights(layer.weightCount());
    weights.fillRandom(prng, layer.bits.wBits, layer.bits.wSigned);

    MemoryModel mem;
    BlockBases bases;
    bases.input = mem.allocate(input.size());
    for (std::size_t i = 0; i < input.size(); ++i)
        mem.write(bases.input + i, input[i]);
    bases.weights = mem.allocate(weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i)
        mem.write(bases.weights + i, weights[i]);
    bases.output = mem.allocate(layer.outputCount());

    const Compiler compiler(cfg);
    Interpreter interp(mem);
    interp.run(
        compiler.emitFc(layer, bases, sched.tile.mt, sched.tile.kt));

    const InterpStats &is = interp.stats();
    InterpTraffic t;
    // Buffer 0 holds activations at aBits, buffer 2 weights at
    // wBits, buffer 1 the outputs at the schedule's output width.
    t.loadBits = is.dramLoadElems[0] * layer.bits.aBits +
                 is.dramLoadElems[2] * layer.bits.wBits;
    t.storeBits = is.dramStoreElems[1] * sched.outBits;
    t.macs = is.macs;
    return t;
}

/**
 * The reconciliation zoo: resident and deliberately tiled fc layers
 * across the paper's bitwidth configs (kt < k forces reduction
 * tiling, mt < m output tiling; both refetch DRAM data).
 */
std::vector<Layer>
reconcileZoo()
{
    return {
        Layer::fc("resident", 64, 32, zoo::cfg8x8()),
        Layer::fc("tiled-k", 4096, 64, zoo::cfg8x8()),
        Layer::fc("tiled-m", 256, 2048, zoo::cfg8x8()),
        Layer::fc("tiled-both", 2048, 2048, zoo::cfg8x8()),
        Layer::fc("low-bits", 1024, 1024, zoo::cfg4x1()),
        Layer::fc("ternary", 512, 512, zoo::cfg2x2()),
    };
}

TEST(OverlapReconcile, DramTrafficMatchesInterpreterExactly)
{
    const AcceleratorConfig cfg = batch1Config();
    const Compiler compiler(cfg);
    const Simulator sim(cfg);
    for (const Layer &layer : reconcileZoo()) {
        Network net("n", {layer});
        const CompiledNetwork cn = compiler.compile(net);
        ASSERT_EQ(cn.schedules.size(), 1u) << layer.name;
        const LayerSchedule &sched = cn.schedules[0];
        const LayerStats st = sim.run(cn).layers.at(0);
        const InterpTraffic it = interpretFc(cfg, layer, sched);

        EXPECT_EQ(st.dramLoadBits, it.loadBits) << layer.name;
        EXPECT_EQ(st.dramStoreBits, it.storeBits) << layer.name;
        // The shared DRAM channel's busy time follows directly.
        EXPECT_EQ(st.memCycles,
                  divCeil(it.loadBits + it.storeBits,
                          cfg.bwBitsPerCycle))
            << layer.name;
    }
}

TEST(OverlapReconcile, ComputeBusyMatchesInterpreterMacs)
{
    const AcceleratorConfig cfg = batch1Config();
    const Compiler compiler(cfg);
    const Simulator sim(cfg);
    const SystolicArray array(cfg);
    for (const Layer &layer : reconcileZoo()) {
        Network net("n", {layer});
        const CompiledNetwork cn = compiler.compile(net);
        const LayerSchedule &sched = cn.schedules[0];
        const LayerStats st = sim.run(cn).layers.at(0);
        const InterpTraffic it = interpretFc(cfg, layer, sched);

        EXPECT_EQ(it.macs, st.macs) << layer.name;
        const std::uint64_t peak =
            array.peakMacsPerCycle(layer.bits);
        // The interpreter knows nothing of array geometry: its MAC
        // count only lower-bounds the analytic busy time...
        EXPECT_GE(st.computeCycles, divCeil(it.macs, peak))
            << layer.name;
        // ...but the analytic model must account for every idle MAC
        // slot it charges: utilization ties the two exactly.
        EXPECT_DOUBLE_EQ(st.utilization,
                         static_cast<double>(it.macs) /
                             (static_cast<double>(st.computeCycles) *
                              static_cast<double>(peak)))
            << layer.name;
    }
}

TEST(OverlapReconcile, OverlapTotalBoundedByInterpreterChannels)
{
    // A multi-layer network: the overlap total must lie between the
    // interpreter-derived per-channel busy totals (which exclude the
    // pipeline prologue) and the simple-model total (which charges
    // every layer's fill).
    const AcceleratorConfig cfg = batch1Config();
    const Compiler compiler(cfg);
    const Simulator sim(cfg);
    std::vector<Layer> layers = reconcileZoo();
    Network net("chain", layers);
    const CompiledNetwork cn = compiler.compile(net);
    ASSERT_EQ(cn.schedules.size(), layers.size());

    std::uint64_t memBusy = 0, idealCompute = 0;
    const SystolicArray array(cfg);
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const InterpTraffic it =
            interpretFc(cfg, layers[i], cn.schedules[i]);
        memBusy += divCeil(it.loadBits + it.storeBits,
                           cfg.bwBitsPerCycle);
        idealCompute +=
            divCeil(it.macs, array.peakMacsPerCycle(layers[i].bits));
    }

    const RunStats overlap =
        sim.run(cn, TimingModel::Overlap);
    const RunStats simple = sim.run(cn, TimingModel::Simple);
    EXPECT_GE(overlap.totalCycles, memBusy);
    EXPECT_GE(overlap.totalCycles, idealCompute);
    EXPECT_LE(overlap.totalCycles, simple.totalCycles);
}

TEST(OverlapReconcile, IdentityHoldsOnAllPlatformsAndZoo)
{
    // overlap total == max(sum compute + deepest fill, sum mem),
    // with the fill of each layer reconstructed from the simple run
    // (fill = cycles - max(compute, mem)); tolerance is one cycle of
    // truncation per layer.
    const PlatformRegistry &registry = PlatformRegistry::builtin();
    const char *tokens[] = {"bitfusion", "bitfusion:16nm", "eyeriss",
                            "stripes", "gpu:titan-xp-int8"};
    for (const char *token : tokens) {
        const PlatformSpec spec = registry.parse(token);
        const auto platform = registry.build(spec);
        for (const auto &bench : zoo::all()) {
            const Network &net =
                spec.runsQuantized ? bench.quantized : bench.baseline;
            RunOptions opts;
            opts.timing = TimingModel::Simple;
            const RunStats simple = platform->run(net, opts);
            opts.timing = TimingModel::Overlap;
            const RunStats overlap = platform->run(net, opts);

            double computeBusy = 0.0, memBusy = 0.0, maxFill = 0.0;
            for (const auto &l : simple.layers) {
                computeBusy += static_cast<double>(l.computeCycles);
                memBusy += static_cast<double>(l.memCycles);
                const double fill =
                    static_cast<double>(l.cycles) -
                    static_cast<double>(
                        std::max(l.computeCycles, l.memCycles));
                maxFill = std::max(maxFill, fill);
            }
            const double expected =
                std::max(computeBusy + maxFill, memBusy);
            const double tolerance =
                static_cast<double>(simple.layers.size()) + 2.0;
            EXPECT_NEAR(static_cast<double>(overlap.totalCycles),
                        expected, tolerance)
                << token << " " << bench.name;
            EXPECT_LE(overlap.totalCycles, simple.totalCycles)
                << token << " " << bench.name;
        }
    }
}

} // namespace
} // namespace bitfusion
