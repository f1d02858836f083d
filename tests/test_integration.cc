/**
 * @file
 * Integration tests: the headline claims of the paper must hold in
 * the reproduction -- Bit Fusion beats Eyeriss and Stripes on every
 * benchmark with the right ordering and stays within a ceiling of
 * log error of the published values, the energy model reproduces the
 * Fig. 14 shape, and the interpreter's traffic counts reconcile with
 * the analytical simulator on a fully-resident layer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>

#include "src/baselines/eyeriss.h"
#include "src/baselines/stripes.h"
#include "src/common/table.h"
#include "src/compiler/codegen.h"
#include "src/dnn/model_zoo.h"
#include "src/dnn/tensor.h"
#include "src/isa/interpreter.h"
#include "src/runner/figures.h"
#include "src/runner/paper.h"
#include "src/runner/sweep.h"
#include "src/sim/simulator.h"

namespace bitfusion {
namespace {

/**
 * Ceilings on the natural-log RMS error of each figure's
 * per-benchmark ratios against the paper's, each set just above the
 * reproduction's value when it was set (docs/validation.md): a model
 * change that moves a figure further from the paper fails here.
 */
constexpr double kFig13SpeedupRms = 0.53; // 0.505 when set
constexpr double kFig13EnergyRms = 0.51;  // 0.483
constexpr double kFig18SpeedupRms = 0.64; // 0.618
constexpr double kFig18EnergyRms = 1.04;  // 1.012

// Figs. 15 and 16 publish only a geomean row per bandwidth or batch.
constexpr double kFig15GeomeanRms = 0.62; // 0.595
constexpr double kFig16GeomeanRms = 0.31; // 0.282

/** Natural-log RMS error of @p ours against the paper's @p rows, each
 *  read through @p value (a member pointer or a callable). */
template <typename Row, std::size_t N, typename Value>
double
rmsLogError(const std::vector<double> &ours, const Row (&rows)[N],
            Value value)
{
    EXPECT_EQ(ours.size(), N);
    double sum = 0.0;
    for (std::size_t i = 0; i < ours.size() && i < N; ++i) {
        const double e = std::log(ours[i] / std::invoke(value, rows[i]));
        sum += e * e;
    }
    return std::sqrt(sum / static_cast<double>(ours.size()));
}

/** Each column's geomean over the zoo of the per-sample speedup of
 *  (platform, batch) over @p base in figure @p id's sweep grid. */
std::vector<double>
geomeanRow(const char *id, const std::pair<std::string, unsigned> &base,
           const std::vector<std::pair<std::string, unsigned>> &columns)
{
    const SweepResult result =
        SweepRunner().run(figures::find(id)->spec());
    const auto seconds = [&result](const auto &c, const std::string &net) {
        return result.stats(c.first, net, c.second).secondsPerSample();
    };
    std::vector<double> row;
    for (const auto &c : columns) {
        std::vector<double> speedups;
        for (const std::string &net : zoo::names())
            speedups.push_back(seconds(base, net) / seconds(c, net));
        row.push_back(geomean(speedups));
    }
    return row;
}

TEST(Headline, BitFusionBeatsEyerissEverywhere)
{
    const Simulator sim(AcceleratorConfig::eyerissMatched45());
    const EyerissModel eyeriss;
    std::vector<double> speedups, energy;
    for (const auto &b : zoo::all()) {
        const RunStats bf = sim.run(b.quantized);
        const RunStats ey = eyeriss.run(b.baseline);
        const double sp = ey.secondsPerSample() / bf.secondsPerSample();
        const double er = ey.energyPerSampleJ() / bf.energyPerSampleJ();
        EXPECT_GT(sp, 1.0) << b.name;
        EXPECT_GT(er, 1.0) << b.name;
        speedups.push_back(sp);
        energy.push_back(er);
    }
    // The per-benchmark record is in docs/validation.md.
    const auto &rows = paper::fig13::benchmarks;
    EXPECT_LT(rmsLogError(speedups, rows, &paper::Improvement::speedup),
              kFig13SpeedupRms);
    EXPECT_LT(rmsLogError(energy, rows, &paper::Improvement::energy),
              kFig13EnergyRms);
}

TEST(Headline, OrderingMatchesPaper)
{
    const Simulator sim(AcceleratorConfig::eyerissMatched45());
    const EyerissModel eyeriss;
    auto speedup = [&](const zoo::Benchmark &b) {
        return eyeriss.run(b.baseline).secondsPerSample() /
               sim.run(b.quantized).secondsPerSample();
    };
    // Cifar-10 (binary, deep) gains the most; the 2x-wide ResNet-18
    // gains the least; the bandwidth-bound recurrent models and the
    // wide AlexNet sit in the low group (Fig. 13).
    const double cifar = speedup(zoo::cifar10());
    EXPECT_GT(cifar, speedup(zoo::svhn()));
    EXPECT_GT(speedup(zoo::svhn()), speedup(zoo::resnet18()));
    EXPECT_GT(speedup(zoo::vgg7()), speedup(zoo::lstm()));
    EXPECT_GT(cifar, speedup(zoo::alexnet()));
}

TEST(Headline, BitFusionBeatsStripesEverywhere)
{
    const Simulator sim(AcceleratorConfig::stripesTileMatched45());
    const StripesModel stripes;
    std::vector<double> speedups, energy;
    for (const auto &b : zoo::all()) {
        const RunStats bf = sim.run(b.quantized);
        const RunStats st = stripes.run(b.quantized);
        const double sp = st.secondsPerSample() / bf.secondsPerSample();
        const double er = st.energyPerSampleJ() / bf.energyPerSampleJ();
        // The weight-traffic-bound recurrent models tie (both
        // platforms fetch identical weight bits); everything else
        // Bit Fusion wins outright.
        EXPECT_GE(sp, 0.95) << b.name;
        EXPECT_GE(er, 0.95) << b.name;
        speedups.push_back(sp);
        energy.push_back(er);
    }
    const auto &rows = paper::fig18::benchmarks;
    EXPECT_LT(rmsLogError(speedups, rows, &paper::Improvement::speedup),
              kFig18SpeedupRms);
    EXPECT_LT(rmsLogError(energy, rows, &paper::Improvement::energy),
              kFig18EnergyRms);
}

TEST(Headline, BandwidthGeomeanWithinCeiling)
{
    const std::vector<double> ours =
        geomeanRow("fig15", {"bw128", 0},
                   {{"bw32", 0}, {"bw64", 0}, {"bw128", 0},
                    {"bw256", 0}, {"bw512", 0}});
    EXPECT_LT(rmsLogError(ours, paper::fig15::geomean,
                          [](double v) { return v; }),
              kFig15GeomeanRms);
}

TEST(Headline, BatchGeomeanWithinCeiling)
{
    std::vector<std::pair<std::string, unsigned>> columns;
    for (const unsigned batch : {1u, 4u, 16u, 64u, 256u})
        columns.push_back({"bitfusion", batch});
    const std::vector<double> ours =
        geomeanRow("fig16", {"bitfusion", 1}, columns);
    EXPECT_LT(rmsLogError(ours, paper::fig16::geomean,
                          [](double v) { return v; }),
              kFig16GeomeanRms);
}

TEST(Headline, EnergyBreakdownShape)
{
    // Fig. 14: Bit Fusion is DRAM-dominated with zero RF energy;
    // Eyeriss spends a large share in register files; both spend
    // >60% on memory (buffers + RF + DRAM).
    const Simulator sim(AcceleratorConfig::eyerissMatched45());
    const EyerissModel eyeriss;
    for (const auto &b : zoo::all()) {
        const ComponentEnergy bf = sim.run(b.quantized).energy();
        EXPECT_EQ(bf.rfJ, 0.0) << b.name;
        EXPECT_GT(bf.dramJ / bf.totalJ(), 0.1) << b.name;
        const double bf_mem =
            (bf.bufferJ + bf.dramJ) / bf.totalJ();
        EXPECT_GT(bf_mem, 0.4) << b.name;

        const ComponentEnergy ey = eyeriss.run(b.baseline).energy();
        EXPECT_GT(ey.rfJ / ey.totalJ(), 0.1) << b.name;
        // RF always costs more than the multipliers themselves
        // (4 x 16-bit accesses per MAC).
        EXPECT_GT(ey.rfJ, ey.computeJ) << b.name;
        const double ey_mem =
            (ey.bufferJ + ey.rfJ + ey.dramJ) / ey.totalJ();
        EXPECT_GT(ey_mem, 0.6) << b.name;
    }
}

TEST(Headline, AlexNetPerLayerConv1MatchesPaper)
{
    // §V-B1 table: the 8b/8b conv1's speedup over Eyeriss (the one
    // per-layer datum our model reproduces almost exactly).
    const Simulator sim(AcceleratorConfig::eyerissMatched45());
    const EyerissModel eyeriss;
    const auto b = zoo::alexnet();
    const RunStats bf = sim.run(b.quantized);
    const RunStats ey = eyeriss.run(b.baseline);
    ASSERT_FALSE(bf.layers.empty());
    ASSERT_FALSE(ey.layers.empty());
    EXPECT_EQ(bf.layers[0].name, "conv1");
    const double sp = static_cast<double>(ey.layers[0].cycles) /
                      static_cast<double>(bf.layers[0].cycles);
    EXPECT_NEAR(sp, paper::fig13::alexNetLayers[0].gain.speedup, 0.5);
}

TEST(Integration, InterpreterTrafficReconcilesWithSimulator)
{
    // For a layer whose working set is fully resident, the
    // analytical simulator's DRAM traffic must equal what the
    // interpreter actually moves: weights once, inputs once,
    // outputs once.
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    const Compiler compiler(cfg);
    const Layer fc = Layer::fc("f", 64, 32, zoo::cfg8x8());

    Network net("tiny", {fc});
    CompiledNetwork cn = compiler.compile(net);
    ASSERT_EQ(cn.schedules.size(), 1u);
    const Simulator sim(cfg);
    const LayerStats st = sim.run(cn).layers.at(0);

    // Interpreter side (single sample).
    Prng prng(50);
    Tensor input(static_cast<std::size_t>(64));
    input.fillRandom(prng, 8, false);
    Tensor weights(fc.weightCount());
    weights.fillRandom(prng, 8, true);
    MemoryModel mem;
    BlockBases bases;
    bases.input = mem.allocate(64);
    for (unsigned i = 0; i < 64; ++i)
        mem.write(bases.input + i, input[i]);
    bases.weights = mem.allocate(weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i)
        mem.write(bases.weights + i, weights[i]);
    bases.output = mem.allocate(32);
    Interpreter interp(mem);
    interp.run(compiler.emitFc(fc, bases, cn.schedules[0].tile.mt,
                               cn.schedules[0].tile.kt));

    const auto &is = interp.stats();
    const std::uint64_t interp_load_bits =
        is.dramLoadElems[0] * 8 +        // IBUF at 8-bit activations
        is.dramLoadElems[2] * 8;         // WBUF at 8-bit weights
    // Simulator counts the full batch; inputs scale with batch,
    // weights are fetched once.
    const std::uint64_t weights_bits = fc.weightCount() * 8;
    const std::uint64_t inputs_bits = 64 * 8;
    EXPECT_EQ(interp_load_bits, weights_bits + inputs_bits);
    EXPECT_EQ(st.dramLoadBits,
              weights_bits + inputs_bits * cfg.batch);
    // Outputs once on both sides.
    EXPECT_EQ(is.dramStoreElems[1], 32u);
}

TEST(Integration, CompiledBlocksDisassembleForWholeZoo)
{
    const Compiler compiler(AcceleratorConfig::eyerissMatched45());
    for (const auto &b : zoo::all()) {
        const CompiledNetwork cn = compiler.compile(b.quantized);
        for (const auto &s : cn.schedules) {
            const std::string d = s.block.disassemble();
            EXPECT_NE(d.find("setup"), std::string::npos);
            EXPECT_NE(d.find("block-end"), std::string::npos);
        }
    }
}

TEST(Integration, RunStatsTimeConversions)
{
    const Simulator sim(AcceleratorConfig::eyerissMatched45());
    const RunStats rs = sim.run(zoo::lenet5().quantized);
    EXPECT_NEAR(rs.seconds(),
                static_cast<double>(rs.totalCycles) / 500e6, 1e-12);
    EXPECT_NEAR(rs.secondsPerSample() * rs.batch, rs.seconds(), 1e-12);
    EXPECT_GT(rs.energyPerSampleJ(), 0.0);
}

} // namespace
} // namespace bitfusion
