/**
 * @file
 * The figure registry: one sweep grid + reporter per paper figure,
 * run by the bitfusion_sweep CLI.
 *
 * Reporters consume only the deterministic SweepResult (cells are in
 * grid order: platform-major, then network, then batch), so their
 * output is identical for any --threads value.
 */

#include "src/runner/figures.h"

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/arch/hw_model.h"
#include "src/arch/spatial_fusion.h"
#include "src/arch/temporal_unit.h"
#include "src/baselines/eyeriss.h"
#include "src/baselines/gpu.h"
#include "src/baselines/stripes.h"
#include "src/common/logging.h"
#include "src/common/output.h"
#include "src/common/table.h"
#include "src/dnn/model_zoo.h"
#include "src/runner/paper.h"
#include "src/sim/bitfusion_platform.h"

namespace bitfusion {
namespace figures {

namespace {

/**
 * The eight paper benchmarks, built once per process: every grid and
 * reporter of a --all run reads these. A reporter that needs only the
 * names reads zoo::names() and builds nothing.
 */
const std::vector<zoo::Benchmark> &
paperZoo()
{
    static const std::vector<zoo::Benchmark> benches = zoo::all();
    return benches;
}

/** The eight paper benchmarks as sweep networks, in figure order. */
std::vector<SweepNetwork>
paperNetworks()
{
    std::vector<SweepNetwork> nets;
    for (const auto &bench : paperZoo())
        nets.push_back(SweepNetwork::fromBenchmark(bench));
    return nets;
}

/**
 * The one comparison-grid builder: any platform mix over the eight
 * paper benchmarks. fig13/14 (vs Eyeriss), fig17 (vs the GPUs),
 * fig18 (vs Stripes), and the --platform CLI all come through here.
 */
SweepSpec
comparisonSpec(const std::string &name,
               std::vector<PlatformSpec> platforms)
{
    SweepSpec spec;
    spec.name = name;
    spec.platforms = std::move(platforms);
    spec.networks = paperNetworks();
    return spec;
}

/** Cells of one platform, in grid (network-major) order. */
std::vector<const SweepCellResult *>
cellsFor(const SweepResult &result, const std::string &platform)
{
    std::vector<const SweepCellResult *> cells;
    for (const auto &c : result.cells()) {
        if (c.platform == platform)
            cells.push_back(&c);
    }
    return cells;
}

std::string
pct(double part, double total)
{
    return TextTable::num(100.0 * part / total, 1) + "%";
}

/** One sweep cell per benchmark: a platform at a batch (0 = any). */
struct Column
{
    std::string platform;
    unsigned batch = 0;
};

/**
 * A row per paper benchmark of its speedup over @p base in each of
 * @p columns (@p digits decimals), then a "geomean" row.
 */
void
speedupRows(TextTable &table, const SweepResult &result, const Column &base,
            const std::vector<Column> &columns, int digits)
{
    const auto seconds = [&result](const Column &c, const std::string &net) {
        return result.stats(c.platform, net, c.batch).secondsPerSample();
    };
    std::vector<std::vector<double>> cols(columns.size());
    for (const std::string &name : zoo::names()) {
        const double baseSec = seconds(base, name);
        std::vector<std::string> row = {name};
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const double speedup = baseSec / seconds(columns[c], name);
            cols[c].push_back(speedup);
            row.push_back(TextTable::times(speedup, digits));
        }
        table.addRow(row);
    }
    std::vector<std::string> geo = {"geomean"};
    for (const auto &c : cols)
        geo.push_back(TextTable::times(geomean(c), 2));
    table.addRow(geo);
}

// ------------------------------------------------------------- Fig. 1

void
reportFig1(const SweepResult &, const FigureOptions &)
{
    const auto &benches = paperZoo();

    std::printf("=== Fig. 1(a): multiply-add bitwidth distribution "
                "(input/weight) ===\n\n");
    std::set<std::string> configs;
    for (const auto &b : benches)
        for (const auto &[k, v] : b.quantized.macBitwidthProfile())
            configs.insert(k);

    std::vector<std::string> headers = {"Config"};
    for (const auto &b : benches)
        headers.push_back(b.name);
    TextTable macs(headers);
    for (const auto &c : configs) {
        std::vector<std::string> row = {c};
        for (const auto &b : benches) {
            const auto prof = b.quantized.macBitwidthProfile();
            const auto it = prof.find(c);
            row.push_back(TextTable::num(
                it == prof.end() ? 0.0 : 100.0 * it->second, 1));
        }
        macs.addRow(row);
    }
    macs.print();

    std::printf("\n=== Fig. 1(b): weight bitwidth distribution (%%) "
                "===\n\n");
    std::set<unsigned> wbits;
    for (const auto &b : benches)
        for (const auto &[k, v] : b.quantized.weightBitwidthProfile())
            wbits.insert(k);
    TextTable weights(headers);
    for (unsigned wb : wbits) {
        std::vector<std::string> row = {std::to_string(wb) + "-bit"};
        for (const auto &b : benches) {
            const auto prof = b.quantized.weightBitwidthProfile();
            const auto it = prof.find(wb);
            row.push_back(TextTable::num(
                it == prof.end() ? 0.0 : 100.0 * it->second, 1));
        }
        weights.addRow(row);
    }
    weights.print();

    std::printf("\n=== Fig. 1 table: %% of ops that are multiply-adds "
                "===\n\n");
    TextTable frac({"DNN", "% Multiply-Add", "(paper)"});
    BF_ASSERT(benches.size() == paper::kBenchmarks);
    for (std::size_t i = 0; i < benches.size(); ++i) {
        frac.addRow({benches[i].name,
                     TextTable::num(
                         100.0 * benches[i].quantized.macFraction(), 2),
                     TextTable::num(paper::fig1::macPct[i], 1)});
    }
    frac.print();
    std::printf("\npaper: on average %.1f%% of multiply-adds need four "
                "or fewer bits; >%.0f%% of all ops are multiply-adds\n",
                paper::fig1::fourBitsOrFewerPct, paper::fig1::macPctFloor);
}

// ------------------------------------------------------------ Fig. 10

/** One Fig. 10 table: BitBricks, shift-add, register and total cost
 *  of the temporal design and the Fusion Unit, and the reduction. */
void
costTable(const char *unit, const double (&temporal)[4],
          const double (&fusion)[4])
{
    TextTable table({unit, "BitBricks", "Shift-Add", "Register", "Total"});
    std::vector<std::string> trow = {"Temporal"};
    std::vector<std::string> frow = {"Fusion Unit"};
    std::vector<std::string> rrow = {"Reduction"};
    for (std::size_t i = 0; i < 4; ++i) {
        trow.push_back(TextTable::num(temporal[i], 0));
        frow.push_back(TextTable::num(fusion[i], 0));
        rrow.push_back(TextTable::times(temporal[i] / fusion[i], 1));
    }
    table.addRow(trow);
    table.addRow(frow);
    table.addRow(rrow);
    table.print();
}

void
reportFig10(const SweepResult &, const FigureOptions &)
{
    const UnitCost fu = HwModel::fusionUnit45();
    const UnitCost tmp = HwModel::temporalDesign45();

    std::printf("=== Fig. 10: Fusion Unit vs temporal design "
                "(45 nm, 16 BitBricks) ===\n\n");

    costTable("Area (um^2)",
              {tmp.bitBricksAreaUm2, tmp.shiftAddAreaUm2,
               tmp.registerAreaUm2, tmp.totalAreaUm2()},
              {fu.bitBricksAreaUm2, fu.shiftAddAreaUm2, fu.registerAreaUm2,
               fu.totalAreaUm2()});
    std::printf("\n");
    costTable("Power (nW)",
              {tmp.bitBricksPowerNw, tmp.shiftAddPowerNw,
               tmp.registerPowerNw, tmp.totalPowerNw()},
              {fu.bitBricksPowerNw, fu.shiftAddPowerNw, fu.registerPowerNw,
               fu.totalPowerNw()});

    const SpatialFusionTree tree(16);
    std::printf("\nshift-add tree over 16 BitBricks: %u levels, "
                "%u four-input adders, %u shift units\n",
                tree.levels(), tree.adderCount(), tree.shifterCount());
    std::printf("Fusion Units in the 1.1 mm^2 compute budget: %u\n",
                HwModel::fusionUnitsForBudget(1.1));
    std::printf("paper reference: %.1fx area and %.1fx power reduction; "
                "%u Fusion Units per 1.1 mm^2 tile\n",
                paper::fig10::areaReduction, paper::fig10::powerReduction,
                paper::fig10::fusionUnits);
}

// ----------------------------------------------------- Fig. 13 / Fig. 14

SweepSpec
specEyerissComparison(const std::string &name)
{
    return comparisonSpec(
        name,
        {bitfusionPlatform(AcceleratorConfig::eyerissMatched45(), "bitfusion"),
         eyerissPlatform()});
}

/**
 * Bit Fusion's per-benchmark speedup and energy reduction over
 * @p baseline, then both geomeans, each next to the paper's value.
 */
void
improvementTable(const SweepResult &result, const char *baseline,
                 const paper::Improvement (&paperRows)[paper::kBenchmarks],
                 const paper::Improvement &paperGeomean)
{
    const auto bf = cellsFor(result, "bitfusion");
    const auto base = cellsFor(result, baseline);
    BF_ASSERT(bf.size() == base.size() && bf.size() == std::size(paperRows));
    TextTable table({"Benchmark", "Speedup", "(paper)", "EnergyRed",
                     "(paper)"});
    std::vector<double> speedups, energy_reds;
    for (std::size_t i = 0; i < bf.size(); ++i) {
        const double speedup = base[i]->stats.secondsPerSample() /
                               bf[i]->stats.secondsPerSample();
        const double energy_red = base[i]->stats.energyPerSampleJ() /
                                  bf[i]->stats.energyPerSampleJ();
        speedups.push_back(speedup);
        energy_reds.push_back(energy_red);
        table.addRow({bf[i]->network, TextTable::times(speedup, 1),
                      TextTable::times(paperRows[i].speedup, 1),
                      TextTable::times(energy_red, 1),
                      TextTable::times(paperRows[i].energy, 1)});
    }
    table.addRow({"geomean", TextTable::times(geomean(speedups), 2),
                  TextTable::times(paperGeomean.speedup, 2),
                  TextTable::times(geomean(energy_reds), 2),
                  TextTable::times(paperGeomean.energy, 2)});
    table.print();
}

void
reportFig13(const SweepResult &result, const FigureOptions &options)
{
    const auto bf = cellsFor(result, "bitfusion");
    BF_ASSERT(!bf.empty());
    std::printf("=== Fig. 13: Bit Fusion improvement over Eyeriss "
                "(45 nm, area-matched, batch %u) ===\n\n", bf[0]->batch);
    improvementTable(result, "eyeriss", paper::fig13::benchmarks,
                     paper::fig13::geomean);

    if (options.perLayer) {
        std::printf("\n=== AlexNet per-layer improvement over Eyeriss "
                    "(paper §V-B1 table) ===\n\n");
        const RunStats &bfs = result.stats("bitfusion", "AlexNet");
        const RunStats &eys = result.stats("eyeriss", "AlexNet");
        TextTable pl({"Layer", "Config", "Speedup", "EnergyRed",
                      "BF util"});
        for (std::size_t i = 0;
             i < bfs.layers.size() && i < eys.layers.size(); ++i) {
            const auto &lb = bfs.layers[i];
            const auto &le = eys.layers[i];
            const double sp = static_cast<double>(le.cycles) /
                              static_cast<double>(lb.cycles);
            const double er = le.energy.totalJ() / lb.energy.totalJ();
            pl.addRow({lb.name, lb.config, TextTable::times(sp, 2),
                       TextTable::times(er, 2),
                       pct(lb.utilization, 1.0)});
        }
        pl.print();
        // The paper prints two decimals, dropping a trailing zero.
        const auto gain = [](double v) {
            const std::string s = TextTable::num(v, 2);
            return (s.back() == '0' ? s.substr(0, s.size() - 1) : s) + "x";
        };
        std::string ref;
        for (const auto &g : paper::fig13::alexNetLayers) {
            ref += (ref.empty() ? "" : ", ") + std::string(g.kind) + " " +
                   g.config + " " + gain(g.gain.speedup) + "/" +
                   gain(g.gain.energy);
        }
        std::printf("\npaper: %s\n", ref.c_str());
    }
}

void
reportFig14(const SweepResult &result, const FigureOptions &)
{
    const auto bf = cellsFor(result, "bitfusion");
    const auto ey = cellsFor(result, "eyeriss");
    BF_ASSERT(bf.size() == ey.size());

    std::printf("=== Fig. 14: energy breakdown, Bit Fusion vs Eyeriss "
                "===\n\n");
    TextTable table({"Benchmark", "Platform", "Compute", "Buffers",
                     "RegFile", "DRAM", "Total uJ/sample"});
    for (std::size_t i = 0; i < bf.size(); ++i) {
        for (const auto &[cell, platform] :
             {std::pair{bf[i], "BitFusion"}, std::pair{ey[i], "Eyeriss"}}) {
            const ComponentEnergy e = cell->stats.energy();
            const double total = e.totalJ();
            table.addRow({cell->network, platform, pct(e.computeJ, total),
                          pct(e.bufferJ, total), pct(e.rfJ, total),
                          pct(e.dramJ, total),
                          TextTable::num(total / cell->stats.batch * 1e6, 2)});
        }
    }
    table.print();
    namespace p = paper::fig14;
    std::printf("\npaper shape: Bit Fusion ~%.0f-%.0f%% DRAM, ~%.0f-%.0f%% "
                "buffers, ~%.0f-%.0f%% compute, %.0f%% RF;\n"
                "Eyeriss ~%.0f-%.0f%% DRAM with a large register-file "
                "share (row-stationary per-PE RFs).\n",
                p::bitFusionDramPct.lo, p::bitFusionDramPct.hi,
                p::bitFusionBufferPct.lo, p::bitFusionBufferPct.hi,
                p::bitFusionComputePct.lo, p::bitFusionComputePct.hi,
                p::bitFusionRfPct, p::eyerissDramPct.lo, p::eyerissDramPct.hi);
}

// ------------------------------------------------------------ Fig. 15

const std::uint64_t fig15Widths[] = {32, 64, 128, 256, 512};
static_assert(std::size(fig15Widths) == std::size(paper::fig15::geomean));

SweepSpec
specFig15()
{
    SweepSpec spec;
    spec.name = "fig15";
    for (std::uint64_t w : fig15Widths) {
        AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
        cfg.bwBitsPerCycle = w;
        spec.platforms.push_back(
            bitfusionPlatform(cfg, "bw" + std::to_string(w)));
    }
    spec.networks = paperNetworks();
    return spec;
}

void
reportFig15(const SweepResult &result, const FigureOptions &)
{
    std::printf("=== Fig. 15: speedup vs off-chip bandwidth (baseline "
                "128 bits/cycle) ===\n\n");

    std::vector<std::string> headers = {"Benchmark"};
    std::vector<Column> columns;
    std::string paperRow;
    for (std::size_t i = 0; i < std::size(fig15Widths); ++i) {
        const std::string w = std::to_string(fig15Widths[i]);
        headers.push_back(w + "b/cyc");
        columns.push_back({"bw" + w});
        paperRow += (i ? "  " : "") +
                    TextTable::times(paper::fig15::geomean[i], 2);
    }
    TextTable table(headers);
    speedupRows(table, result, {"bw128"}, columns, 2);
    table.print();
    std::printf("\npaper geomean: %s\n", paperRow.c_str());
}

// ------------------------------------------------------------ Fig. 16

const unsigned fig16Batches[] = {1, 4, 16, 64, 256};
static_assert(std::size(fig16Batches) == std::size(paper::fig16::geomean));

SweepSpec
specFig16()
{
    SweepSpec spec;
    spec.name = "fig16";
    spec.platforms = {bitfusionPlatform(
        AcceleratorConfig::eyerissMatched45(), "bitfusion")};
    spec.networks = paperNetworks();
    spec.batches.assign(std::begin(fig16Batches), std::end(fig16Batches));
    return spec;
}

void
reportFig16(const SweepResult &result, const FigureOptions &)
{
    std::printf("=== Fig. 16: per-sample speedup vs batch size "
                "(baseline batch 1) ===\n\n");

    std::vector<std::string> headers = {"Benchmark"};
    std::vector<Column> columns;
    std::string paperRow;
    for (std::size_t i = 0; i < std::size(fig16Batches); ++i) {
        headers.push_back("B=" + std::to_string(fig16Batches[i]));
        columns.push_back({"bitfusion", fig16Batches[i]});
        paperRow += (i ? "  " : "") +
                    TextTable::num(paper::fig16::geomean[i], 2);
    }
    TextTable table(headers);
    speedupRows(table, result, {"bitfusion", 1}, columns, 2);
    table.print();
    std::printf("\npaper geomean: %s (RNN/LSTM up to %.0fx, CNNs "
                "~%.1f-%.1fx)\n",
                paperRow.c_str(), paper::fig16::recurrentMax,
                paper::fig16::cnn.lo, paper::fig16::cnn.hi);
}

// ------------------------------------------------------------ Fig. 17

SweepSpec
specFig17()
{
    return comparisonSpec(
        "fig17",
        {bitfusionPlatform(AcceleratorConfig::gpuScale16(), "bitfusion-16nm"),
         gpuPlatform(GpuSpec::tegraX2Fp32()),
         gpuPlatform(GpuSpec::titanXpFp32()),
         gpuPlatform(GpuSpec::titanXpInt8())});
}

void
reportFig17(const SweepResult &result, const FigureOptions &)
{
    std::printf("=== Fig. 17: speedup over Tegra X2 (FP32), 16 nm "
                "===\n\n");

    TextTable table({"Benchmark", "TitanXp-FP32", "TitanXp-INT8",
                     "BitFusion-16nm"});
    // INT8 TensorRT runs the quantized graph topology at the regular
    // width (GPUs cannot exploit the 2x-wide low-bit models, so they
    // keep the regular ones; paper §V-A).
    speedupRows(table, result, {"tegra-x2-fp32"},
                {{"titan-xp-fp32"}, {"titan-xp-int8"}, {"bitfusion-16nm"}}, 1);
    table.print();
    namespace p = paper::fig17;
    std::printf("\npaper geomean: %.0fx (FP32), %.0fx (INT8), %.0fx "
                "(Bit Fusion, %.0f mW vs the GPU's %.0f W TDP)\n",
                p::titanXpFp32, p::titanXpInt8, p::bitFusion,
                p::bitFusionMw, p::gpuTdpW);
}

// ------------------------------------------------------------ Fig. 18

SweepSpec
specFig18()
{
    return comparisonSpec(
        "fig18",
        {bitfusionPlatform(AcceleratorConfig::stripesTileMatched45(),
                           "bitfusion"),
         // Both platforms run the same quantized models (Stripes also
         // benefits from the reduced weight bitwidths).
         stripesPlatform()});
}

void
reportFig18(const SweepResult &result, const FigureOptions &)
{
    std::printf("=== Fig. 18: Bit Fusion improvement over Stripes "
                "(45 nm, tile-matched) ===\n\n");
    improvementTable(result, "stripes", paper::fig18::benchmarks,
                     paper::fig18::geomean);
}

// ----------------------------------------------------------- Table II

void
reportTable2(const SweepResult &, const FigureOptions &)
{
    std::printf("=== Table II: evaluated CNN/RNN benchmarks ===\n\n");
    TextTable table({"DNN", "Mops", "(paper)", "Weights MB", "(paper)",
                     "Params M", "Layers"});
    const auto &benches = paperZoo();
    BF_ASSERT(benches.size() == paper::kBenchmarks);
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const auto &net = benches[i].quantized;
        table.addRow({
            benches[i].name,
            TextTable::num(static_cast<double>(net.totalMacs()) / 1e6, 0),
            TextTable::num(paper::table2::benchmarks[i].mops, 0),
            TextTable::num(static_cast<double>(net.totalWeightBits()) /
                               (8.0 * 1024 * 1024), 2),
            TextTable::num(paper::table2::benchmarks[i].weightMB, 1),
            TextTable::num(static_cast<double>(net.totalWeights()) / 1e6,
                           2),
            std::to_string(net.layers().size()),
        });
    }
    table.print();

    std::printf("\n(regular-width baselines used on Eyeriss/GPU)\n\n");
    TextTable base({"DNN", "Mops", "Params M"});
    for (const auto &b : benches) {
        base.addRow({
            b.name,
            TextTable::num(
                static_cast<double>(b.baseline.totalMacs()) / 1e6, 0),
            TextTable::num(
                static_cast<double>(b.baseline.totalWeights()) / 1e6, 2),
        });
    }
    base.print();
}

// ---------------------------------------------------------- Table III

void
reportTable3(const SweepResult &, const FigureOptions &)
{
    std::printf("=== Table III: evaluated platforms ===\n\n");

    TextTable asic({"ASIC", "Compute", "Freq MHz", "On-chip", "Tech",
                    "bits/cyc"});
    const auto bf45 = AcceleratorConfig::eyerissMatched45();
    asic.addRow({bf45.name,
                 std::to_string(bf45.fusionUnits()) + " FUs (" +
                     std::to_string(bf45.fusionUnits() *
                                    bf45.bricksPerUnit) +
                     " BitBricks)",
                 TextTable::num(bf45.freqMHz, 0),
                 TextTable::num(static_cast<double>(bf45.onChipBits()) /
                                (8 * 1024), 0) + " KB",
                 "45 nm", std::to_string(bf45.bwBitsPerCycle)});
    const EyerissConfig ey;
    asic.addRow({"eyeriss", std::to_string(ey.totalPEs()) + " PEs (" +
                     std::to_string(ey.peRows) + "x" +
                     std::to_string(ey.peCols) + ", 16-bit)",
                 TextTable::num(ey.freqMHz, 0),
                 TextTable::num(static_cast<double>(ey.sramBits) /
                                (8 * 1024), 1) + " KB",
                 "45 nm", std::to_string(ey.bwBitsPerCycle)});
    const StripesConfig st;
    asic.addRow({"stripes", std::to_string(st.tiles) + " tiles x " +
                     std::to_string(st.sips) + " SIPs",
                 TextTable::num(st.freqMHz, 0),
                 TextTable::num(static_cast<double>(st.sramBits *
                                                    st.tiles) /
                                (8 * 1024), 0) + " KB",
                 "45 nm", std::to_string(st.bwBitsPerCycle)});
    const auto bf16 = AcceleratorConfig::gpuScale16();
    asic.addRow({bf16.name,
                 std::to_string(bf16.fusionUnits()) + " FUs (" +
                     std::to_string(bf16.tiles) + " tiles)",
                 TextTable::num(bf16.freqMHz, 0),
                 TextTable::num(static_cast<double>(bf16.onChipBits()) /
                                (8 * 1024), 0) + " KB",
                 "16 nm", std::to_string(bf16.bwBitsPerCycle)});
    asic.print();

    std::printf("\n");
    TextTable gpu({"GPU", "Peak Gmac/s", "Mem GB/s", "Bytes/elem",
                   "Kernel eff"});
    for (const auto &spec : {GpuSpec::tegraX2Fp32(),
                             GpuSpec::titanXpFp32(),
                             GpuSpec::titanXpInt8()}) {
        gpu.addRow({spec.name,
                    TextTable::num(spec.peakMacsPerSec / 1e9, 0),
                    TextTable::num(spec.memBytesPerSec / 1e9, 0),
                    TextTable::num(spec.bytesPerElem, 0),
                    TextTable::num(spec.efficiency, 2)});
    }
    gpu.print();

    std::printf("\nderived: Fusion Unit %.0f um^2 at 45 nm; %u units "
                "per 1.1 mm^2 compute budget;\n16 nm scaling 0.86x V, "
                "0.42x C -> %.2fx energy, %.2fx area\n",
                HwModel::fusionUnit45().totalAreaUm2(),
                HwModel::fusionUnitsForBudget(1.1),
                HwModel::energyScale(TechNode::Nm16),
                HwModel::areaScale(TechNode::Nm16));
}

// ----------------------------------------------- Ablation: fusion style

void
reportAblationStyle(const SweepResult &, const FigureOptions &)
{
    std::printf("=== Ablation 1: spatial vs temporal vs hybrid fusion "
                "(throughput per area) ===\n\n");
    const double a_fu = HwModel::fusionUnit45().totalAreaUm2();
    const double a_tmp = HwModel::temporalDesign45().totalAreaUm2();

    TextTable t({"Config", "Hybrid MACs/cyc/unit", "Temporal",
                 "Hybrid MACs/cyc/mm2", "Temporal", "Advantage"});
    const FusionConfig configs[] = {
        {1, 1, false, false}, {2, 2, false, true}, {4, 2, false, true},
        {4, 4, false, true},  {8, 4, false, true}, {8, 8, false, true},
        {16, 8, true, true},  {16, 16, true, true}};
    for (const auto &c : configs) {
        // Hybrid: spatial PEs with temporal passes for 16-bit.
        const double hybrid =
            static_cast<double>(c.fusedPEs(16)) / c.temporalPasses();
        // Temporal: 16 serial units, each one product per
        // lanes(a)*lanes(w) cycles.
        const double temporal = 16.0 / TemporalUnit::cyclesPerProduct(c);
        const double h_mm2 = hybrid / a_fu * 1e6;
        const double t_mm2 = temporal / a_tmp * 1e6;
        t.addRow({c.toString(), TextTable::num(hybrid, 2),
                  TextTable::num(temporal, 2), TextTable::num(h_mm2, 0),
                  TextTable::num(t_mm2, 0),
                  TextTable::times(h_mm2 / t_mm2, 2)});
    }
    t.print();
    std::printf("\n(same 2-bit multiplier count; the temporal design "
                "pays for per-unit wide shifters/registers, Fig. 10)\n");
}

// -------------------------------------------- Ablation: code optimizations

SweepSpec
specAblationCodeopt()
{
    SweepSpec spec;
    spec.name = "ablation-codeopt";
    const struct
    {
        const char *name;
        bool loopOrdering;
        bool layerFusion;
    } variants[] = {
        {"opt", true, true},
        {"no-loop-order", false, true},
        {"no-layer-fusion", true, false},
        {"neither", false, false},
    };
    for (const auto &v : variants) {
        AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
        cfg.loopOrdering = v.loopOrdering;
        cfg.layerFusion = v.layerFusion;
        spec.platforms.push_back(bitfusionPlatform(cfg, v.name));
    }
    spec.networks = paperNetworks();
    return spec;
}

void
reportAblationCodeopt(const SweepResult &result, const FigureOptions &)
{
    std::printf("=== Ablation 2: code optimizations (loop ordering + "
                "layer fusion) ===\n\n");
    TextTable t({"Benchmark", "Optimized us", "NoLoopOrder",
                 "NoLayerFusion", "Neither", "Opt gain"});
    for (const std::string &name : zoo::names()) {
        const double opt =
            result.stats("opt", name).secondsPerSample() * 1e6;
        std::vector<std::string> row = {name, TextTable::num(opt, 1)};
        for (const char *v : {"no-loop-order", "no-layer-fusion", "neither"}) {
            const double us =
                result.stats(v, name).secondsPerSample() * 1e6;
            row.push_back(TextTable::times(us / opt, 2));
        }
        // The gain of both optimizations is the "Neither" ratio.
        row.push_back(row.back());
        t.addRow(row);
    }
    t.print();
}

// ----------------------------------------------- Ablation: bitwidth sweep

const unsigned ablationWidths[] = {16, 8, 4, 2, 1};

FusionConfig
uniformConfig(unsigned width)
{
    FusionConfig c;
    c.aBits = width;
    c.wBits = width;
    c.aSigned = false;
    c.wSigned = width > 1;
    return c;
}

SweepSpec
specAblationBitwidth()
{
    SweepSpec spec;
    spec.name = "ablation-bitwidth";
    spec.platforms = {bitfusionPlatform(
        AcceleratorConfig::eyerissMatched45(), "bitfusion")};
    const auto bench = zoo::vgg7();
    for (unsigned w : ablationWidths) {
        const FusionConfig c = uniformConfig(w);
        // Rebuild the VGG-7 topology with one uniform config.
        std::vector<Layer> layers = bench.quantized.layers();
        for (auto &l : layers)
            l.bits = c;
        spec.networks.push_back(SweepNetwork::uniform(
            c.toString(),
            Network(bench.quantized.name(), std::move(layers))));
    }
    return spec;
}

void
reportAblationBitwidth(const SweepResult &result, const FigureOptions &)
{
    std::printf("=== Ablation 3: uniform-bitwidth sweep (VGG-7 "
                "topology) ===\n\n");
    TextTable t({"Config", "us/sample", "Speedup vs 16b",
                 "Energy uJ/sample", "Reduction vs 16b"});
    const std::string base_name = uniformConfig(16).toString();
    const double base_sec =
        result.stats("bitfusion", base_name).secondsPerSample();
    const double base_e =
        result.stats("bitfusion", base_name).energyPerSampleJ();
    for (unsigned w : ablationWidths) {
        const std::string name = uniformConfig(w).toString();
        const RunStats &rs = result.stats("bitfusion", name);
        const double sec = rs.secondsPerSample();
        const double e = rs.energyPerSampleJ();
        t.addRow({name, TextTable::num(sec * 1e6, 1),
                  TextTable::times(base_sec / sec, 2),
                  TextTable::num(e * 1e6, 1),
                  TextTable::times(base_e / e, 2)});
    }
    t.print();
    std::printf("\n(compute scales ~quadratically with operand width; "
                "traffic scales linearly -- the core Bit Fusion "
                "observation)\n");
}

// ------------------------------------- Design-space exploration sweep

SweepSpec
specDse()
{
    SweepSpec spec;
    spec.name = "dse";
    const struct
    {
        unsigned rows, cols;
    } geometries[] = {{8, 32}, {8, 64}, {16, 32}, {16, 64}};
    const std::uint64_t bandwidths[] = {64, 128, 256, 512};
    for (const auto &g : geometries) {
        for (std::uint64_t bw : bandwidths) {
            AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
            cfg.rows = g.rows;
            cfg.cols = g.cols;
            cfg.bwBitsPerCycle = bw;
            spec.platforms.push_back(bitfusionPlatform(
                cfg, std::to_string(g.rows) + "x" +
                         std::to_string(g.cols) + "-bw" +
                         std::to_string(bw)));
        }
    }
    spec.networks = paperNetworks();
    spec.batches = {1, 4, 16, 64, 256};
    return spec;
}

void
reportDse(const SweepResult &result, const FigureOptions &)
{
    std::printf("=== Design-space exploration: array geometry x "
                "bandwidth x batch ===\n\n");
    // Deliberately no thread count here: the ASCII report must be
    // byte-identical for any --threads value (JSON carries it).
    std::printf("grid: %zu cells, %zu compiles, %zu cache hits\n\n",
                result.cells().size(), result.compileCount(),
                result.cacheHits());

    // Best configuration per network at the paper's batch 16,
    // by latency and by energy-delay product.
    TextTable t({"Benchmark", "Best latency", "us/sample",
                 "Best EDP", "uJ*us"});
    for (const std::string &name : zoo::names()) {
        const SweepCellResult *best_lat = nullptr;
        const SweepCellResult *best_edp = nullptr;
        double best_sec = 0.0, best_e = 0.0;
        for (const auto &c : result.cells()) {
            if (c.network != name || c.batch != 16)
                continue;
            const double sec = c.stats.secondsPerSample();
            const double edp = sec * c.stats.energyPerSampleJ();
            if (best_lat == nullptr || sec < best_sec) {
                best_lat = &c;
                best_sec = sec;
            }
            if (best_edp == nullptr || edp < best_e) {
                best_edp = &c;
                best_e = edp;
            }
        }
        BF_ASSERT(best_lat != nullptr && best_edp != nullptr);
        t.addRow({name, best_lat->platform,
                  TextTable::num(best_sec * 1e6, 1), best_edp->platform,
                  TextTable::num(best_e * 1e12, 1)});
    }
    t.print();
    std::printf("\n(full per-cell data available via --json)\n");
}

// --------------------------------------------------- --platform grids

/** Latency and energy per sample of an ad-hoc --platform grid. */
void
reportPlatforms(const SweepSpec &spec, const SweepResult &result,
                const FigureOptions &options)
{
    std::printf("=== Custom platform comparison (timing=%s) ===\n\n",
                toString(options.timing));
    std::vector<std::string> headers = {"Benchmark"};
    for (const auto &p : spec.platforms)
        headers.push_back(p.name);
    TextTable lat(headers);
    TextTable energy(headers);
    for (const auto &net : spec.networks) {
        std::vector<std::string> lrow = {net.name};
        std::vector<std::string> erow = {net.name};
        for (const auto &p : spec.platforms) {
            const RunStats &rs = result.stats(p.name, net.name);
            lrow.push_back(
                TextTable::num(rs.secondsPerSample() * 1e6, 2));
            const double uj = rs.energyPerSampleJ() * 1e6;
            // Defensive: an out-of-tree platform without an energy
            // model prints "-" rather than a misleading 0 uJ.
            erow.push_back(uj > 0.0 ? TextTable::num(uj, 2) : "-");
        }
        lat.addRow(lrow);
        energy.addRow(erow);
    }
    std::printf("latency (us/sample):\n\n");
    lat.print();
    std::printf("\nenergy (uJ/sample):\n\n");
    energy.print();
}

// ----------------------------------------------------------- registry

SweepSpec
emptySpec()
{
    return SweepSpec{};
}

} // namespace

const std::vector<Figure> &
all()
{
    static const std::vector<Figure> figures = {
        {"fig1", "bitwidth distribution of the benchmark DNNs",
         emptySpec, reportFig1},
        {"fig10", "Fusion Unit vs temporal design area/power",
         emptySpec, reportFig10},
        {"fig13", "speedup and energy reduction over Eyeriss",
         [] { return specEyerissComparison("fig13"); }, reportFig13},
        {"fig14", "energy breakdown vs Eyeriss",
         [] { return specEyerissComparison("fig14"); }, reportFig14},
        {"fig15", "performance vs off-chip bandwidth",
         specFig15, reportFig15},
        {"fig16", "per-sample throughput vs batch size",
         specFig16, reportFig16},
        {"fig17", "speedup over the GPUs at 16 nm",
         specFig17, reportFig17},
        {"fig18", "speedup and energy reduction over Stripes",
         specFig18, reportFig18},
        {"table2", "benchmark MAC counts and weight footprints",
         emptySpec, reportTable2},
        {"table3", "evaluated platform parameters",
         emptySpec, reportTable3},
        {"ablation-style", "spatial vs temporal vs hybrid fusion",
         emptySpec, reportAblationStyle},
        {"ablation-codeopt", "loop-ordering/layer-fusion optimizations",
         specAblationCodeopt, reportAblationCodeopt},
        {"ablation-bitwidth", "uniform-bitwidth sweep of VGG-7",
         specAblationBitwidth, reportAblationBitwidth},
        {"dse", "design-space sweep: geometry x bandwidth x batch",
         specDse, reportDse},
    };
    return figures;
}

const Figure *
find(const std::string &id)
{
    for (const auto &figure : all()) {
        if (figure.id == id)
            return &figure;
    }
    return nullptr;
}

std::string
platformComparison(const std::vector<std::string> &tokens, unsigned batch,
                   Figure &out)
{
    const PlatformRegistry &registry = PlatformRegistry::builtin();
    std::vector<PlatformSpec> platforms(tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (std::string error = registry.parse(tokens[i], platforms[i]);
            !error.empty())
            return error;
        if (batch != 0)
            platforms[i].batch = batch;
    }
    const SweepSpec spec = comparisonSpec("custom", std::move(platforms));
    if (std::string error = spec.error(); !error.empty())
        return error;
    out.id = spec.name;
    out.title = "custom platform comparison";
    out.spec = [spec] { return spec; };
    out.report = [spec](const SweepResult &result,
                        const FigureOptions &options) {
        reportPlatforms(spec, result, options);
    };
    return "";
}

void
run(const std::vector<Figure> &figures, const FigureOptions &options)
{
    for (std::size_t i = 0; i < figures.size(); ++i) {
        const Figure &figure = figures[i];
        if (i > 0)
            std::printf("\n");
        const SweepSpec spec = figure.spec();
        SweepResult result;
        if (!spec.platforms.empty()) {
            SweepOptions sweepOptions;
            sweepOptions.threads = options.threads;
            sweepOptions.timing = options.timing;
            sweepOptions.perLayer = options.perLayer;
            result = SweepRunner(sweepOptions).run(spec);
        }
        figure.report(result, options);

        if (options.jsonPath.empty())
            continue;
        // Several figures write one P.<id>.json per grid, and a
        // figure without a grid is then expected to write nothing.
        const bool alone = figures.size() == 1;
        if (spec.platforms.empty()) {
            if (alone) {
                BF_WARN("figure '", figure.id,
                        "' has no sweep grid; no JSON written");
            }
            continue;
        }
        writeOutput(alone ? options.jsonPath
                          : options.jsonPath + "." + figure.id + ".json",
                    result.json(options.perLayer) + "\n");
    }
}

} // namespace figures
} // namespace bitfusion
