#include "src/baselines/eyeriss.h"

#include <algorithm>

#include "src/common/bitutils.h"
#include "src/common/logging.h"
#include "src/energy/energy_model.h"

namespace bitfusion {

EyerissModel::EyerissModel(const EyerissConfig &cfg)
    : cfg(cfg), sramPjPerBit(EnergyModel::sramEnergyPerBitPj(cfg.sramBits))
{
}

PlatformInfo
EyerissModel::describe() const
{
    PlatformInfo info;
    info.name = name();
    info.kind = "eyeriss";
    info.compute = std::to_string(cfg.totalPEs()) + " PEs (" +
                   std::to_string(cfg.peRows) + "x" +
                   std::to_string(cfg.peCols) + ", 16-bit)";
    info.freqMHz = cfg.freqMHz;
    info.onChipBits = cfg.sramBits;
    info.bwBitsPerCycle = cfg.bwBitsPerCycle;
    info.batch = cfg.batch;
    return info;
}

double
EyerissModel::utilization(const Layer &layer) const
{
    switch (layer.kind) {
      case LayerKind::Conv: {
        // Row stationary: a PE set spans kH rows vertically and up
        // to peCols output rows horizontally; sets replicate across
        // the array. Fractional fill on both axes is the mapping
        // loss.
        const unsigned kh = std::min(layer.kH, cfg.peRows);
        const unsigned sets_v = cfg.peRows / kh;
        const double v_util =
            static_cast<double>(sets_v * kh) / cfg.peRows;
        const unsigned oh = layer.outH();
        double h_util;
        if (oh >= cfg.peCols) {
            const unsigned passes = static_cast<unsigned>(
                divCeil(oh, cfg.peCols));
            h_util = static_cast<double>(oh) / (passes * cfg.peCols);
        } else {
            h_util = static_cast<double>(oh) / cfg.peCols;
        }
        return v_util * h_util;
      }
      case LayerKind::FullyConnected:
      case LayerKind::Rnn:
      case LayerKind::Lstm:
        // FC maps with batch as the horizontal reuse dimension; a
        // small batch strands columns.
        return std::min(1.0, static_cast<double>(cfg.batch) /
                                 cfg.peCols);
      default:
        return 0.0;
    }
}

LayerStats
EyerissModel::runLayer(const Layer &layer, unsigned out_bits,
                       LayerPhases &phases) const
{
    LayerStats st;
    st.name = layer.name;
    st.config = "16b/16b";

    const std::uint64_t batch = cfg.batch;
    st.macs = layer.macsPerSample() * batch;
    const double util = std::max(utilization(layer), 1e-3);
    st.utilization = util;
    st.computeCycles = static_cast<std::uint64_t>(
        static_cast<double>(st.macs) / (cfg.totalPEs() * util));

    // Off-chip traffic at 16-bit operands, with the same tiling and
    // loop-ordering reuse logic the Bit Fusion compiler applies, run
    // against Eyeriss's single shared buffer.
    const std::uint64_t w_bits = layer.weightCount() * cfg.operandBits;
    const std::uint64_t i_bits =
        layer.inputCount() * cfg.operandBits * batch;
    const std::uint64_t o_bits =
        layer.outputCount() * out_bits * batch;
    const auto gemm = layer.gemmShape();
    const std::uint64_t n_total =
        (layer.kind == LayerKind::Conv ? gemm.n : 1) * batch;

    const TrafficPlan plan = planDramTraffic(
        sharedBufferConfig(cfg.peRows, cfg.peCols, cfg.sramBits,
                           cfg.bwBitsPerCycle, cfg.batch),
        gemm.m, gemm.k, n_total, w_bits, i_bits, o_bits,
        FusionConfig{16, 16, true, true}, out_bits);
    st.dramLoadBits = plan.loadBits;
    st.dramStoreBits = plan.storeBits;
    st.memCycles =
        divCeil(st.dramLoadBits + st.dramStoreBits, cfg.bwBitsPerCycle);

    // Register files: input + weight + psum read + psum write per
    // MAC at 16 bits.
    st.rfBits = st.macs * 4 * cfg.operandBits;
    // Global buffer traffic: the row-stationary RF hierarchy filters
    // most reuse, so the global buffer sees each off-chip transfer
    // once plus one extra pass over the inputs.
    st.sramBits = st.dramLoadBits + i_bits + o_bits;

    phases = LayerPhases::fromBits(st.computeCycles, st.dramLoadBits,
                                   st.dramStoreBits, cfg.bwBitsPerCycle,
                                   0);

    EnergyModel::applyEyeriss(st, sramPjPerBit);
    return st;
}

PlatformSpec
eyerissPlatform(EyerissConfig cfg)
{
    PlatformSpec spec;
    spec.name = "eyeriss";
    spec.kind = "eyeriss";
    spec.config = PlatformConfig::wrap(cfg);
    spec.runsQuantized = false;
    spec.batch = cfg.batch;
    return spec;
}

void
registerEyerissPlatform(PlatformRegistry &r)
{
    r.add({"eyeriss", "(no variants)",
           "row-stationary 16-bit PE array baseline (Fig. 13/14)",
           [](const std::string &variant) {
               if (!variant.empty())
                   BF_FATAL("eyeriss takes no variant, got '", variant,
                            "'");
               return eyerissPlatform();
           },
           [](const PlatformSpec &spec) -> std::unique_ptr<Platform> {
               EyerissConfig cfg = spec.config.as<EyerissConfig>();
               cfg.batch = spec.batch;
               return std::make_unique<EyerissModel>(cfg);
           }});
}

RunStats
EyerissModel::run(const Network &net, const RunOptions &opts) const
{
    RunStats rs;
    rs.platform = name();
    rs.network = net.name();
    rs.batch = cfg.batch;
    rs.freqMHz = cfg.freqMHz;

    LayerWalk walk(opts.timing);
    walk.reserve(net.layers().size());
    for (const auto &layer : net.layers()) {
        if (!layer.usesMacArray()) {
            // Pooling/activation ride along with the producing
            // layer's dataflow; their cost is folded into the conv
            // passes in Eyeriss and is negligible next to the MACs.
            continue;
        }
        // Outputs leave quantized to 16 bits after the fused
        // activation path.
        LayerPhases phases;
        LayerStats st = runLayer(layer, cfg.operandBits, phases);
        walk.add(std::move(st), phases);
    }
    walk.finish(rs);
    return rs;
}

} // namespace bitfusion
