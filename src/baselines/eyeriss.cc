#include "src/baselines/eyeriss.h"

#include <algorithm>
#include <utility>

#include "src/common/bitutils.h"
#include "src/energy/energy_model.h"

namespace bitfusion {

EyerissModel::EyerissModel(const EyerissConfig &cfg)
    : cfg(cfg),
      buffers(sharedBufferConfig(cfg.peRows, cfg.peCols, cfg.sramBits,
                                 cfg.bwBitsPerCycle, cfg.batch)),
      sramPjPerBit(EnergyModel::sramEnergyPerBitPj(cfg.sramBits))
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

void
EyerissModel::runLayer(const Layer &layer, LayerWalk &walk) const
{
    LayerStats st;
    if (walk.keeps()) {
        st.name = layer.name;
        st.config = "16b/16b";
    }

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
        layer.outputCount() * cfg.operandBits * batch;
    const auto gemm = layer.gemmShape();
    const std::uint64_t n_total = gemm.n * batch;

    planDramTraffic(st, buffers, gemm.m, gemm.k, n_total, w_bits, i_bits,
                    o_bits, FusionConfig{16, 16, true, true});

    // Register files: input + weight + psum read + psum write per
    // MAC at 16 bits.
    st.rfBits = st.macs * 4 * cfg.operandBits;
    // Global buffer traffic: the row-stationary RF hierarchy filters
    // most reuse, so the global buffer sees each off-chip transfer
    // once plus one extra pass over the inputs.
    st.sramBits = st.dramLoadBits + i_bits + o_bits;

    EnergyModel::applyEyeriss(st, sramPjPerBit);
    walk.add(std::move(st), cfg.bwBitsPerCycle, 0);
}

PlatformSpec
eyerissPlatform(EyerissConfig cfg)
{
    return specOf("eyeriss", "eyeriss", false, cfg);
}

void
registerEyerissPlatform(PlatformRegistry &r)
{
    r.add({"eyeriss", "(no variants)",
           "row-stationary 16-bit PE array baseline (Fig. 13/14)",
           [](const std::string &variant) {
               return variant.empty() ? std::optional(eyerissPlatform())
                                      : std::nullopt;
           },
           buildModel<EyerissModel, EyerissConfig>});
}

RunStats
EyerissModel::run(const Network &net, const RunOptions &opts) const
{
    return walkLayers(name(), net.name(), cfg.batch, cfg.freqMHz, net.layers(),
                      opts.timing, opts.perLayer,
                      [this](const Layer &layer, LayerWalk &walk) {
                          runLayer(layer, walk);
                      });
}

} // namespace bitfusion
