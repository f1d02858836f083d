#include "src/baselines/mxu.h"

#include <algorithm>
#include <utility>

#include "src/common/bitutils.h"
#include "src/energy/energy_model.h"

namespace bitfusion {

MxuConfig
MxuConfig::v1()
{
    return MxuConfig{};
}

MxuConfig
MxuConfig::edge()
{
    MxuConfig cfg;
    cfg.name = "mxu-edge";
    cfg.rows = 64;
    cfg.cols = 64;
    cfg.sramBits = 2ULL * 1024 * 1024 * 8;
    cfg.bwBitsPerCycle = 128;
    return cfg;
}

MxuModel::MxuModel(const MxuConfig &cfg)
    : cfg(cfg),
      buffers(sharedBufferConfig(cfg.rows, cfg.cols, cfg.sramBits,
                                 cfg.bwBitsPerCycle, cfg.batch)),
      sramPjPerBit(EnergyModel::sramEnergyPerBitPj(cfg.sramBits))
{
}

PlatformInfo
MxuModel::describe() const
{
    PlatformInfo info;
    info.name = name();
    info.kind = "mxu";
    info.compute = std::to_string(cfg.rows) + "x" +
                   std::to_string(cfg.cols) +
                   " weight-stationary 8-bit MACs";
    info.freqMHz = cfg.freqMHz;
    info.onChipBits = cfg.sramBits;
    info.bwBitsPerCycle = cfg.bwBitsPerCycle;
    info.batch = cfg.batch;
    return info;
}

std::uint64_t
MxuModel::tilePasses(std::uint64_t m, std::uint64_t k) const
{
    return divCeil(k, cfg.rows) * divCeil(m, cfg.cols);
}

void
MxuModel::runLayer(const Layer &layer, LayerWalk &walk) const
{
    LayerStats st;
    if (walk.keeps()) {
        st.name = layer.name;
        st.config = "8b/8b";
    }

    const std::uint64_t batch = cfg.batch;
    st.macs = layer.macsPerSample() * batch;

    const auto gemm = layer.gemmShape();
    const std::uint64_t n_total = gemm.n * batch;
    const std::uint64_t k_passes = divCeil(gemm.k, cfg.rows);
    const std::uint64_t m_passes = divCeil(gemm.m, cfg.cols);

    // Weight-stationary execution: each (k, m) weight tile shifts
    // down the array (rows cycles, double-buffered against the
    // previous drain) and then streams every activation column
    // through it. A GEMM smaller than the array still pays the full
    // stream-through -- the utilization cliff the fused small-tile
    // fabric avoids.
    st.computeCycles = k_passes * m_passes * (n_total + cfg.rows);
    st.utilization =
        static_cast<double>(st.macs) /
        (static_cast<double>(st.computeCycles) * cfg.totalMacs());

    // Off-chip traffic at fixed 8-bit operands, with the shared
    // tiling/loop-ordering reuse logic over the unified buffer.
    const std::uint64_t w_bits = layer.weightCount() * cfg.operandBits;
    const std::uint64_t i_bits =
        layer.inputCount() * cfg.operandBits * batch;
    const std::uint64_t o_bits =
        layer.outputCount() * cfg.operandBits * batch;
    planDramTraffic(st, buffers, gemm.m, gemm.k, n_total, w_bits, i_bits,
                    o_bits, FusionConfig{8, 8, true, true});

    // No per-PE register files: weights sit in the array and partial
    // sums ripple systolically. The unified buffer sees each
    // off-chip transfer once, the activations once per column-tile
    // pass, and the 32-bit accumulators twice per reduction pass
    // beyond the first.
    st.rfBits = 0;
    const std::uint64_t acc_bits =
        layer.outputCount() * batch * 32ULL;
    st.sramBits = st.dramLoadBits + i_bits * m_passes +
                  2 * (k_passes - 1) * acc_bits;

    EnergyModel::applyFixedPoint(st, EnergyModel::fixed8MacPj, sramPjPerBit);
    // The drain of the last column is the array-depth pipeline fill.
    walk.add(std::move(st), cfg.bwBitsPerCycle, cfg.cols);
}

RunStats
MxuModel::run(const Network &net, const RunOptions &opts) const
{
    return walkLayers(net.name(), cfg.batch, cfg.freqMHz, net.layers(),
                      opts.timing, opts.perLayer,
                      [this](const Layer &layer, LayerWalk &walk) {
                          runLayer(layer, walk);
                      });
}

PlatformSpec
mxuPlatform(MxuConfig cfg)
{
    return specOf("mxu", cfg.name, true, cfg);
}

void
registerMxuPlatform(PlatformRegistry &r)
{
    r.add({"mxu", "v1 (default) | edge",
           "TPU-v1-class weight-stationary 8-bit matrix unit",
           [](const std::string &variant) -> std::optional<PlatformSpec> {
               const std::string v = canonicalVariant(variant);
               if (v.empty() || v == "v1")
                   return mxuPlatform(MxuConfig::v1());
               if (v == "edge")
                   return mxuPlatform(MxuConfig::edge());
               return std::nullopt;
           },
           buildModel<MxuModel, MxuConfig>});
}

} // namespace bitfusion
