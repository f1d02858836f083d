#include "src/baselines/mxu.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/bitutils.h"
#include "src/common/logging.h"
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
    : cfg(cfg), sramPjPerBit(EnergyModel::sramEnergyPerBitPj(cfg.sramBits))
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

LayerStats
MxuModel::runLayer(const Layer &layer, LayerPhases &phases) const
{
    LayerStats st;
    st.name = layer.name;
    st.config = "8b/8b";

    const std::uint64_t batch = cfg.batch;
    st.macs = layer.macsPerSample() * batch;

    const auto gemm = layer.gemmShape();
    const std::uint64_t n_total =
        (layer.kind == LayerKind::Conv ? gemm.n : 1) * batch;
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
    const TrafficPlan plan = planDramTraffic(
        sharedBufferConfig(cfg.rows, cfg.cols, cfg.sramBits,
                           cfg.bwBitsPerCycle, cfg.batch),
        gemm.m, gemm.k, n_total, w_bits, i_bits, o_bits,
        FusionConfig{8, 8, true, true}, cfg.operandBits);
    st.dramLoadBits = plan.loadBits;
    st.dramStoreBits = plan.storeBits;
    st.memCycles =
        divCeil(st.dramLoadBits + st.dramStoreBits, cfg.bwBitsPerCycle);

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

    // The drain of the last column is the array-depth pipeline fill.
    phases = LayerPhases::fromBits(st.computeCycles, st.dramLoadBits,
                                   st.dramStoreBits, cfg.bwBitsPerCycle,
                                   cfg.cols);

    EnergyModel::applyFixedPoint(st, EnergyModel::fixed8MacPj, sramPjPerBit);
    return st;
}

RunStats
MxuModel::run(const Network &net, const RunOptions &opts) const
{
    RunStats rs;
    rs.platform = name();
    rs.network = net.name();
    rs.batch = cfg.batch;
    rs.freqMHz = cfg.freqMHz;

    LayerWalk walk(opts.timing);
    walk.reserve(net.layers().size());
    for (const auto &layer : net.layers()) {
        if (!layer.usesMacArray())
            continue;
        LayerPhases phases;
        LayerStats st = runLayer(layer, phases);
        walk.add(std::move(st), phases);
    }
    walk.finish(rs);
    return rs;
}

PlatformSpec
mxuPlatform(MxuConfig cfg)
{
    PlatformSpec spec;
    spec.name = cfg.name;
    spec.kind = "mxu";
    spec.runsQuantized = true;
    spec.batch = cfg.batch;
    spec.config = PlatformConfig::wrap(std::move(cfg));
    return spec;
}

void
registerMxuPlatform(PlatformRegistry &r)
{
    r.add({"mxu", "v1 (default) | edge",
           "TPU-v1-class weight-stationary 8-bit matrix unit",
           [](const std::string &variant) {
               const std::string v = canonicalVariant(variant);
               if (v.empty() || v == "v1")
                   return mxuPlatform(MxuConfig::v1());
               if (v == "edge")
                   return mxuPlatform(MxuConfig::edge());
               BF_FATAL("unknown mxu variant '", variant,
                        "' (try v1, edge)");
           },
           [](const PlatformSpec &spec) -> std::unique_ptr<Platform> {
               MxuConfig cfg = spec.config.as<MxuConfig>();
               cfg.batch = spec.batch;
               return std::make_unique<MxuModel>(cfg);
           }});
}

} // namespace bitfusion
