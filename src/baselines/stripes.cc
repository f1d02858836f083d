#include "src/baselines/stripes.h"

#include <algorithm>
#include <utility>

#include "src/common/bitutils.h"
#include "src/common/logging.h"
#include "src/energy/energy_model.h"

namespace bitfusion {

StripesModel::StripesModel(const StripesConfig &cfg)
    : cfg(cfg),
      buffers(sharedBufferConfig(cfg.kParallel(), cfg.mParallel(),
                                 cfg.sramBits, cfg.bwBitsPerCycle,
                                 cfg.batch)),
      sramPjPerBit(EnergyModel::sramEnergyPerBitPj(cfg.sramBits))
{
}

PlatformInfo
StripesModel::describe() const
{
    PlatformInfo info;
    info.name = name();
    info.kind = "stripes";
    info.compute = std::to_string(cfg.tiles) + " tiles x " +
                   std::to_string(cfg.sips) + " SIPs";
    info.freqMHz = cfg.freqMHz;
    info.onChipBits = cfg.sramBits * cfg.tiles;
    info.bwBitsPerCycle = cfg.bwBitsPerCycle;
    info.batch = cfg.batch;
    return info;
}

double
StripesModel::peakMacsPerCycle(unsigned w_bits) const
{
    BF_ASSERT(w_bits >= 1 && w_bits <= 16);
    return static_cast<double>(cfg.sips) / w_bits;
}

void
StripesModel::runLayer(const Layer &layer, LayerWalk &walk) const
{
    const unsigned w_bits = std::max(1u, layer.bits.wBits);
    LayerStats st;
    if (walk.keeps()) {
        st.name = layer.name;
        // Activations always run at 16 bits; label as Bit Fusion does.
        st.config = FusionConfig{16, w_bits}.toString();
    }

    const std::uint64_t batch = cfg.batch;
    st.macs = layer.macsPerSample() * batch;

    const auto gemm = layer.gemmShape();
    const std::uint64_t n_total = gemm.n * batch;
    // Tiles split the batch; each tile computes its share.
    const std::uint64_t n_tile = gemm.n * divCeil(batch, cfg.tiles);
    const std::uint64_t m_passes = divCeil(gemm.m, cfg.mParallel());
    const std::uint64_t k_passes = divCeil(gemm.k, cfg.kParallel());
    const std::uint64_t n_passes = divCeil(n_tile, cfg.nParallel());
    // Each (m, k, n) group needs w_bits serial cycles.
    st.computeCycles = m_passes * k_passes * n_passes * w_bits;
    const double ideal = static_cast<double>(st.macs) /
                         (peakMacsPerCycle(w_bits) * cfg.tiles);
    st.utilization = ideal / static_cast<double>(st.computeCycles);

    // Traffic: weights at w_bits, activations at the fixed 16 bits,
    // with the same tiling/ordering reuse logic as Bit Fusion.
    const std::uint64_t w_bits_total = layer.weightCount() * w_bits;
    const std::uint64_t i_bits =
        layer.inputCount() * cfg.actBits * batch;
    const std::uint64_t o_bits =
        layer.outputCount() * cfg.actBits * batch;
    // Stripes activations are 16-bit; weights serialize at w_bits.
    planDramTraffic(st, buffers, gemm.m, gemm.k, n_total, w_bits_total,
                    i_bits, o_bits, FusionConfig{16, 16, true, true});

    // On-chip traffic: serial weight bits re-read per streamed
    // position; 16-bit activations re-read per output pass.
    st.sramBits = st.macs * w_bits + st.macs * cfg.actBits /
                                         cfg.kParallel() +
                  2 * gemm.m * n_total * 32;

    EnergyModel::applyStripes(st, w_bits, sramPjPerBit);
    walk.add(std::move(st), cfg.bwBitsPerCycle, 0);
}

PlatformSpec
stripesPlatform(StripesConfig cfg)
{
    return specOf("stripes", "stripes", true, cfg);
}

void
registerStripesPlatform(PlatformRegistry &r)
{
    r.add({"stripes", "(no variants)",
           "bit-serial weight SIP tile baseline (Fig. 18)",
           [](const std::string &variant) {
               return variant.empty() ? std::optional(stripesPlatform())
                                      : std::nullopt;
           },
           buildModel<StripesModel, StripesConfig>});
}

RunStats
StripesModel::run(const Network &net, const RunOptions &opts) const
{
    return walkLayers(name(), net.name(), cfg.batch, cfg.freqMHz, net.layers(),
                      opts.timing, opts.perLayer,
                      [this](const Layer &layer, LayerWalk &walk) {
                          runLayer(layer, walk);
                      });
}

} // namespace bitfusion
