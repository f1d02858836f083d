#include "src/baselines/diannao.h"

#include <algorithm>
#include <utility>

#include "src/common/bitutils.h"
#include "src/energy/energy_model.h"

namespace bitfusion {

DianNaoConfig
DianNaoConfig::dadiannao()
{
    return DianNaoConfig{};
}

DianNaoConfig
DianNaoConfig::diannao()
{
    DianNaoConfig cfg;
    cfg.name = "diannao";
    cfg.tiles = 1;
    cfg.freqMHz = 980.0;
    cfg.edramBits = 0;
    // NBin + NBout + SB (2 KB + 2 KB + 32 KB).
    cfg.sramBits = 36ULL * 1024 * 8;
    cfg.weightsResident = false;
    cfg.bwBitsPerCycle = 128;
    return cfg;
}

DianNaoModel::DianNaoModel(const DianNaoConfig &cfg)
    : cfg(cfg),
      buffers(sharedBufferConfig(cfg.synapses, cfg.tiles * cfg.neurons,
                                 cfg.sramBits, cfg.bwBitsPerCycle,
                                 cfg.batch)),
      sramPjPerBit(EnergyModel::sramEnergyPerBitPj(cfg.sramBits))
{
}

PlatformInfo
DianNaoModel::describe() const
{
    PlatformInfo info;
    info.name = name();
    info.kind = "dadiannao";
    info.compute = std::to_string(cfg.tiles) + " NFU tiles x " +
                   std::to_string(cfg.neurons) + "n x " +
                   std::to_string(cfg.synapses) + "s (16-bit)";
    info.freqMHz = cfg.freqMHz;
    info.onChipBits = cfg.edramBits + cfg.sramBits;
    info.bwBitsPerCycle = cfg.bwBitsPerCycle;
    info.batch = cfg.batch;
    return info;
}

bool
DianNaoModel::weightsFit(const Network &net) const
{
    if (!cfg.weightsResident)
        return false;
    std::uint64_t weight_bits = 0;
    for (const auto &layer : net.layers())
        weight_bits += layer.weightCount() * cfg.operandBits;
    return weight_bits <= cfg.edramBits;
}

void
DianNaoModel::runLayer(const Layer &layer, bool resident,
                       LayerWalk &walk) const
{
    LayerStats st;
    if (walk.keeps()) {
        st.name = layer.name;
        st.config = "16b/16b";
    }

    const std::uint64_t batch = cfg.batch;
    st.macs = layer.macsPerSample() * batch;

    const auto gemm = layer.gemmShape();
    const std::uint64_t n_total = gemm.n * batch;
    // Tiles split the output-neuron dimension; every tile's NFU
    // consumes `synapses` inputs per neuron per cycle. Fractional
    // fill on either axis strands multipliers.
    const std::uint64_t m_passes =
        divCeil(gemm.m, cfg.tiles * cfg.neurons);
    const std::uint64_t k_passes = divCeil(gemm.k, cfg.synapses);
    st.computeCycles = m_passes * k_passes * n_total;
    st.utilization =
        static_cast<double>(st.macs) /
        (static_cast<double>(st.computeCycles) * cfg.macsPerCycle());

    const std::uint64_t w_bits = layer.weightCount() * cfg.operandBits;
    const std::uint64_t i_bits =
        layer.inputCount() * cfg.operandBits * batch;
    const std::uint64_t o_bits =
        layer.outputCount() * cfg.operandBits * batch;
    // Resident synapses never touch DRAM; otherwise weights stream
    // through the shared tiling/loop-ordering planner like every
    // other baseline.
    planDramTraffic(st, buffers, gemm.m, gemm.k, n_total,
                    resident ? 0 : w_bits, i_bits, o_bits,
                    FusionConfig{16, 16, true, true});

    // NFU pipeline registers see input + synapse per MAC; the
    // buffers see each off-chip transfer once, one pass over the
    // activations, and (when resident) one pass over the synapses
    // from eDRAM.
    st.rfBits = st.macs * 2 * cfg.operandBits;
    st.sramBits = st.dramLoadBits + i_bits + o_bits +
                  (resident ? w_bits : 0);

    EnergyModel::applyFixedPoint(st, EnergyModel::fixed16MacPj, sramPjPerBit);
    walk.add(std::move(st), cfg.bwBitsPerCycle, 0);
}

RunStats
DianNaoModel::run(const Network &net, const RunOptions &opts) const
{
    const bool resident = weightsFit(net);
    return walkLayers(name(), net.name(), cfg.batch, cfg.freqMHz, net.layers(),
                      opts.timing, opts.perLayer,
                      [this, resident](const Layer &layer, LayerWalk &walk) {
                          runLayer(layer, resident, walk);
                      });
}

PlatformSpec
diannaoPlatform(DianNaoConfig cfg)
{
    return specOf("dadiannao", cfg.name, false, cfg);
}

void
registerDianNaoPlatform(PlatformRegistry &r)
{
    r.add({"dadiannao", "dadiannao (default) | diannao",
           "DianNao-family 16-bit NFU with eDRAM-resident synapses",
           [](const std::string &variant) -> std::optional<PlatformSpec> {
               const std::string v = canonicalVariant(variant);
               if (v.empty() || v == "dadiannao")
                   return diannaoPlatform(DianNaoConfig::dadiannao());
               if (v == "diannao")
                   return diannaoPlatform(DianNaoConfig::diannao());
               return std::nullopt;
           },
           buildModel<DianNaoModel, DianNaoConfig>});
}

} // namespace bitfusion
