#include "src/baselines/diannao.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/bitutils.h"
#include "src/common/logging.h"
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
    : cfg(cfg), sramPjPerBit(EnergyModel::sramEnergyPerBitPj(cfg.sramBits))
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

LayerStats
DianNaoModel::runLayer(const Layer &layer, bool resident,
                       LayerPhases &phases) const
{
    LayerStats st;
    st.name = layer.name;
    st.config = "16b/16b";

    const std::uint64_t batch = cfg.batch;
    st.macs = layer.macsPerSample() * batch;

    const auto gemm = layer.gemmShape();
    const std::uint64_t n_total =
        (layer.kind == LayerKind::Conv ? gemm.n : 1) * batch;
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
    const TrafficPlan plan = planDramTraffic(
        sharedBufferConfig(cfg.synapses, cfg.tiles * cfg.neurons,
                           cfg.sramBits, cfg.bwBitsPerCycle, cfg.batch),
        gemm.m, gemm.k, n_total, resident ? 0 : w_bits, i_bits, o_bits,
        FusionConfig{16, 16, true, true}, cfg.operandBits);
    st.dramLoadBits = plan.loadBits;
    st.dramStoreBits = plan.storeBits;
    st.memCycles =
        divCeil(st.dramLoadBits + st.dramStoreBits, cfg.bwBitsPerCycle);

    // NFU pipeline registers see input + synapse per MAC; the
    // buffers see each off-chip transfer once, one pass over the
    // activations, and (when resident) one pass over the synapses
    // from eDRAM.
    st.rfBits = st.macs * 2 * cfg.operandBits;
    st.sramBits = st.dramLoadBits + i_bits + o_bits +
                  (resident ? w_bits : 0);

    phases = LayerPhases::fromBits(st.computeCycles, st.dramLoadBits,
                                   st.dramStoreBits, cfg.bwBitsPerCycle,
                                   0);

    EnergyModel::applyFixedPoint(st, EnergyModel::fixed16MacPj, sramPjPerBit);
    return st;
}

RunStats
DianNaoModel::run(const Network &net, const RunOptions &opts) const
{
    RunStats rs;
    rs.platform = name();
    rs.network = net.name();
    rs.batch = cfg.batch;
    rs.freqMHz = cfg.freqMHz;

    const bool resident = weightsFit(net);
    LayerWalk walk(opts.timing);
    walk.reserve(net.layers().size());
    for (const auto &layer : net.layers()) {
        if (!layer.usesMacArray())
            continue;
        LayerPhases phases;
        LayerStats st = runLayer(layer, resident, phases);
        walk.add(std::move(st), phases);
    }
    walk.finish(rs);
    return rs;
}

PlatformSpec
diannaoPlatform(DianNaoConfig cfg)
{
    PlatformSpec spec;
    spec.name = cfg.name;
    spec.kind = "dadiannao";
    spec.runsQuantized = false;
    spec.batch = cfg.batch;
    spec.config = PlatformConfig::wrap(std::move(cfg));
    return spec;
}

void
registerDianNaoPlatform(PlatformRegistry &r)
{
    r.add({"dadiannao", "dadiannao (default) | diannao",
           "DianNao-family 16-bit NFU with eDRAM-resident synapses",
           [](const std::string &variant) {
               const std::string v = canonicalVariant(variant);
               if (v.empty() || v == "dadiannao")
                   return diannaoPlatform(DianNaoConfig::dadiannao());
               if (v == "diannao")
                   return diannaoPlatform(DianNaoConfig::diannao());
               BF_FATAL("unknown dadiannao variant '", variant,
                        "' (try dadiannao, diannao)");
           },
           [](const PlatformSpec &spec) -> std::unique_ptr<Platform> {
               DianNaoConfig cfg = spec.config.as<DianNaoConfig>();
               cfg.batch = spec.batch;
               return std::make_unique<DianNaoModel>(cfg);
           }});
}

} // namespace bitfusion
