#include "src/sim/simulator.h"

#include <algorithm>

#include "src/common/bitutils.h"
#include "src/common/logging.h"
#include "src/compiler/codegen.h"
#include "src/compiler/tiling.h"
#include "src/energy/energy_model.h"

namespace bitfusion {

namespace {

/** Artifact wrapper around the compiler output. */
struct CompiledNetworkArtifact : PlatformArtifact
{
    explicit CompiledNetworkArtifact(CompiledNetwork net)
        : net(std::move(net))
    {
    }
    CompiledNetwork net;
};

} // namespace

Simulator::Simulator(const AcceleratorConfig &cfg)
    : cfg(cfg), array(this->cfg)
{
    this->cfg.validate();
    key = this->cfg.compileKey();
    sramPjPerBit = EnergyModel::sramEnergyPerBitPj(this->cfg.onChipBits());
}

PlatformInfo
Simulator::describe() const
{
    PlatformInfo info;
    info.name = cfg.name;
    info.kind = "bitfusion";
    info.compute = std::to_string(cfg.fusionUnits()) + " FUs (" +
                   std::to_string(cfg.fusionUnits() * cfg.bricksPerUnit) +
                   " BitBricks)";
    info.freqMHz = cfg.freqMHz;
    info.onChipBits = cfg.onChipBits();
    info.bwBitsPerCycle = cfg.bwBitsPerCycle;
    info.batch = cfg.batch;
    return info;
}

PlatformArtifactPtr
Simulator::compile(const Network &net) const
{
    return std::make_shared<CompiledNetworkArtifact>(
        Compiler(cfg).compile(net));
}

void
Simulator::runMacLayer(const LayerSchedule &sched, LayerWalk &walk) const
{
    const Layer &layer = sched.layer;
    const FusionConfig &bits = layer.bits;
    LayerStats st;
    if (walk.keeps()) {
        st.name = layer.name;
        st.config = bits.toString();
    }

    const std::uint64_t batch = cfg.batch;
    const std::uint64_t n_total = sched.n * batch;
    st.macs = layer.macsPerSample() * batch;

    // --- Compute timing --------------------------------------
    // Data-parallel tiles split the batch; each tile runs the same
    // per-layer mapping over its share of the samples.
    const std::uint64_t n_per_tile =
        sched.n * divCeil(batch, cfg.tiles);
    const SystolicTiming timing =
        array.map(sched.m, sched.k, n_per_tile, sched.tile.nt, bits);
    st.computeCycles = timing.cycles;
    st.utilization = timing.utilization;

    // --- Off-chip traffic -------------------------------------
    // Weights are shared across the batch; activations scale with it.
    const std::uint64_t w_bits = layer.weightBits();
    const std::uint64_t i_bits = layer.inputCount() * bits.aBits * batch;
    const std::uint64_t o_bits = sched.outElems * sched.outBits * batch;
    st.dramLoadBits =
        Tiler::trafficBits(sched.order, sched.tile, sched.m, sched.k,
                           n_total, w_bits, i_bits, 0);
    st.dramStoreBits = o_bits;

    // --- On-chip traffic --------------------------------------
    // IBUF: each streamed input element feeds all columns at once
    // (one read per row per cycle); re-streamed per output pass.
    st.sramBits += divCeil(st.macs * bits.aBits,
                           static_cast<std::uint64_t>(cfg.cols) *
                               bits.fusedPEs(cfg.bricksPerUnit));
    // WBUF: every Fused-PE reads its weight each cycle; this is
    // where narrow weights directly cut access energy (paper §II-C).
    st.sramBits += st.macs * bits.wBits;
    // OBUF: accumulated partial written and drained once per output.
    st.sramBits += 2 * sched.m * n_total * 32;

    EnergyModel::applyBitFusion(st, bits.aBits, bits.wBits, sramPjPerBit,
                                cfg.tech);
    // Phases: off-chip transfers double-buffer against compute at
    // streaming-tile granularity; the systolic array pays one
    // rows + cols pipeline fill.
    walk.add(std::move(st), cfg.bwBitsPerCycle, cfg.rows + cfg.cols);
}

void
Simulator::runAuxLayer(const LayerSchedule &sched, LayerWalk &walk) const
{
    const Layer &layer = sched.layer;
    LayerStats st;
    if (walk.keeps()) {
        st.name = layer.name;
        st.config = toString(layer.kind);
    }

    const std::uint64_t batch = cfg.batch;
    const std::uint64_t ops = layer.auxOpsPerSample() * batch;
    // One pooling and one activation unit per column (Fig. 3).
    const std::uint64_t auxUnits =
        static_cast<std::uint64_t>(cfg.cols) * cfg.tiles;
    st.computeCycles = divCeil(ops, auxUnits);

    const std::uint64_t in_bits =
        layer.inputCount() * layer.bits.aBits * batch;
    const std::uint64_t out_bits =
        sched.outElems * sched.outBits * batch;
    st.dramLoadBits = in_bits;
    st.dramStoreBits = out_bits;
    st.sramBits = in_bits + out_bits;
    // Aux units process one op per unit per cycle; utilization is
    // the issued ops over that capacity during the busy cycles.
    st.utilization =
        st.computeCycles == 0
            ? 0.0
            : static_cast<double>(ops) /
                  static_cast<double>(st.computeCycles * auxUnits);

    EnergyModel::applyBitFusion(st, layer.bits.aBits, layer.bits.wBits,
                                sramPjPerBit, cfg.tech);
    walk.add(std::move(st), cfg.bwBitsPerCycle, 0);
}

RunStats
Simulator::run(const CompiledNetwork &net, TimingModel timing,
               bool perLayer) const
{
    // Layers fused into a preceding MAC block were absorbed by the
    // compiler and do not appear as separate schedules.
    return walkLayers(net.networkName, cfg.batch, cfg.freqMHz,
                      net.schedules, timing, perLayer,
                      [this](const LayerSchedule &sched, LayerWalk &walk) {
                          if (sched.usesMacArray)
                              runMacLayer(sched, walk);
                          else
                              runAuxLayer(sched, walk);
                      });
}

RunStats
Simulator::run(const Network &net, const RunOptions &opts) const
{
    if (opts.artifact != nullptr) {
        const auto *compiled =
            dynamic_cast<const CompiledNetworkArtifact *>(opts.artifact);
        BF_ASSERT(compiled != nullptr,
                  "artifact is not a compiled network");
        return run(compiled->net, opts.timing, opts.perLayer);
    }
    return run(Compiler(cfg).compile(net), opts.timing, opts.perLayer);
}

} // namespace bitfusion
