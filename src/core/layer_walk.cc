#include "src/core/layer_walk.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/common/bitutils.h"
#include "src/common/logging.h"

namespace bitfusion {

const char *
toString(TimingModel model)
{
    switch (model) {
      case TimingModel::Simple:
        return "simple";
      case TimingModel::Overlap:
        return "overlap";
    }
    BF_PANIC("unknown timing model");
}

bool
parseTimingModel(const std::string &name, TimingModel &out)
{
    if (name == "simple") {
        out = TimingModel::Simple;
        return true;
    }
    if (name == "overlap") {
        out = TimingModel::Overlap;
        return true;
    }
    return false;
}

TimingModel
timingArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "--timing needs a value\n");
        std::exit(2);
    }
    TimingModel model;
    if (!parseTimingModel(argv[++i], model)) {
        std::fprintf(stderr, "unknown --timing '%s' (simple|overlap)\n",
                     argv[i]);
        std::exit(2);
    }
    return model;
}

LayerWalk::LayerWalk(TimingModel model, double cyclesPerUnit,
                     bool keepLayers)
    : model_(model), cyclesPerUnit_(cyclesPerUnit), keep_(keepLayers)
{
    BF_ASSERT(cyclesPerUnit > 0.0);
}

void
LayerWalk::reserve(std::size_t layers)
{
    if (!keep_)
        return;
    layers_.reserve(layers);
    phases_.reserve(layers);
}

void
LayerWalk::add(LayerStats st, LayerPhases phases)
{
    totals_.energy += st.energy;
    totals_.macs += st.macs;
    totals_.dramLoadBits += st.dramLoadBits;
    totals_.dramStoreBits += st.dramStoreBits;
    simpleUnits_ +=
        std::max(phases.computeUnits, phases.memUnits) + phases.fillUnits;
    computeBusy_ += phases.computeUnits;
    memBusy_ += phases.memUnits;
    prologue_ = std::max(prologue_, phases.fillUnits);
    if (!keep_)
        return;
    layers_.push_back(std::move(st));
    phases_.push_back(phases);
}

void
LayerWalk::add(LayerStats st, std::uint64_t bwBitsPerCycle,
               std::uint64_t fillCycles)
{
    st.memCycles =
        divCeil(st.dramLoadBits + st.dramStoreBits, bwBitsPerCycle);
    const LayerPhases phases{static_cast<double>(st.memCycles),
                             static_cast<double>(st.computeCycles),
                             static_cast<double>(fillCycles)};
    add(std::move(st), phases);
}

double
LayerWalk::finish(RunStats &rs)
{
    // Simple: layers serialize; each pays its own pipeline fill:
    // max(compute, mem) + fill, the seed-equivalent latency.
    //
    // Overlap: a double-buffered phase pipeline. Tile t's compute
    // overlaps tile t+1's load and tile t-1's drain, including across
    // layer boundaries, so each channel's exposed time is its total
    // busy time and the run is bound by the busier channel. The one
    // thing the pipeline cannot hide is its own fill: the deepest
    // per-layer prologue/epilogue, charged exactly once.
    const bool simple = model_ == TimingModel::Simple;
    const bool computeBound = computeBusy_ + prologue_ >= memBusy_;
    const double total = simple         ? simpleUnits_
                         : computeBound ? computeBusy_ + prologue_
                                        : memBusy_;

    // Per-layer exposed cycles. Under Overlap each layer gets its
    // share of the bottleneck channel (the prologue rides on the
    // first layer); they sum to ~totalCycles, which is authoritative.
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const LayerPhases &p = phases_[i];
        double units = p.memUnits;
        if (simple)
            units = std::max(p.computeUnits, p.memUnits) + p.fillUnits;
        else if (computeBound)
            units = i == 0 ? p.computeUnits + prologue_ : p.computeUnits;
        layers_[i].cycles =
            static_cast<std::uint64_t>(units * cyclesPerUnit_);
    }

    rs.totals = totals_;
    rs.layers = std::move(layers_);
    // A walk in cycles reports its total as is; one in seconds (the
    // GPU) converts at the header's clock in the seed's float order.
    rs.totalCycles = static_cast<std::uint64_t>(
        cyclesPerUnit_ == 1.0 ? total : total * rs.freqMHz * 1e6);
    return total;
}

AcceleratorConfig
sharedBufferConfig(unsigned rows, unsigned cols, std::uint64_t sramBits,
                   std::uint64_t bwBitsPerCycle, unsigned batch)
{
    AcceleratorConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.wbufBits = sramBits / 2;
    cfg.ibufBits = sramBits / 4;
    cfg.obufBits = sramBits / 4;
    cfg.bwBitsPerCycle = bwBitsPerCycle;
    cfg.batch = batch;
    return cfg;
}

void
planDramTraffic(LayerStats &st, const AcceleratorConfig &buffers,
                std::uint64_t m, std::uint64_t k, std::uint64_t n_total,
                std::uint64_t wBits, std::uint64_t iBits,
                std::uint64_t oBits, const FusionConfig &op)
{
    const Tiler tiler(buffers);
    const Tiling tile = tiler.chooseTiles(m, k, n_total, op);
    const LoopOrder order =
        tiler.chooseOrder(tile, m, k, n_total, wBits, iBits, oBits);
    st.dramLoadBits =
        Tiler::trafficBits(order, tile, m, k, n_total, wBits, iBits, 0);
    st.dramStoreBits = oBits;
}

} // namespace bitfusion
