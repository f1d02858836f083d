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

LayerWalk::LayerWalk(TimingModel model, double cyclesPerUnit)
    : model_(model), cyclesPerUnit_(cyclesPerUnit)
{
    BF_ASSERT(cyclesPerUnit > 0.0);
}

void
LayerWalk::reserve(std::size_t layers)
{
    layers_.reserve(layers);
    phases_.reserve(layers);
}

void
LayerWalk::add(LayerStats st, LayerPhases phases)
{
    layers_.push_back(std::move(st));
    phases_.push_back(phases);
}

void
LayerWalk::add(LayerStats st, std::uint64_t bwBitsPerCycle,
               std::uint64_t fillCycles)
{
    st.memCycles =
        divCeil(st.dramLoadBits + st.dramStoreBits, bwBitsPerCycle);
    phases_.push_back({static_cast<double>(st.memCycles),
                       static_cast<double>(st.computeCycles),
                       static_cast<double>(fillCycles)});
    layers_.push_back(std::move(st));
}

double
LayerWalk::finish(RunStats &rs)
{
    double total = 0.0;

    if (model_ == TimingModel::Simple) {
        // Layers serialize; each pays its own pipeline fill:
        // max(compute, mem) + fill, the seed-equivalent latency.
        for (std::size_t i = 0; i < layers_.size(); ++i) {
            const LayerPhases &p = phases_[i];
            const double units =
                std::max(p.computeUnits, p.memUnits) + p.fillUnits;
            layers_[i].cycles =
                static_cast<std::uint64_t>(units * cyclesPerUnit_);
            total += units;
        }
    } else {
        // Double-buffered phase pipeline: tile t's compute overlaps
        // tile t+1's load and tile t-1's drain, including across
        // layer boundaries, so each channel's exposed time is its
        // total busy time and the run is bound by the busier
        // channel. The one thing the pipeline cannot hide is its own
        // fill: the deepest per-layer prologue/epilogue, charged
        // exactly once.
        double computeBusy = 0.0, memBusy = 0.0, prologue = 0.0;
        for (const auto &p : phases_) {
            computeBusy += p.computeUnits;
            memBusy += p.memUnits;
            prologue = std::max(prologue, p.fillUnits);
        }
        const bool computeBound = computeBusy + prologue >= memBusy;
        total = computeBound ? computeBusy + prologue : memBusy;
        // Attribute each layer its share of the bottleneck channel
        // (the prologue rides on the first layer). Per-layer cycles
        // sum to ~totalCycles; totalCycles is authoritative.
        for (std::size_t i = 0; i < layers_.size(); ++i) {
            double units = computeBound ? phases_[i].computeUnits
                                        : phases_[i].memUnits;
            if (i == 0 && computeBound)
                units += prologue;
            layers_[i].cycles =
                static_cast<std::uint64_t>(units * cyclesPerUnit_);
        }
    }

    RunTotals sums;
    for (const LayerStats &l : layers_) {
        sums.energy += l.energy;
        sums.macs += l.macs;
        sums.dramLoadBits += l.dramLoadBits;
        sums.dramStoreBits += l.dramStoreBits;
    }
    rs.totals = sums;
    rs.layers = std::move(layers_);
    // A walk in cycles reports its total as is; one in seconds (the
    // GPU) converts at the header's clock in the seed's float order.
    rs.totalCycles = static_cast<std::uint64_t>(
        cyclesPerUnit_ == 1.0 ? total : total * rs.freqMHz * 1e6);
    layers_.clear();
    phases_.clear();
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
                std::uint64_t oBits, const FusionConfig &op,
                unsigned outBits)
{
    const Tiler tiler(buffers);
    const Tiling tile = tiler.chooseTiles(m, k, n_total, op, outBits);
    const LoopOrder order =
        tiler.chooseOrder(tile, m, k, n_total, wBits, iBits, oBits);
    st.dramLoadBits =
        Tiler::trafficBits(order, tile, m, k, n_total, wBits, iBits, 0);
    st.dramStoreBits = oBits;
}

} // namespace bitfusion
