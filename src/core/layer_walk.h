/**
 * @file
 * The shared phase-level memory pipeline every platform model walks.
 *
 * Each layer of a run decomposes into three phases on two hardware
 * channels: a DRAM *load* phase and a *drain* phase on the shared
 * off-chip channel, and a *compute* phase on the platform's compute
 * fabric, executed over double-buffered tiles. How phase times
 * compose into latency is a single run-wide decision, the
 * TimingModel:
 *
 *  - Simple: the seed-equivalent per-layer approximation. Each
 *    layer's latency is max(compute, mem) plus the layer's fixed
 *    pipeline-fill cost, and layers serialize. This is what every
 *    paper figure is calibrated against.
 *
 *  - Overlap: the phase-level double-buffered pipeline. While tile t
 *    computes, tile t+1 loads and tile t-1 drains; the same handoff
 *    happens across layer boundaries, so a compute-bound layer
 *    prefetches its memory-bound successor's tiles. With uniform
 *    tiles the exposed time collapses to the busier channel's total
 *    busy time, and the only cycles the pipeline cannot hide are one
 *    prologue/epilogue: the deepest single pipeline fill, charged
 *    once per run instead of once per layer. Overlap therefore never
 *    exceeds Simple: per run,
 *    max(sum C + maxFill, sum M) <= sum(max(C_l, M_l) + fill_l).
 *
 * Every model runs its layers through walkLayers(). The walk also
 * hosts the DRAM traffic planner shared by the baseline models (tile
 * selection and loop ordering over a single shared scratchpad), so
 * every platform accounts off-chip traffic with the same methodology
 * (paper Section V-A).
 */

#ifndef BITFUSION_CORE_LAYER_WALK_H
#define BITFUSION_CORE_LAYER_WALK_H

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/compiler/tiling.h"
#include "src/core/stats.h"
#include "src/dnn/layer.h"
#include "src/sim/config.h"

namespace bitfusion {

/** How per-layer phase times compose into run latency. */
enum class TimingModel
{
    Simple, ///< Seed-equivalent: per-layer max(compute, mem) + fill.
    Overlap ///< Double-buffered phase pipeline across tiles and layers.
};

/** CLI name of a timing model ("simple" / "overlap"). */
const char *toString(TimingModel model);

/** Parse a --timing value; returns false on an unknown name. */
bool parseTimingModel(const std::string &name, TimingModel &out);

/**
 * CLI glue shared by the two CLIs (tools/): parse the value
 * following argv[i] as a timing model and advance i; prints a
 * diagnostic and exits with the usage status (2) on a missing or
 * unknown name.
 */
TimingModel timingArg(int argc, char **argv, int &i);

/**
 * One layer's phase times, in a platform-chosen unit (cycles for the
 * ASIC models, seconds for the GPU roofline). The load and drain
 * phases share one DRAM channel, so they enter the composition as
 * their serialized sum (memUnits).
 */
struct LayerPhases
{
    /** Load + drain phases on the shared DRAM channel. */
    double memUnits = 0.0;
    /** Compute phase on the platform's compute fabric. */
    double computeUnits = 0.0;
    /**
     * Fixed pipeline-fill cost (systolic array fill, kernel launch).
     * Charged per layer under Simple; the deepest single fill is
     * charged once per run under Overlap.
     */
    double fillUnits = 0.0;
};

/**
 * Accumulates per-layer stats and phase times into a RunStats under
 * one TimingModel. All six platform models drive their layer loop
 * through this walk, so the timing composition (and the figures'
 * --timing switch) behaves identically everywhere.
 *
 * Every run-level sum (the RunTotals, the Simple total, the Overlap
 * channel busy times and prologue) is accumulated in add(), in layer
 * order, whether or not the walk keeps per-layer records, so a run's
 * totals are bit-identical either way. A walk that keeps no records
 * (@p keepLayers false, a sweep without --per-layer) allocates
 * nothing per layer; models skip formatting the record labels then
 * (keeps()).
 *
 * Unit handling: phase times arrive in a platform-chosen unit;
 * @p cyclesPerUnit converts them to reported cycles (1.0 for the
 * ASIC models, 1e9 for the GPU's seconds).
 */
class LayerWalk
{
  public:
    explicit LayerWalk(TimingModel model, double cyclesPerUnit = 1.0,
                       bool keepLayers = true);

    /** Whether finish() hands per-layer records to the RunStats. */
    bool keeps() const { return keep_; }

    /**
     * Size the walk for up to @p layers add() calls, so a run's
     * stats grow without reallocating. Nothing to size without
     * records.
     */
    void reserve(std::size_t layers);

    /**
     * Append one layer. @p st carries name/traffic/energy/
     * utilization; the walk assigns st.cycles when the run finishes.
     */
    void add(LayerStats st, LayerPhases phases);

    /**
     * Append one cycle-domain layer, the DRAM-to-phase rule of every
     * ASIC model: st.memCycles = divCeil(dramLoadBits + dramStoreBits,
     * @p bwBitsPerCycle), one combined rounding as in the seed models,
     * and the phases are (computeCycles, memCycles, @p fillCycles).
     */
    void add(LayerStats st, std::uint64_t bwBitsPerCycle,
             std::uint64_t fillCycles);

    /**
     * Finish the walk: sets rs.totals and rs.totalCycles (for a walk
     * in seconds, at rs.freqMHz) and, when the walk keeps records,
     * assigns per-layer exposed cycles and moves the layers into
     * @p rs. Returns the run total in walk units. A walk finishes
     * once.
     */
    double finish(RunStats &rs);

  private:
    TimingModel model_;
    double cyclesPerUnit_;
    bool keep_;
    RunTotals totals_;
    /** Simple: sum of max(compute, mem) + fill. */
    double simpleUnits_ = 0.0;
    /** Overlap: per-channel busy sums and the deepest fill. */
    double computeBusy_ = 0.0;
    double memBusy_ = 0.0;
    double prologue_ = 0.0;
    std::vector<LayerStats> layers_;
    std::vector<LayerPhases> phases_;
};

/**
 * The one layer loop of every platform model: walks @p items (a
 * network's layers or a compiled network's schedules) under @p
 * timing, calling @p addLayer(item, walk) for each. Network layers
 * off the MAC array are skipped: the baselines fold pooling and
 * activation into the producing layer's dataflow. Without
 * @p perLayer the run keeps no per-layer records (RunStats::layers
 * stays empty) and its totals are unchanged.
 */
template <typename Item, typename AddLayer>
RunStats
walkLayers(std::string platform, std::string network, unsigned batch,
           double freqMHz, const std::vector<Item> &items,
           TimingModel timing, bool perLayer, AddLayer &&addLayer,
           double cyclesPerUnit = 1.0)
{
    RunStats rs;
    rs.platform = std::move(platform);
    rs.network = std::move(network);
    rs.batch = batch;
    rs.freqMHz = freqMHz;
    LayerWalk walk(timing, cyclesPerUnit, perLayer);
    walk.reserve(items.size());
    for (const Item &item : items) {
        if constexpr (std::is_same_v<Item, Layer>) {
            if (!item.usesMacArray())
                continue;
        }
        addLayer(item, walk);
    }
    walk.finish(rs);
    return rs;
}

/**
 * A single shared scratchpad split the way the baseline models use
 * it: half for weights, a quarter each for activations in and out.
 */
AcceleratorConfig sharedBufferConfig(unsigned rows, unsigned cols,
                                     std::uint64_t sramBits,
                                     std::uint64_t bwBitsPerCycle,
                                     unsigned batch);

/**
 * Charge the DRAM traffic of a (m, k, n_total) GEMM to @p st, planned
 * with the same tiling and loop-ordering reuse logic the Bit Fusion
 * compiler applies: choose tiles that fit @p buffers, pick the
 * cheaper loop order, and set st.dramLoadBits to the resulting load
 * traffic and st.dramStoreBits to the single-copy store of @p oBits.
 * Shared by the Eyeriss, Stripes, MXU and DianNao baselines.
 */
void planDramTraffic(LayerStats &st, const AcceleratorConfig &buffers,
                     std::uint64_t m, std::uint64_t k,
                     std::uint64_t n_total, std::uint64_t wBits,
                     std::uint64_t iBits, std::uint64_t oBits,
                     const FusionConfig &op);

} // namespace bitfusion

#endif // BITFUSION_CORE_LAYER_WALK_H
