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
 * The walk also hosts the DRAM traffic planner shared by the
 * baseline models (tile selection and loop ordering over a single
 * shared scratchpad), so every platform accounts off-chip traffic
 * with the same methodology (paper Section V-A).
 */

#ifndef BITFUSION_CORE_LAYER_WALK_H
#define BITFUSION_CORE_LAYER_WALK_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/compiler/tiling.h"
#include "src/core/stats.h"
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
 * their serialized sum (memUnits); fromBits() is the explicit
 * load/drain entry point.
 */
struct LayerPhases
{
    /**
     * Load + drain phases on the shared DRAM channel. Platforms
     * compute this from raw bit counts so integer rounding matches
     * the seed models exactly.
     */
    double memUnits = 0.0;
    /** Compute phase on the platform's compute fabric. */
    double computeUnits = 0.0;
    /**
     * Fixed pipeline-fill cost (systolic array fill, kernel launch).
     * Charged per layer under Simple; the deepest single fill is
     * charged once per run under Overlap.
     */
    double fillUnits = 0.0;

    /**
     * Phases from raw bit counts: the load and drain phases at @p
     * bwBitsPerCycle, with memUnits using the seed models' combined
     * divCeil rounding.
     */
    static LayerPhases fromBits(std::uint64_t computeCycles,
                                std::uint64_t loadBits,
                                std::uint64_t storeBits,
                                std::uint64_t bwBitsPerCycle,
                                std::uint64_t fillCycles);
};

/**
 * Accumulates per-layer stats and phase times into a RunStats under
 * one TimingModel. All four platform models drive their layer loop
 * through this walk, so the timing composition (and the figures'
 * --timing switch) behaves identically everywhere.
 *
 * Unit handling: phase times arrive in a platform-chosen unit;
 * @p cyclesPerUnit converts them to reported cycles (1.0 for the
 * ASIC models, 1e9 for the GPU's seconds).
 */
class LayerWalk
{
  public:
    explicit LayerWalk(TimingModel model, double cyclesPerUnit = 1.0);

    /**
     * Size the walk for up to @p layers add() calls, so a run's
     * stats grow without reallocating. Every platform's run knows
     * its layer count before the loop.
     */
    void reserve(std::size_t layers);

    /**
     * Append one layer. @p st carries name/traffic/energy/
     * utilization; the walk assigns st.cycles when the run finishes.
     */
    void add(LayerStats st, const LayerPhases &phases);

    /** Seed-equivalent single-layer latency: max(compute, mem) + fill. */
    static double simpleUnits(const LayerPhases &phases);

    /**
     * Finish the walk: assigns per-layer exposed cycles, moves the
     * layers into @p rs, and sets rs.totalCycles. Returns the run
     * total in walk units (the GPU model re-derives totalCycles from
     * this to preserve the seed's exact float ordering).
     */
    double finish(RunStats &rs);

    TimingModel model() const { return model_; }

  private:
    TimingModel model_;
    double cyclesPerUnit_;
    std::vector<LayerStats> layers_;
    std::vector<LayerPhases> phases_;
};

/** Off-chip traffic plan of one layer GEMM. */
struct TrafficPlan
{
    std::uint64_t loadBits = 0;
    std::uint64_t storeBits = 0;
    Tiling tile;
    LoopOrder order = LoopOrder::InputStationary;
};

/**
 * A single shared scratchpad split the way the baseline models use
 * it: half for weights, a quarter each for activations in and out.
 */
AcceleratorConfig sharedBufferConfig(unsigned rows, unsigned cols,
                                     std::uint64_t sramBits,
                                     std::uint64_t bwBitsPerCycle,
                                     unsigned batch);

/**
 * Plan DRAM traffic of a (m, k, n_total) GEMM with the same tiling
 * and loop-ordering reuse logic the Bit Fusion compiler applies:
 * choose tiles that fit @p buffers, pick the cheaper loop order, and
 * return the resulting load traffic plus the single-copy store
 * traffic. Shared by the Eyeriss and Stripes baselines.
 */
TrafficPlan planDramTraffic(const AcceleratorConfig &buffers,
                            std::uint64_t m, std::uint64_t k,
                            std::uint64_t n_total, std::uint64_t wBits,
                            std::uint64_t iBits, std::uint64_t oBits,
                            const FusionConfig &op, unsigned outBits);

} // namespace bitfusion

#endif // BITFUSION_CORE_LAYER_WALK_H
