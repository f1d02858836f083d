/**
 * @file
 * Result structures shared by the Bit Fusion simulator and the
 * baseline platform models: per-layer and per-run cycle counts,
 * traffic, and the per-component energy breakdown of Fig. 14.
 */

#ifndef BITFUSION_CORE_STATS_H
#define BITFUSION_CORE_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace bitfusion {

/** Energy split by hardware component (joules per batch). */
struct ComponentEnergy
{
    double computeJ = 0.0;
    double bufferJ = 0.0; ///< On-chip SRAM scratchpads.
    double rfJ = 0.0;     ///< Register files (Eyeriss PEs).
    double dramJ = 0.0;

    double
    totalJ() const
    {
        return computeJ + bufferJ + rfJ + dramJ;
    }

    ComponentEnergy &
    operator+=(const ComponentEnergy &o)
    {
        computeJ += o.computeJ;
        bufferJ += o.bufferJ;
        rfJ += o.rfJ;
        dramJ += o.dramJ;
        return *this;
    }
};

/** Per-layer (per-schedule) execution statistics, per batch. */
struct LayerStats
{
    std::string name;
    /** Bitwidth configuration string (e.g. "4b/1b"). */
    std::string config;
    /** Multiply-adds executed (whole batch). */
    std::uint64_t macs = 0;
    /** Cycles the compute fabric is busy. */
    std::uint64_t computeCycles = 0;
    /** Cycles the DRAM interface is busy. */
    std::uint64_t memCycles = 0;
    /** Layer latency in cycles (compute/memory overlapped). */
    std::uint64_t cycles = 0;
    /** DRAM bits moved in (loads). */
    std::uint64_t dramLoadBits = 0;
    /** DRAM bits moved out (stores). */
    std::uint64_t dramStoreBits = 0;
    /** On-chip buffer traffic in bits (IBUF/WBUF/OBUF or global). */
    std::uint64_t sramBits = 0;
    /** Register-file traffic in bits (Eyeriss-style PEs). */
    std::uint64_t rfBits = 0;
    /** Compute-array utilization during computeCycles (0..1). */
    double utilization = 0.0;
    /** Energy breakdown for this layer. */
    ComponentEnergy energy;
};

/** Sums of a run's per-layer stats, per batch. */
struct RunTotals
{
    /** Summed in layer order, so it is bit-identical to a re-sum. */
    ComponentEnergy energy;
    std::uint64_t macs = 0;
    std::uint64_t dramLoadBits = 0;
    std::uint64_t dramStoreBits = 0;
};

/** Whole-run statistics for one (platform, network, batch) triple. */
struct RunStats
{
    std::string platform;
    std::string network;
    unsigned batch = 1;
    /**
     * Per-layer detail. A run without RunOptions::perLayer (a sweep
     * without SweepOptions::perLayer) never builds it and leaves it
     * empty; the run-level numbers below and in totals are the same
     * either way.
     */
    std::vector<LayerStats> layers;
    /** The layers' sums, set by LayerWalk::finish. */
    RunTotals totals;

    /** Total latency in cycles for one batch. */
    std::uint64_t totalCycles = 0;
    /** Clock frequency used to convert cycles to time (MHz). */
    double freqMHz = 0.0;

    /** Seconds per batch. */
    double
    seconds() const
    {
        return static_cast<double>(totalCycles) / (freqMHz * 1e6);
    }

    /** Seconds per sample. */
    double
    secondsPerSample() const
    {
        return seconds() / batch;
    }

    /** Summed energy per batch. */
    ComponentEnergy
    energy() const
    {
        return totals.energy;
    }

    /** Energy per sample in joules. */
    double
    energyPerSampleJ() const
    {
        return energy().totalJ() / batch;
    }

    /** Total MACs per batch. */
    std::uint64_t
    totalMacs() const
    {
        return totals.macs;
    }
};

} // namespace bitfusion

#endif // BITFUSION_CORE_STATS_H
