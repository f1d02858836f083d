/**
 * @file
 * The Bit Fusion performance/energy simulator.
 *
 * Consumes compiled networks (Fusion-ISA blocks plus schedules) and
 * produces per-layer cycle counts and buffer/DRAM access counts,
 * mirroring the methodology of §V-A: compute timing from the
 * systolic mapping, off-chip transfers double-buffered against
 * compute and bounded by the configured bits/cycle.
 */

#ifndef BITFUSION_SIM_SIMULATOR_H
#define BITFUSION_SIM_SIMULATOR_H

#include "src/compiler/schedule.h"
#include "src/core/platform.h"
#include "src/core/stats.h"
#include "src/sim/config.h"
#include "src/sim/systolic.h"

namespace bitfusion {

/**
 * Cycle-level simulator for the Bit Fusion accelerator; the
 * "bitfusion" Platform implementation.
 *
 * Thread safety: run()/compile() are const,
 * deterministic, and touch no global or mutable state, so one
 * instance may be shared across threads and distinct instances never
 * interfere. The sweep runner (src/runner) relies on this; keep new
 * simulator state per-call or per-instance-const.
 */
class Simulator : public Platform
{
  public:
    explicit Simulator(const AcceleratorConfig &cfg);

    using Platform::run;

    /** Canonical name (the configuration's name). */
    std::string name() const override { return cfg.name; }

    PlatformInfo describe() const override;

    /**
     * Compilation identity: the config's compile-relevant fields,
     * formatted once at construction.
     */
    std::string compileKey() const override { return key; }

    /** Compile @p net to Fusion ISA + schedules (cacheable). */
    PlatformArtifactPtr compile(const Network &net) const override;

    /** Compile (or reuse opts.artifact) and simulate one batch. */
    RunStats run(const Network &net,
                 const RunOptions &opts) const override;

    /**
     * Simulate a compiled network for one batch; without
     * @p perLayer the result keeps no per-layer records.
     */
    RunStats run(const CompiledNetwork &net,
                 TimingModel timing = TimingModel::Simple,
                 bool perLayer = true) const;

    const AcceleratorConfig &config() const { return cfg; }

  private:
    /** Time one schedule into @p walk, on the array or aux units. */
    void runMacLayer(const LayerSchedule &sched, LayerWalk &walk) const;
    void runAuxLayer(const LayerSchedule &sched, LayerWalk &walk) const;

    AcceleratorConfig cfg;
    SystolicArray array;
    /** cfg.compileKey(), built eagerly so reads stay const. */
    std::string key;
    /** SRAM pJ/bit of the whole on-chip capacity (45 nm). */
    double sramPjPerBit = 0.0;
};

} // namespace bitfusion

#endif // BITFUSION_SIM_SIMULATOR_H
