/**
 * @file
 * Eyeriss baseline model (paper comparison point [1]).
 *
 * Eyeriss is a 12x14 (168 PE) row-stationary accelerator operating
 * on 16-bit operands at 500 MHz with 181.5 KB of on-chip SRAM and a
 * per-PE register file (Table III). The model reproduces the
 * characteristics the Fig. 13/14 comparisons depend on:
 *
 *  - mapping utilization of the row-stationary dataflow (filter rows
 *    vertically, output rows horizontally, replicated over channels;
 *    FC layers reuse weights across the batch dimension only);
 *  - fixed 16-bit operand traffic to SRAM and DRAM;
 *  - register-file traffic of ~4 accesses per MAC (input, weight,
 *    partial-sum read and write), the dominant energy term the
 *    paper's Fig. 14 shows.
 */

#ifndef BITFUSION_BASELINES_EYERISS_H
#define BITFUSION_BASELINES_EYERISS_H

#include "src/core/platform.h"
#include "src/core/platform_registry.h"
#include "src/core/stats.h"
#include "src/dnn/network.h"

namespace bitfusion {

/** Configuration of the Eyeriss platform model. */
struct EyerissConfig
{
    unsigned peRows = 12;
    unsigned peCols = 14;
    double freqMHz = 500.0;
    /** On-chip SRAM in bits (181.5 KB, Table III). */
    std::uint64_t sramBits = 181ULL * 1024 * 8 + 512 * 8;
    /** Operand width (bits). */
    unsigned operandBits = 16;
    /** Off-chip bandwidth, matched to Bit Fusion's default. */
    std::uint64_t bwBitsPerCycle = 128;
    unsigned batch = 16;

    unsigned totalPEs() const { return peRows * peCols; }

    bool
    operator==(const EyerissConfig &o) const
    {
        return peRows == o.peRows && peCols == o.peCols &&
               freqMHz == o.freqMHz && sramBits == o.sramBits &&
               operandBits == o.operandBits &&
               bwBitsPerCycle == o.bwBitsPerCycle && batch == o.batch;
    }
};

/** Analytical row-stationary simulator; the "eyeriss" Platform. */
class EyerissModel : public Platform
{
  public:
    explicit EyerissModel(const EyerissConfig &cfg = EyerissConfig{});

    using Platform::run;

    std::string name() const override { return "eyeriss-45nm"; }

    PlatformInfo describe() const override;

    /** Run a (regular-precision) network for one batch. */
    RunStats run(const Network &net,
                 const RunOptions &opts) const override;

    /** Mapping utilization of one layer (exposed for tests). */
    double utilization(const Layer &layer) const;

    const EyerissConfig &config() const { return cfg; }

  private:
    /** Time one MAC-array layer into @p walk. */
    void runLayer(const Layer &layer, LayerWalk &walk) const;

    EyerissConfig cfg;
    /** The single shared global buffer, split for the DRAM planner. */
    AcceleratorConfig buffers;
    /** SRAM pJ/bit of cfg.sramBits, fixed per platform. */
    double sramPjPerBit;
};

/** Eyeriss baseline spec (16-bit, runs the regular-width model). */
PlatformSpec eyerissPlatform(EyerissConfig cfg = {});

/** Register the "eyeriss" kind (called by builtin()). */
void registerEyerissPlatform(PlatformRegistry &r);

} // namespace bitfusion

#endif // BITFUSION_BASELINES_EYERISS_H
