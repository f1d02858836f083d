/**
 * @file
 * Stripes baseline model (paper comparison point [2]).
 *
 * Stripes executes DNNs with bit-serial arithmetic on the weight
 * side: activations are 16-bit parallel, weights stream one bit per
 * cycle through Serial Inner-Product units (SIPs), so runtime scales
 * with the weight bitwidth while input bitwidth gives no benefit.
 * Following §V-A, the comparison is tile-for-tile: one Stripes tile
 * (4096 SIPs) occupies the same 1.1 mm^2 the 512-Fusion-Unit array
 * does, with the same on-chip memory and off-chip bandwidth.
 */

#ifndef BITFUSION_BASELINES_STRIPES_H
#define BITFUSION_BASELINES_STRIPES_H

#include "src/core/platform.h"
#include "src/core/platform_registry.h"
#include "src/core/stats.h"
#include "src/dnn/network.h"

namespace bitfusion {

/** Configuration of the Stripes tile model. */
struct StripesConfig
{
    /** SIPs per tile (Table III). */
    unsigned sips = 4096;
    /** Parallel 1-bit weight lanes per inner product. */
    unsigned lanesPerSip = 16;
    /** Parallel output windows per tile (Stripes processes 16
     *  filters x 16 windows x 16 reduction lanes per cycle). */
    unsigned windows = 16;
    /** Fixed activation bitwidth. */
    unsigned actBits = 16;
    /** Stripes frequency (Table III). */
    double freqMHz = 980.0;
    /** Data-parallel tiles sharing the DRAM interface. */
    unsigned tiles = 16;
    /** On-chip storage per tile, matched to the Bit Fusion array. */
    std::uint64_t sramBits = 112ULL * 1024 * 8;
    std::uint64_t bwBitsPerCycle = 256;
    unsigned batch = 16;

    /** Output (filter) parallelism of the tile. */
    unsigned mParallel() const { return sips / lanesPerSip / windows; }
    /** Reduction parallelism of the tile. */
    unsigned kParallel() const { return lanesPerSip; }
    /** Streaming (window) parallelism of the tile. */
    unsigned nParallel() const { return windows; }

    bool
    operator==(const StripesConfig &o) const
    {
        return sips == o.sips && lanesPerSip == o.lanesPerSip &&
               windows == o.windows && actBits == o.actBits &&
               freqMHz == o.freqMHz && tiles == o.tiles &&
               sramBits == o.sramBits &&
               bwBitsPerCycle == o.bwBitsPerCycle && batch == o.batch;
    }
};

/** Analytical bit-serial tile simulator; the "stripes" Platform. */
class StripesModel : public Platform
{
  public:
    explicit StripesModel(const StripesConfig &cfg = StripesConfig{});

    using Platform::run;

    std::string name() const override { return "stripes-45nm"; }

    PlatformInfo describe() const override;

    /**
     * Run a quantized network for one batch. Weight bitwidths come
     * from the per-layer fusion configs; activations execute at the
     * fixed 16-bit width regardless of the model's activation
     * quantization (the defining Stripes limitation).
     */
    RunStats run(const Network &net,
                 const RunOptions &opts) const override;

    /** Peak MACs/cycle at a weight bitwidth (exposed for tests). */
    double peakMacsPerCycle(unsigned w_bits) const;

    const StripesConfig &config() const { return cfg; }

  private:
    /** Time one MAC-array layer into @p walk. */
    void runLayer(const Layer &layer, LayerWalk &walk) const;

    StripesConfig cfg;
    /** One tile's SRAM as a shared buffer, for the DRAM planner. */
    AcceleratorConfig buffers;
    /** SRAM pJ/bit of cfg.sramBits, fixed per platform. */
    double sramPjPerBit;
};

/** Stripes baseline spec (runs the quantized model, per Fig. 18). */
PlatformSpec stripesPlatform(StripesConfig cfg = {});

/** Register the "stripes" kind (called by builtin()). */
void registerStripesPlatform(PlatformRegistry &r);

} // namespace bitfusion

#endif // BITFUSION_BASELINES_STRIPES_H
