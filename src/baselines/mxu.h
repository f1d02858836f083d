/**
 * @file
 * TPU-v1-class weight-stationary matrix unit (MXU) baseline.
 *
 * The design point is a large square systolic array of 8-bit MACs
 * holding a weight tile stationary while activations stream through:
 * a k x m weight tile loads once, then n activations flow in and
 * partial sums drain after an array-depth pipeline fill. Runtime is
 * dominated by weight-tile reloads whenever the GEMM exceeds the
 * array (the TPU-v1 "big matrix or bust" effect), which is exactly
 * the contrast with Bit Fusion's fusible small-tile fabric: the MXU
 * wins on large uniform 8-bit GEMMs and strands silicon on the small
 * recurrent layers the paper's benchmark suite emphasizes.
 *
 * Registered as the "mxu" kind through the same PlatformRegistry
 * door an out-of-tree backend uses; core headers do not know it.
 */

#ifndef BITFUSION_BASELINES_MXU_H
#define BITFUSION_BASELINES_MXU_H

#include "src/core/platform.h"
#include "src/core/platform_registry.h"
#include "src/core/stats.h"
#include "src/dnn/network.h"

namespace bitfusion {

/** Configuration of the weight-stationary MXU model. */
struct MxuConfig
{
    std::string name = "mxu-v1";
    /** Array rows (reduction dimension; weights load down rows). */
    unsigned rows = 256;
    /** Array columns (output-channel dimension). */
    unsigned cols = 256;
    double freqMHz = 700.0;
    /** Operand width; the MXU is a fixed 8-bit design. */
    unsigned operandBits = 8;
    /** Unified activation/accumulator buffer in bits (24 MiB). */
    std::uint64_t sramBits = 24ULL * 1024 * 1024 * 8;
    std::uint64_t bwBitsPerCycle = 384;
    unsigned batch = 16;

    unsigned totalMacs() const { return rows * cols; }

    bool
    operator==(const MxuConfig &o) const
    {
        return name == o.name && rows == o.rows && cols == o.cols &&
               freqMHz == o.freqMHz && operandBits == o.operandBits &&
               sramBits == o.sramBits &&
               bwBitsPerCycle == o.bwBitsPerCycle && batch == o.batch;
    }

    /** The datacenter design point (256x256, 24 MiB, 700 MHz). */
    static MxuConfig v1();
    /** An edge-scale cut (64x64, 2 MiB, narrower DRAM). */
    static MxuConfig edge();
};

/** Analytical weight-stationary simulator; the "mxu" Platform. */
class MxuModel : public Platform
{
  public:
    explicit MxuModel(const MxuConfig &cfg = MxuConfig{});

    using Platform::run;

    std::string name() const override { return cfg.name; }

    PlatformInfo describe() const override;

    /** Run a quantized (8-bit) network for one batch. */
    RunStats run(const Network &net,
                 const RunOptions &opts) const override;

    const MxuConfig &config() const { return cfg; }

  private:
    /** Time one MAC-array layer into @p walk. */
    void runLayer(const Layer &layer, LayerWalk &walk) const;

    MxuConfig cfg;
    /** The unified buffer, split for the DRAM planner. */
    AcceleratorConfig buffers;
    /** SRAM pJ/bit of cfg.sramBits, fixed per platform. */
    double sramPjPerBit;
};

/** MXU spec (runs the quantized model variant). */
PlatformSpec mxuPlatform(MxuConfig cfg = {});

/** Register the "mxu" kind (called by builtin()). */
void registerMxuPlatform(PlatformRegistry &r);

} // namespace bitfusion

#endif // BITFUSION_BASELINES_MXU_H
