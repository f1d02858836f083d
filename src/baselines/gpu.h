/**
 * @file
 * GPU baseline models for the Fig. 17 comparison: Tegra X2 (FP32)
 * and Titan Xp (FP32 and INT8), per the Table III parameters.
 *
 * The paper measures TensorRT on physical boards; we substitute a
 * roofline model per layer -- time is the max of the compute roof
 * (peak ops scaled by an occupancy-style utilization) and the memory
 * roof (bytes over bandwidth) plus a fixed kernel-launch overhead.
 * The roofline reproduces exactly the effects Fig. 17 turns on:
 * small recurrent models underutilize the big GPU, INT8 packs 4x
 * the math but only helps compute-bound layers.
 */

#ifndef BITFUSION_BASELINES_GPU_H
#define BITFUSION_BASELINES_GPU_H

#include <string>

#include "src/core/platform.h"
#include "src/core/platform_registry.h"
#include "src/core/stats.h"
#include "src/dnn/network.h"

namespace bitfusion {

/** Default inference batch for the GPU models (paper batch 16). */
constexpr unsigned kGpuDefaultBatch = 16;

/** One GPU platform (Table III). */
struct GpuSpec
{
    std::string name;
    /** Peak multiply-add throughput, MACs per second. */
    double peakMacsPerSec;
    /** Off-chip bandwidth, bytes per second. */
    double memBytesPerSec;
    /** Bytes per operand element (4 = FP32, 1 = INT8). */
    double bytesPerElem;
    /** Threads needed to reach peak (occupancy knee). */
    double occupancyKnee;
    /** Per-layer kernel launch overhead, seconds. */
    double launchOverheadSec;
    /** Throughput derating for non-ideal kernels. */
    double efficiency;
    /** Board power while a kernel runs, watts (energy = P x t). */
    double boardPowerW;

    /** Tegra X2, FP32 (256 cores @ 875 MHz nominal, ~58 GB/s). */
    static GpuSpec tegraX2Fp32();
    /** Titan Xp, FP32 (3584 cores @ 1531 MHz, 547 GB/s). */
    static GpuSpec titanXpFp32();
    /** Titan Xp, INT8 dp4a (4x FP32 math rate). */
    static GpuSpec titanXpInt8();

    bool
    operator==(const GpuSpec &o) const
    {
        return name == o.name && peakMacsPerSec == o.peakMacsPerSec &&
               memBytesPerSec == o.memBytesPerSec &&
               bytesPerElem == o.bytesPerElem &&
               occupancyKnee == o.occupancyKnee &&
               launchOverheadSec == o.launchOverheadSec &&
               efficiency == o.efficiency && boardPowerW == o.boardPowerW;
    }
};

/** Roofline executor for a GPU spec; the "gpu" Platform. */
class GpuModel : public Platform
{
  public:
    explicit GpuModel(GpuSpec spec, unsigned batch = kGpuDefaultBatch);

    using Platform::run;

    std::string name() const override { return _spec.name; }

    PlatformInfo describe() const override;

    /** Run a network for one batch; energy is board power x time. */
    RunStats run(const Network &net,
                 const RunOptions &opts) const override;

    const GpuSpec &spec() const { return _spec; }

  private:
    /** Time one MAC-array layer into @p walk, in seconds. */
    void runLayer(const Layer &layer, LayerWalk &walk) const;

    GpuSpec _spec;
    unsigned batch;
};

/** GPU baseline spec (runs the regular-width model, per §V-A). */
PlatformSpec gpuPlatform(GpuSpec spec);

/** Register the "gpu" kind (called by builtin()). */
void registerGpuPlatform(PlatformRegistry &r);

} // namespace bitfusion

#endif // BITFUSION_BASELINES_GPU_H
