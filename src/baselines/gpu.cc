#include "src/baselines/gpu.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/logging.h"

namespace bitfusion {

GpuSpec
GpuSpec::tegraX2Fp32()
{
    // 256 CUDA cores x 875 MHz (Table III) x 1 MAC/core/cycle.
    // 15 W: Tegra X2 max-P board budget (Fig. 17 energy bars).
    return GpuSpec{"tegra-x2-fp32", 256.0 * 875e6, 58e9, 4.0,
                   8192.0, 20e-6, 0.75, 15.0};
}

GpuSpec
GpuSpec::titanXpFp32()
{
    // 3584 CUDA cores x 1531 MHz.
    // 250 W TDP; INT8 inherits it (same board, same power rail).
    return GpuSpec{"titan-xp-fp32", 3584.0 * 1531e6, 547e9, 4.0,
                   131072.0, 8e-6, 0.75, 250.0};
}

GpuSpec
GpuSpec::titanXpInt8()
{
    // dp4a: 4x the FP32 math rate; INT8 kernels are somewhat less
    // efficient (quantize/dequantize epilogues).
    GpuSpec s = titanXpFp32();
    s.name = "titan-xp-int8";
    s.peakMacsPerSec *= 4.0;
    s.bytesPerElem = 1.0;
    // TensorRT INT8 kernels reach a smaller fraction of the dp4a
    // peak (quantize/dequantize epilogues, alignment); calibrated so
    // INT8 lands ~1.6x over FP32 end to end, as the paper measures.
    s.efficiency = 0.30;
    return s;
}

PlatformSpec
gpuPlatform(GpuSpec gpuSpec)
{
    PlatformSpec spec;
    spec.name = gpuSpec.name;
    spec.kind = "gpu";
    spec.config = PlatformConfig::wrap(std::move(gpuSpec));
    spec.runsQuantized = false;
    // GpuSpec carries no batch field; the model runs at the paper's
    // batch 16 unless the spec says otherwise.
    spec.batch = kGpuDefaultBatch;
    return spec;
}

void
registerGpuPlatform(PlatformRegistry &r)
{
    r.add({"gpu", "tegra-x2-fp32 | titan-xp-fp32 | titan-xp-int8",
           "TensorRT roofline baselines (Fig. 17); needs a variant",
           [](const std::string &variant) -> std::optional<PlatformSpec> {
               const std::string v = canonicalVariant(variant);
               if (v == "tegrax2fp32" || v == "tegrax2")
                   return gpuPlatform(GpuSpec::tegraX2Fp32());
               if (v == "titanxpfp32")
                   return gpuPlatform(GpuSpec::titanXpFp32());
               if (v == "titanxpint8")
                   return gpuPlatform(GpuSpec::titanXpInt8());
               return std::nullopt;
           },
           [](const PlatformSpec &spec) -> std::unique_ptr<Platform> {
               return std::make_unique<GpuModel>(
                   spec.config.as<GpuSpec>(), spec.batch);
           }});
}

GpuModel::GpuModel(GpuSpec spec, unsigned batch)
    : _spec(std::move(spec)), batch(batch)
{
    BF_ASSERT(batch > 0);
}

PlatformInfo
GpuModel::describe() const
{
    PlatformInfo info;
    info.name = _spec.name;
    info.kind = "gpu";
    info.compute = std::to_string(static_cast<long long>(
                       _spec.peakMacsPerSec / 1e9)) +
                   " Gmac/s roofline";
    info.freqMHz = 1000.0; // cycles reported as nanoseconds
    info.batch = batch;
    return info;
}

void
GpuModel::runLayer(const Layer &layer, LayerWalk &walk) const
{
    const auto gemm = layer.gemmShape();
    const double macs = static_cast<double>(layer.macsPerSample()) * batch;

    // Occupancy: one thread per output element is the natural GEMM
    // parallelization.
    const double n_total = static_cast<double>(gemm.n) * batch;
    const double threads = static_cast<double>(gemm.m) * n_total;
    const double occupancy = std::min(1.0, threads / _spec.occupancyKnee);

    const double compute_sec =
        macs / (_spec.peakMacsPerSec * _spec.efficiency * occupancy);
    const double bytes = (static_cast<double>(layer.weightCount()) +
                          static_cast<double>(layer.inputCount()) * batch +
                          static_cast<double>(layer.outputCount()) * batch) *
                         _spec.bytesPerElem;
    const double mem_sec = bytes / _spec.memBytesPerSec;

    LayerStats st;
    if (walk.keeps()) {
        st.name = layer.name;
        st.config = _spec.name;
    }
    st.macs = static_cast<std::uint64_t>(macs);
    st.computeCycles = static_cast<std::uint64_t>(compute_sec * 1e9);
    st.memCycles = static_cast<std::uint64_t>(mem_sec * 1e9);
    st.utilization = occupancy;

    // Board power x wall time, using the Simple-timing layer latency
    // so the energy column never depends on --timing (a board burns
    // power while the kernel runs either way).
    const double layer_sec =
        std::max(compute_sec, mem_sec) + _spec.launchOverheadSec;
    st.energy.computeJ = _spec.boardPowerW * layer_sec;

    // Kernel-launch overhead is the per-layer pipeline fill; the
    // Overlap model hides all but one launch (CUDA streams).
    walk.add(std::move(st),
             LayerPhases{mem_sec, compute_sec, _spec.launchOverheadSec});
}

RunStats
GpuModel::run(const Network &net, const RunOptions &opts) const
{
    // Phase times are in seconds, reported as 1 GHz pseudo-cycles
    // (nanoseconds).
    return walkLayers(_spec.name, net.name(), batch, 1000.0, net.layers(),
                      opts.timing, opts.perLayer,
                      [this](const Layer &layer, LayerWalk &walk) {
                          runLayer(layer, walk);
                      },
                      1e9);
}

} // namespace bitfusion
