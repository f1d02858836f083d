/**
 * @file
 * The Platform interface: one contract for every simulated machine.
 *
 * The paper's headline results are cross-platform comparisons
 * (Bit Fusion vs. Eyeriss, Stripes, and the GPUs), so the comparison
 * machinery is first-class architecture: every platform model --
 * Simulator, EyerissModel, StripesModel, GpuModel, MxuModel,
 * DianNaoModel, and any future backend -- implements this interface,
 * runs its layers through the one walkLayers loop and the shared
 * LayerWalk phase pipeline (core/layer_walk.h), and is constructed
 * uniformly from a PlatformSpec by the PlatformRegistry
 * (core/platform_registry.h). The sweep runner, figures, and CLI
 * only ever see Platform, so a new backend is a plug-in that holds
 * only its own arithmetic.
 */

#ifndef BITFUSION_CORE_PLATFORM_H
#define BITFUSION_CORE_PLATFORM_H

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/layer_walk.h"
#include "src/core/stats.h"
#include "src/dnn/network.h"

namespace bitfusion {

/** Static description of a platform instance (Table III row). */
struct PlatformInfo
{
    /** Canonical platform name (matches Platform::name()). */
    std::string name;
    /**
     * Registry kind: "bitfusion", "eyeriss", "stripes", "gpu", "mxu",
     * "dadiannao", or a plug-in's own.
     */
    std::string kind;
    /** Human summary of the compute fabric (e.g. "512 FUs"). */
    std::string compute;
    double freqMHz = 0.0;
    /** On-chip SRAM in bits; 0 when not modeled (GPU). */
    std::uint64_t onChipBits = 0;
    /** Off-chip bandwidth in bits/cycle; 0 when not modeled (GPU). */
    std::uint64_t bwBitsPerCycle = 0;
    /** Batch size this instance runs at. */
    unsigned batch = 0;
};

/**
 * Opaque result of Platform::compile(). Platforms with a real
 * compilation step (Bit Fusion's Fusion-ISA codegen) subclass this;
 * the sweep runner caches artifacts across cells by compileKey()
 * without knowing their type.
 */
struct PlatformArtifact
{
    virtual ~PlatformArtifact() = default;
};

using PlatformArtifactPtr = std::shared_ptr<const PlatformArtifact>;

/** Per-run options shared by every platform. */
struct RunOptions
{
    /** Phase-time composition (core/layer_walk.h). */
    TimingModel timing = TimingModel::Simple;
    /**
     * Previously compiled artifact for this (platform, network)
     * pair; nullptr compiles on the fly. Must come from a platform
     * with an equal compileKey().
     */
    const PlatformArtifact *artifact = nullptr;
    /**
     * Keep per-layer records (RunStats::layers). Off, the run
     * allocates none and formats no layer labels; every run-level
     * number is bit-identical.
     */
    bool perLayer = true;
};

/**
 * Abstract simulated platform.
 *
 * Thread safety contract: run()/compile() are const, deterministic,
 * and touch no mutable state, so one instance may be shared across
 * sweep workers. Implementations must preserve this.
 */
class Platform
{
  public:
    virtual ~Platform() = default;

    /** Canonical platform name (matches describe().name). */
    virtual std::string name() const = 0;

    /** Static description of this instance. */
    virtual PlatformInfo describe() const = 0;

    /**
     * Identity of the compilation this platform performs: equal keys
     * produce interchangeable artifacts for the same network. Empty
     * (the default) means the platform has no compile step and
     * compile() returns nullptr.
     */
    virtual std::string compileKey() const { return {}; }

    /** Precompile a network for reuse across run() calls. */
    virtual PlatformArtifactPtr
    compile(const Network &net) const
    {
        (void)net;
        return nullptr;
    }

    /** Simulate one batch of @p net. */
    virtual RunStats run(const Network &net,
                         const RunOptions &opts) const = 0;

    /** Convenience: run with default options (simple timing). */
    RunStats
    run(const Network &net) const
    {
        return run(net, RunOptions{});
    }
};

} // namespace bitfusion

#endif // BITFUSION_CORE_PLATFORM_H
