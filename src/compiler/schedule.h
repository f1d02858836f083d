/**
 * @file
 * Compiler output: per-layer schedules and the compiled network.
 *
 * A schedule couples the Fusion-ISA instruction block of a layer (or
 * fused layer group) with the tiling/ordering decisions the timing
 * simulator consumes.
 */

#ifndef BITFUSION_COMPILER_SCHEDULE_H
#define BITFUSION_COMPILER_SCHEDULE_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/dnn/layer.h"
#include "src/isa/block.h"

namespace bitfusion {

/** Tile sizes chosen for a MAC layer. */
struct Tiling
{
    /** Output-dimension tile (outputs resident in WBUF/OBUF). */
    std::uint64_t mt = 1;
    /** Reduction-dimension tile. */
    std::uint64_t kt = 1;
    /** Streaming-dimension tile (spatial x batch positions). */
    std::uint64_t nt = 1;
};

/** Loop-order decision for the outer (DRAM) loops. */
enum class LoopOrder
{
    InputStationary, ///< n outermost kept resident; weights refetched.
    WeightStationary ///< m outermost kept resident; inputs refetched.
};

/** One compiled layer (or fused layer group). */
struct LayerSchedule
{
    /** The primary layer (the MAC layer of a fused group). */
    Layer layer;
    /** Activation fused into this block's drain path. */
    bool fusedActivation = false;
    /** Pooling fused into this block's drain path. */
    bool fusedPool = false;
    /** Bitwidth of the outputs written to DRAM. */
    unsigned outBits = 32;
    /** Output elements per sample after any fused pooling. */
    std::uint64_t outElems = 0;

    /** GEMM dims per sample (m = outputs, k = reduction, n = reuse). */
    std::uint64_t m = 0, k = 0, n = 0;
    /** Tiling decision. */
    Tiling tile;
    /** Outer loop order decision. */
    LoopOrder order = LoopOrder::InputStationary;

    /** The Fusion-ISA block implementing this schedule. */
    InstructionBlock block;

    /** True for conv/fc/rnn/lstm groups (ran on the MAC array). */
    bool usesMacArray = false;
};

/** A whole network compiled for one accelerator configuration. */
struct CompiledNetwork
{
    std::string networkName;
    unsigned batch = 1;
    std::vector<LayerSchedule> schedules;
};

} // namespace bitfusion

#endif // BITFUSION_COMPILER_SCHEDULE_H
