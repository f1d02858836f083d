/**
 * @file
 * The fused MAC-reduction kernel for compiled execution plans.
 *
 * When ExecPlan::build recognizes the compiler's innermost
 * RdBuf/RdBuf/Mac reduction nest (see exec_plan.cc), it replaces the
 * whole nest with one op that calls macNest instead of dispatching
 * the three body ops per element. The kernel executes the full
 * multi-level reduction -- up to the loop that carries the
 * accumulator -- as tight nested loops with a vectorizable
 * unit-stride inner loop.
 *
 * Bit-exactness contract: for every representable operand pair the
 * BitBrick decomposition is an exact radix-4 signed-digit multiply,
 * so evaluateDecomposition(decomposeMultiply(a, w, cfg)) == a * w.
 * tests/test_decompose.cc pins this exhaustively for the <= 8-bit
 * paper configs and on corners and samples for the 16-bit and
 * mixed-width ones, so the kernel can use the native multiplier
 * while reproducing the reference walk bit-for-bit -- including the
 * InterpStats counters, whose per-MAC decomposition size is
 * value-independent (aLanes x wLanes).
 *
 * Operands outside the configured representable range must fail
 * exactly like the reference walk (decomposeMultiply's assert). The
 * kernel accumulates a branchless "bad" mask alongside the products;
 * on a nonzero mask the caller invokes reportUnrepresentable, which
 * re-walks the nest in iteration order and routes the first
 * offending pair through decomposeMultiply for the identical panic.
 */

#ifndef BITFUSION_ISA_EXEC_KERNELS_H
#define BITFUSION_ISA_EXEC_KERNELS_H

#include <cstdint>

#include "src/arch/fusion_config.h"

namespace bitfusion {

/** Upper bound on fused reduction-nest depth (deeper nests do not
 *  fuse and run op by op). */
constexpr unsigned kMaxFusedDims = 4;

/**
 * One fused reduction-nest invocation. Base pointers are already
 * offset for the enclosing (non-fused) loop counters; strides and
 * trip counts are per fused dimension, outermost first. All trip
 * counts are nonzero (the caller skips empty nests).
 */
struct MacNestArgs
{
    const std::int64_t *a = nullptr;
    const std::int64_t *w = nullptr;
    std::uint64_t iters[kMaxFusedDims] = {0, 0, 0, 0};
    std::uint64_t aStride[kMaxFusedDims] = {0, 0, 0, 0};
    std::uint64_t wStride[kMaxFusedDims] = {0, 0, 0, 0};
    unsigned dims = 0;
    /** Representable operand ranges. */
    std::int64_t aMin = 0, aMax = 0, wMin = 0, wMax = 0;
};

/**
 * Execute the nest: returns the sum of products in wraparound
 * (mod 2^64) arithmetic -- identical to the reference walk's int64
 * accumulation wherever that walk is defined -- and ORs operand
 * range violations into @p bad (nonzero means some operand was not
 * representable; the accumulator is then meaningless and the caller
 * must report through reportUnrepresentable).
 */
std::uint64_t macNest(const MacNestArgs &args, std::uint64_t &bad);

/**
 * Re-walk the nest in iteration order and fail exactly like the
 * reference walk on the first operand pair outside @p cfg's
 * representable range (decomposeMultiply's assert). Panics
 * unconditionally: only called when macNest reported a bad mask.
 */
[[noreturn]] void reportUnrepresentable(const MacNestArgs &args,
                                        const FusionConfig &cfg);

} // namespace bitfusion

#endif // BITFUSION_ISA_EXEC_KERNELS_H
