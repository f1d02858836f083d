#include "src/isa/exec_kernels.h"

#include "src/arch/decompose.h"
#include "src/common/logging.h"

// The contiguous inner loop is written so the compiler can vectorize
// it: independent lanes, reassociable (wraparound) accumulation, and
// branchless range checks folded into a lane mask. `#pragma omp simd`
// states that intent explicitly where the compiler accepts the
// pragma without -fopenmp's runtime (-fopenmp-simd, detected by
// CMake as BITFUSION_OPENMP_SIMD).
#if defined(BITFUSION_OPENMP_SIMD)
#define BF_SIMD_REDUCE _Pragma("omp simd reduction(+ : acc) reduction(| : bad)")
#else
#define BF_SIMD_REDUCE
#endif

namespace bitfusion {

namespace {

/**
 * Unit-stride reduction over @p n operand pairs. Products and the
 * accumulator are computed in uint64 (wraparound) arithmetic: exact
 * two's-complement match for the reference walk's int64 accumulation
 * on every representable operand, and no signed-overflow UB on
 * out-of-range garbage (which only feeds the bad mask, never a
 * result).
 */
inline std::uint64_t
innerContiguous(const std::int64_t *a, const std::int64_t *w,
                std::uint64_t n, std::int64_t aMin, std::int64_t aMax,
                std::int64_t wMin, std::int64_t wMax,
                std::uint64_t &badOut)
{
    std::uint64_t acc = 0;
    std::uint64_t bad = 0;
    BF_SIMD_REDUCE
    for (std::uint64_t k = 0; k < n; ++k) {
        const std::int64_t av = a[k];
        const std::int64_t wv = w[k];
        bad |= static_cast<std::uint64_t>(av < aMin) |
               static_cast<std::uint64_t>(av > aMax) |
               static_cast<std::uint64_t>(wv < wMin) |
               static_cast<std::uint64_t>(wv > wMax);
        acc += static_cast<std::uint64_t>(av) *
               static_cast<std::uint64_t>(wv);
    }
    badOut |= bad;
    return acc;
}

/** Strided inner loop (compiler-emitted nests are unit-stride; this
 *  covers hand-built and fuzzed blocks). */
inline std::uint64_t
innerStrided(const std::int64_t *a, const std::int64_t *w,
             std::uint64_t n, std::uint64_t aStride,
             std::uint64_t wStride, std::int64_t aMin,
             std::int64_t aMax, std::int64_t wMin, std::int64_t wMax,
             std::uint64_t &badOut)
{
    std::uint64_t acc = 0;
    std::uint64_t bad = 0;
    for (std::uint64_t k = 0; k < n; ++k) {
        const std::int64_t av = a[k * aStride];
        const std::int64_t wv = w[k * wStride];
        bad |= static_cast<std::uint64_t>(av < aMin) |
               static_cast<std::uint64_t>(av > aMax) |
               static_cast<std::uint64_t>(wv < wMin) |
               static_cast<std::uint64_t>(wv > wMax);
        acc += static_cast<std::uint64_t>(av) *
               static_cast<std::uint64_t>(wv);
    }
    badOut |= bad;
    return acc;
}

/** The nest padded to kMaxFusedDims with unit outer dims, so the
 *  loop structure is static. */
struct PaddedNest
{
    std::uint64_t it[kMaxFusedDims] = {1, 1, 1, 1};
    std::uint64_t as[kMaxFusedDims] = {0, 0, 0, 0};
    std::uint64_t ws[kMaxFusedDims] = {0, 0, 0, 0};

    explicit PaddedNest(const MacNestArgs &args)
    {
        const unsigned pad = kMaxFusedDims - args.dims;
        for (unsigned d = 0; d < args.dims; ++d) {
            it[pad + d] = args.iters[d];
            as[pad + d] = args.aStride[d];
            ws[pad + d] = args.wStride[d];
        }
    }
};

} // namespace

std::uint64_t
macNest(const MacNestArgs &args, std::uint64_t &bad)
{
    const PaddedNest n(args);
    const std::uint64_t *it = n.it, *as = n.as, *ws = n.ws;

    const bool contiguous = as[3] == 1 && ws[3] == 1;
    std::uint64_t acc = 0;
    for (std::uint64_t i0 = 0; i0 < it[0]; ++i0) {
        for (std::uint64_t i1 = 0; i1 < it[1]; ++i1) {
            for (std::uint64_t i2 = 0; i2 < it[2]; ++i2) {
                const std::int64_t *a =
                    args.a + i0 * as[0] + i1 * as[1] + i2 * as[2];
                const std::int64_t *w =
                    args.w + i0 * ws[0] + i1 * ws[1] + i2 * ws[2];
                acc += contiguous
                           ? innerContiguous(a, w, it[3], args.aMin,
                                             args.aMax, args.wMin,
                                             args.wMax, bad)
                           : innerStrided(a, w, it[3], as[3], ws[3],
                                          args.aMin, args.aMax,
                                          args.wMin, args.wMax, bad);
            }
        }
    }
    return acc;
}

void
reportUnrepresentable(const MacNestArgs &args, const FusionConfig &cfg)
{
    // Re-walk in iteration order; the first out-of-range pair goes
    // through decomposeMultiply, whose representability assert is the
    // reference walk's exact failure.
    const PaddedNest n(args);
    const std::uint64_t *it = n.it, *as = n.as, *ws = n.ws;
    for (std::uint64_t i0 = 0; i0 < it[0]; ++i0) {
        for (std::uint64_t i1 = 0; i1 < it[1]; ++i1) {
            for (std::uint64_t i2 = 0; i2 < it[2]; ++i2) {
                for (std::uint64_t i3 = 0; i3 < it[3]; ++i3) {
                    const std::int64_t av =
                        args.a[i0 * as[0] + i1 * as[1] + i2 * as[2] +
                               i3 * as[3]];
                    const std::int64_t wv =
                        args.w[i0 * ws[0] + i1 * ws[1] + i2 * ws[2] +
                               i3 * ws[3]];
                    if (!representable(av, cfg.aBits, cfg.aSigned) ||
                        !representable(wv, cfg.wBits, cfg.wSigned))
                        decomposeMultiply(av, wv, cfg);
                }
            }
        }
    }
    BF_PANIC("fused MAC kernel flagged an unrepresentable operand, "
             "but the re-walk found none");
}

} // namespace bitfusion
