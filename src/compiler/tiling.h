/**
 * @file
 * Loop tiling (paper §IV-B): choose tile sizes so the working set of
 * the inner loops fits the scratchpads, and pick the outer loop order
 * that minimizes off-chip traffic.
 */

#ifndef BITFUSION_COMPILER_TILING_H
#define BITFUSION_COMPILER_TILING_H

#include "src/compiler/schedule.h"
#include "src/sim/config.h"

namespace bitfusion {

/**
 * Tile-size and loop-order selection.
 *
 * Owns a copy of the configuration so instances (and the Compiler
 * objects embedding them) are safely copyable and usable from
 * concurrent sweep workers; all methods are const.
 */
class Tiler
{
  public:
    explicit Tiler(const AcceleratorConfig &cfg) : cfg(cfg) {}

    /**
     * Choose tiles for a MAC layer with GEMM dims (m, k, n_total)
     * and the layer's operand bitwidths. Scratchpads are halved for
     * double buffering. Guarantees every tile dimension >= 1 and no
     * larger than its (nonzero) GEMM dimension. The search never
     * reads the array shape, so nothing keeps kt >= rows.
     */
    Tiling
    chooseTiles(std::uint64_t m, std::uint64_t k, std::uint64_t n_total,
                const FusionConfig &bits) const;

    /**
     * Off-chip traffic (bits) of a schedule under a given loop
     * order. @p w_bits_total / @p i_bits_total / @p o_bits_total are
     * the single-copy footprints per batch. Fully resident operands
     * (tile covering the whole matrix/stream) are fetched once.
     */
    static std::uint64_t
    trafficBits(LoopOrder order, const Tiling &tile, std::uint64_t m,
                std::uint64_t k, std::uint64_t n_total,
                std::uint64_t w_bits_total, std::uint64_t i_bits_total,
                std::uint64_t o_bits_total);

    /**
     * Pick the loop order minimizing traffic (the loop-ordering
     * optimization). When the optimization is disabled in the
     * config, always returns InputStationary.
     */
    LoopOrder
    chooseOrder(const Tiling &tile, std::uint64_t m, std::uint64_t k,
                std::uint64_t n_total, std::uint64_t w_bits_total,
                std::uint64_t i_bits_total,
                std::uint64_t o_bits_total) const;

  private:
    AcceleratorConfig cfg;
};

} // namespace bitfusion

#endif // BITFUSION_COMPILER_TILING_H
