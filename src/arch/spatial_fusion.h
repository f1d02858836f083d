/**
 * @file
 * Spatial fusion: the single-cycle shift-add tree that combines the
 * decomposed products of multiple BitBricks (paper Fig. 9).
 * Oracle of Fig. 10: SpatialFusionTree.CombineSumsShiftedProducts.
 */

#ifndef BITFUSION_ARCH_SPATIAL_FUSION_H
#define BITFUSION_ARCH_SPATIAL_FUSION_H

#include <cstdint>
#include <vector>

#include "src/arch/bitbrick.h"

namespace bitfusion {

/**
 * Combinational shift-add tree over a group of BitBricks.
 *
 * Each level of the physical tree holds three shift units and a
 * four-input adder (paper §III-C); a tree over n BitBricks has
 * log4(n) levels. Functionally the tree computes the sum of the
 * shifted BitBrick products in one cycle.
 */
class SpatialFusionTree
{
  public:
    /** Build a tree spanning @p bricks BitBricks (power of 4). */
    explicit SpatialFusionTree(unsigned bricks);

    /** Number of BitBricks this tree spans. */
    unsigned bricks() const { return _bricks; }

    /** Tree depth: log4(bricks). */
    unsigned levels() const;

    /** Total four-input adders in the tree. */
    unsigned adderCount() const;

    /** Total shift units in the tree (three per adder). */
    unsigned shifterCount() const;

    /**
     * Single-cycle combine: sum of shifted products of at most
     * bricks() operations. Uses the gate-level BitBrick product so
     * the whole path is modelled at the bit level.
     */
    std::int64_t combine(const std::vector<BitBrickOp> &ops) const;

  private:
    unsigned _bricks;
};

} // namespace bitfusion

#endif // BITFUSION_ARCH_SPATIAL_FUSION_H
