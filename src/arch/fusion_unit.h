/**
 * @file
 * Fusion Unit: 16 BitBricks plus the spatio-temporal fusion logic
 * (paper §III-C). Operands up to 8 bits are handled spatially in one
 * cycle; 16-bit operands are split into 8-bit halves processed over
 * 2 or 4 temporal passes sharing the same spatial tree.
 * Oracle of Fig. 10: FusionUnitSweep.MatchesIntegerDotProduct.
 */

#ifndef BITFUSION_ARCH_FUSION_UNIT_H
#define BITFUSION_ARCH_FUSION_UNIT_H

#include <cstdint>
#include <utility>
#include <vector>

#include "src/arch/fusion_config.h"
#include "src/arch/spatial_fusion.h"

namespace bitfusion {

/** Execution statistics accumulated by a Fusion Unit. */
struct FusionUnitStats
{
    /** Cycles consumed. */
    std::uint64_t cycles = 0;
    /** BitBrick operations issued. */
    std::uint64_t bitBrickOps = 0;
    /** Variable-bitwidth products completed. */
    std::uint64_t products = 0;
};

/**
 * One Fusion Unit: a 4x4 physical grouping of BitBricks that fuses
 * at run time into 16/bricksPerProduct Fused-PEs.
 *
 * The functional model accepts, per invocation, one operand pair per
 * Fused-PE (all PEs share the configuration set by configure()), and
 * returns the sum of their products -- the Fusion Unit's contribution
 * to the column partial sum, matching Fig. 2(a).
 */
class FusionUnit
{
  public:
    /** Construct a unit with @p bricks BitBricks (default 16). */
    explicit FusionUnit(unsigned bricks = 16);

    /** Set the fusion configuration (the setup instruction). */
    void configure(const FusionConfig &cfg);

    /** Current configuration. */
    const FusionConfig &config() const { return cfg; }

    /** Fused-PEs offered under the current configuration. */
    unsigned fusedPEs() const { return cfg.fusedPEs(brickCount); }

    /** Number of physical BitBricks. */
    unsigned bricks() const { return brickCount; }

    /**
     * Execute one fused multiply-accumulate step: each Fused-PE
     * multiplies one (activation, weight) pair; products are summed
     * together (and into @p carry_in). At most fusedPEs() pairs.
     *
     * @param pairs Operand pairs, one per active Fused-PE.
     * @param carry_in Incoming partial sum from the neighbouring
     *                 Fusion Unit.
     * @return Outgoing partial sum.
     */
    std::int64_t multiplyAccumulate(
        const std::vector<std::pair<std::int64_t, std::int64_t>> &pairs,
        std::int64_t carry_in = 0);

    /** Execution statistics since construction. */
    const FusionUnitStats &stats() const { return _stats; }

  private:
    unsigned brickCount;
    FusionConfig cfg;
    SpatialFusionTree tree;
    FusionUnitStats _stats;
};

} // namespace bitfusion

#endif // BITFUSION_ARCH_FUSION_UNIT_H
