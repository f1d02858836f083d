/**
 * @file
 * Temporal design: the bit-serial-style reference point from paper
 * Fig. 8 used in the Fig. 10 area/power comparison and our fusion
 * ablation.
 *
 * A temporal unit owns one BitBrick, one shifter sized for the
 * maximum supported bitwidth, and one accumulator register. It
 * executes one 2-bit partial product per cycle, shifting and
 * accumulating into the register, so an a-bit x w-bit multiply takes
 * aLanes * wLanes cycles.
 * Oracle of Fig. 10: TemporalUnit.AccumulatesCorrectProducts.
 */

#ifndef BITFUSION_ARCH_TEMPORAL_UNIT_H
#define BITFUSION_ARCH_TEMPORAL_UNIT_H

#include <cstdint>
#include <vector>

#include "src/arch/bitbrick.h"
#include "src/arch/fusion_config.h"

namespace bitfusion {

/** One temporal (serial shift-accumulate) multiply-add unit. */
class TemporalUnit
{
  public:
    /** Reset the accumulator register to zero. */
    void reset() { accumulator = 0; totalCycles = 0; }

    /**
     * Execute one decomposed operation (one cycle): multiply in the
     * BitBrick, shift, accumulate.
     */
    void step(const BitBrickOp &op);

    /**
     * Execute a full variable-bitwidth multiply-accumulate: the
     * product of a and w under @p cfg is added to the accumulator,
     * one BitBrick operation per cycle.
     *
     * @return Cycles consumed.
     */
    unsigned multiplyAccumulate(std::int64_t a, std::int64_t w,
                                const FusionConfig &cfg);

    /** Current accumulator value. */
    std::int64_t value() const { return accumulator; }

    /** Total cycles consumed since reset(). */
    std::uint64_t cycles() const { return totalCycles; }

    /** Cycles one (a,w) product costs under @p cfg. */
    static unsigned cyclesPerProduct(const FusionConfig &cfg);

  private:
    std::int64_t accumulator = 0;
    std::uint64_t totalCycles = 0;
};

} // namespace bitfusion

#endif // BITFUSION_ARCH_TEMPORAL_UNIT_H
