/**
 * @file
 * Energy model (substitutes CACTI-P plus the synthesis power
 * numbers). All values are dynamic energies at 45 nm; the 16 nm
 * scaling of §V-A applies to on-chip components, while DRAM interface
 * energy is node-independent.
 *
 * SRAM energy per bit follows a CACTI-style capacity power law fit
 * to published 45 nm points (~0.06 pJ/bit at 16 KB, ~0.12 pJ/bit at
 * 256 KB). Register files are small multi-ported arrays with a
 * higher per-bit cost; DRAM interface+core energy is ~20 pJ/bit,
 * the figure commonly used for DDR3-era systems.
 */

#ifndef BITFUSION_ENERGY_ENERGY_MODEL_H
#define BITFUSION_ENERGY_ENERGY_MODEL_H

#include <cstdint>

#include "src/arch/hw_model.h"
#include "src/core/stats.h"

namespace bitfusion {

/** Per-bit / per-op energy constants and conversion helpers. */
class EnergyModel
{
  public:
    /**
     * SRAM dynamic energy per bit accessed, by array capacity. A
     * platform's capacity is fixed, so each platform model evaluates
     * this once, in its constructor, and passes the value to apply*.
     */
    static double sramEnergyPerBitPj(std::uint64_t capacity_bits);

    /** Register-file energy per bit accessed (small per-PE RFs). */
    static constexpr double rfEnergyPerBitPj = 0.05;

    /** DRAM energy per bit transferred (interface + core). */
    static constexpr double dramEnergyPerBitPj = 20.0;

    /** Eyeriss-style fixed 16-bit MAC energy at 45 nm. */
    static constexpr double fixed16MacPj = 1.6;

    /**
     * Fixed 8-bit MAC energy at 45 nm (quadratic multiplier scaling
     * from the 16-bit point, plus the non-scaling accumulate path).
     */
    static constexpr double fixed8MacPj = 0.45;

    /** Stripes-style serial step (16-bit add + latch) energy. */
    static constexpr double serialStepPj = 0.20;

    /**
     * Fill @p stats.energy for a Bit Fusion layer: compute from the
     * fusion configuration, buffers from sramBits at @p sram_pj_per_bit
     * (the 45 nm sramEnergyPerBitPj of the on-chip capacity), DRAM
     * from the transfer counts. On-chip parts scale with @p tech.
     */
    static void applyBitFusion(LayerStats &stats, unsigned a_bits,
                               unsigned w_bits, double sram_pj_per_bit,
                               TechNode tech);

    /**
     * Fill energy for a fixed-point-MAC layer: compute at @p mac_pj
     * per MAC, buffers from sramBits at @p sram_pj_per_bit, RF from
     * rfBits, DRAM from the transfer counts. The shared path for
     * every fixed-function baseline (Eyeriss, MXU, DianNao).
     */
    static void applyFixedPoint(LayerStats &stats, double mac_pj,
                                double sram_pj_per_bit);

    /** Fill energy for an Eyeriss layer (16-bit, with RF). */
    static void applyEyeriss(LayerStats &stats, double sram_pj_per_bit);

    /** Fill energy for a Stripes layer (serial weights). */
    static void applyStripes(LayerStats &stats, unsigned w_bits,
                             double sram_pj_per_bit);
};

} // namespace bitfusion

#endif // BITFUSION_ENERGY_ENERGY_MODEL_H
