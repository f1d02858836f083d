/**
 * @file
 * Accelerator configuration: array geometry, scratchpad capacities,
 * off-chip bandwidth, frequency, batch, technology node, and the
 * code-optimization switches (paper §IV-B) used for ablations.
 */

#ifndef BITFUSION_SIM_CONFIG_H
#define BITFUSION_SIM_CONFIG_H

#include <cstdint>
#include <string>

#include "src/arch/hw_model.h"

namespace bitfusion {

/** Full configuration of one Bit Fusion accelerator instance. */
struct AcceleratorConfig
{
    std::string name = "bitfusion";

    /** Systolic array rows (reduction dimension). */
    unsigned rows = 8;
    /** Systolic array columns (output dimension). */
    unsigned cols = 64;
    /** BitBricks per Fusion Unit. */
    unsigned bricksPerUnit = 16;
    /**
     * Data-parallel tiles: identical arrays that split the batch and
     * share the DRAM interface (weights broadcast). The 16 nm
     * GPU-comparison configuration uses 8 tiles of 512 Fusion Units.
     */
    unsigned tiles = 1;

    /** Input buffer capacity in bits (total). */
    std::uint64_t ibufBits = 32ULL * 1024 * 8;
    /** Output buffer capacity in bits (total). */
    std::uint64_t obufBits = 16ULL * 1024 * 8;
    /** Weight buffer capacity in bits (total across Fusion Units). */
    std::uint64_t wbufBits = 64ULL * 1024 * 8;

    /** Off-chip bandwidth in bits per cycle (paper default 128). */
    std::uint64_t bwBitsPerCycle = 128;
    /** Clock frequency in MHz (matched to Eyeriss: 500). */
    double freqMHz = 500.0;
    /** Inference batch size (paper default 16). */
    unsigned batch = 16;
    /** Technology node. */
    TechNode tech = TechNode::Nm45;

    /** Enable the layer-fusion code optimization. */
    bool layerFusion = true;
    /** Enable the loop-ordering code optimization. */
    bool loopOrdering = true;

    /** Total Fusion Units across all tiles. */
    unsigned fusionUnits() const { return rows * cols * tiles; }

    /**
     * Total on-chip SRAM in bits across tiles (buffer capacities
     * are per tile).
     */
    std::uint64_t
    onChipBits() const
    {
        return (ibufBits + obufBits + wbufBits) * tiles;
    }

    /** Fatal-checks the configuration. */
    void validate() const;

    /**
     * Identity string over every field the Compiler reads:
     * scratchpad capacities, batch, and the code-optimization
     * switches (tiling is buffer-driven; array geometry, bandwidth,
     * and frequency only matter at simulation time). Two
     * configurations with equal keys produce identical
     * CompiledNetworks for any network, so the sweep runner's
     * compiled-network cache shares across geometry, bandwidth, and
     * frequency sweeps. Extend this when the Compiler starts
     * consuming a new field.
     */
    std::string compileKey() const;

    bool
    operator==(const AcceleratorConfig &o) const
    {
        return name == o.name && rows == o.rows && cols == o.cols &&
               bricksPerUnit == o.bricksPerUnit && tiles == o.tiles &&
               ibufBits == o.ibufBits && obufBits == o.obufBits &&
               wbufBits == o.wbufBits &&
               bwBitsPerCycle == o.bwBitsPerCycle &&
               freqMHz == o.freqMHz && batch == o.batch &&
               tech == o.tech && layerFusion == o.layerFusion &&
               loopOrdering == o.loopOrdering;
    }

    /**
     * The Eyeriss-matched 45 nm configuration of §V-A: 1.1 mm^2 of
     * compute (512 Fusion Units as 16x32), 112 KB of SRAM, 500 MHz,
     * 128 bits/cycle, batch 16.
     */
    static AcceleratorConfig eyerissMatched45();

    /**
     * The Stripes-comparison configuration: identical fabric (the
     * paper replaces each Stripes tile's 4096 SIPs with 512 Fusion
     * Units in the same 1.1 mm^2), same on-chip memory.
     */
    static AcceleratorConfig stripesTileMatched45();

    /**
     * The 16 nm GPU-comparison configuration of §V-A: 4096 Fusion
     * Units, 896 KB SRAM, still 500 MHz; bandwidth scaled with the
     * fabric (GDDR-class).
     */
    static AcceleratorConfig gpuScale16();
};

} // namespace bitfusion

#endif // BITFUSION_SIM_CONFIG_H
