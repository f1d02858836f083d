/**
 * @file
 * Hardware cost library: area and power of the fusion logic.
 *
 * The paper implements Bit Fusion in Verilog and synthesizes it with
 * Synopsys Design Compiler in a commercial 45 nm library; its
 * published outputs (Fig. 10 and the Table III platform parameters)
 * are the only synthesis products the evaluation consumes. We encode
 * those outputs here as the technology library of the reproduction,
 * together with the 16 nm scaling rule from §V-A (0.86x voltage,
 * 0.42x capacitance, per the dark-silicon methodology [50]).
 */

#ifndef BITFUSION_ARCH_HW_MODEL_H
#define BITFUSION_ARCH_HW_MODEL_H

#include <cstdint>

namespace bitfusion {

/** Technology node of a modelled chip. */
enum class TechNode
{
    Nm45, ///< The paper's synthesis node.
    Nm16, ///< GPU-comparison node (scaled).
};

/** Area/power of one design point, split as in Fig. 10. */
struct UnitCost
{
    double bitBricksAreaUm2;
    double shiftAddAreaUm2;
    double registerAreaUm2;
    double bitBricksPowerNw;
    double shiftAddPowerNw;
    double registerPowerNw;

    double
    totalAreaUm2() const
    {
        return bitBricksAreaUm2 + shiftAddAreaUm2 + registerAreaUm2;
    }

    double
    totalPowerNw() const
    {
        return bitBricksPowerNw + shiftAddPowerNw + registerPowerNw;
    }
};

/**
 * Cost library for the fusion microarchitecture at 45 nm plus the
 * scaling helpers used by the GPU comparison.
 */
class HwModel
{
  public:
    /** Fig. 10: hybrid (spatio-temporal) Fusion Unit, 16 BitBricks. */
    static UnitCost fusionUnit45();

    /** Fig. 10: temporal design with 16 2-bit multipliers. */
    static UnitCost temporalDesign45();

    /**
     * Fusion Units that fit a compute-area budget, including the
     * systolic-array overhead (column accumulator, pooling and
     * activation units, control) amortized per unit.
     *
     * With the paper's 1.1 mm^2 Eyeriss-matched budget this yields
     * 512 units, the same count the paper uses per Stripes tile.
     */
    static unsigned fusionUnitsForBudget(double budget_mm2);

    /** Per-unit systolic overhead factor applied to Fig. 10 area. */
    static constexpr double systolicOverhead = 1.54;

    /** Energy scale factor for a node relative to 45 nm. */
    static double energyScale(TechNode node);

    /** Area scale factor for a node relative to 45 nm. */
    static double areaScale(TechNode node);

    /**
     * Dynamic energy of one BitBrick operation (one 2-bit multiply
     * feeding the shift-add tree), in picojoules at 45 nm.
     *
     * Derived from the Fig. 10 power split: the Fusion Unit spends
     * its dynamic power across 16 BitBricks plus the shared tree;
     * calibrated so an 8b/8b MAC costs ~0.94 pJ, in family with
     * published 45 nm 8-bit multiply-add energies.
     */
    static constexpr double bitBrickOpEnergyPj = 0.049;

    /**
     * Dynamic energy of one pass through the shift-add tree and
     * output register of a Fusion Unit, in picojoules at 45 nm.
     */
    static constexpr double fusionTreePassEnergyPj = 0.16;

    /**
     * Energy of one MAC at the given fusion configuration: the
     * BitBrick operations plus the amortized tree pass.
     */
    static double macEnergyPj(unsigned a_bits, unsigned w_bits,
                              TechNode node = TechNode::Nm45);
};

} // namespace bitfusion

#endif // BITFUSION_ARCH_HW_MODEL_H
