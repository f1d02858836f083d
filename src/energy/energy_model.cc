#include "src/energy/energy_model.h"

#include <cmath>

#include "src/common/logging.h"

namespace bitfusion {

double
EnergyModel::sramEnergyPerBitPj(std::uint64_t capacity_bits)
{
    BF_ASSERT(capacity_bits > 0);
    // Power-law fit: e(16 KB) = 0.10 pJ/bit, exponent 0.25.
    const double kb = static_cast<double>(capacity_bits) / (8.0 * 1024.0);
    return 0.10 * std::pow(kb / 16.0, 0.25);
}

void
EnergyModel::applyBitFusion(LayerStats &stats, unsigned a_bits,
                            unsigned w_bits, double sram_pj_per_bit,
                            TechNode tech)
{
    const double scale = HwModel::energyScale(tech);
    const double mac_pj = HwModel::macEnergyPj(a_bits, w_bits, tech);
    stats.energy.computeJ =
        static_cast<double>(stats.macs) * mac_pj * 1e-12;
    stats.energy.bufferJ = static_cast<double>(stats.sramBits) *
                           sram_pj_per_bit * scale * 1e-12;
    stats.energy.rfJ = 0.0; // systolic design has no per-PE RF
    stats.energy.dramJ =
        static_cast<double>(stats.dramLoadBits + stats.dramStoreBits) *
        dramEnergyPerBitPj * 1e-12;
}

void
EnergyModel::applyFixedPoint(LayerStats &stats, double mac_pj,
                             double sram_pj_per_bit)
{
    stats.energy.computeJ =
        static_cast<double>(stats.macs) * mac_pj * 1e-12;
    stats.energy.bufferJ = static_cast<double>(stats.sramBits) *
                           sram_pj_per_bit * 1e-12;
    stats.energy.rfJ = static_cast<double>(stats.rfBits) *
                       rfEnergyPerBitPj * 1e-12;
    stats.energy.dramJ =
        static_cast<double>(stats.dramLoadBits + stats.dramStoreBits) *
        dramEnergyPerBitPj * 1e-12;
}

void
EnergyModel::applyEyeriss(LayerStats &stats, double sram_pj_per_bit)
{
    applyFixedPoint(stats, fixed16MacPj, sram_pj_per_bit);
}

void
EnergyModel::applyStripes(LayerStats &stats, unsigned w_bits,
                          double sram_pj_per_bit)
{
    // A bit-serial MAC spends one serial step per weight bit.
    stats.energy.computeJ = static_cast<double>(stats.macs) * w_bits *
                            serialStepPj * 1e-12;
    stats.energy.bufferJ = static_cast<double>(stats.sramBits) *
                           sram_pj_per_bit * 1e-12;
    stats.energy.rfJ = 0.0;
    stats.energy.dramJ =
        static_cast<double>(stats.dramLoadBits + stats.dramStoreBits) *
        dramEnergyPerBitPj * 1e-12;
}

} // namespace bitfusion
