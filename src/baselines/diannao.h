/**
 * @file
 * DianNao/DaDianNao-class baseline: NFU tiles of 16-bit multipliers
 * feeding adder trees, with (in the DaDianNao configuration) the
 * full synapse array resident in on-chip eDRAM.
 *
 * The model captures the two behaviours the comparison turns on:
 * the fixed neurons x synapses NFU shape strands multipliers on
 * layers whose GEMM does not align with it, and weight residency
 * removes the dominant DRAM term entirely when the network fits the
 * eDRAM -- the DaDianNao pitch -- but falls back to streaming when
 * it does not.
 *
 * Registered as the "dadiannao" kind through the same
 * PlatformRegistry door an out-of-tree backend uses.
 */

#ifndef BITFUSION_BASELINES_DIANNAO_H
#define BITFUSION_BASELINES_DIANNAO_H

#include "src/core/platform.h"
#include "src/core/platform_registry.h"
#include "src/core/stats.h"
#include "src/dnn/network.h"

namespace bitfusion {

/** Configuration of the DianNao-family NFU model. */
struct DianNaoConfig
{
    std::string name = "dadiannao";
    /** Output neurons per tile NFU. */
    unsigned neurons = 16;
    /** Synapses (reduction inputs) per neuron. */
    unsigned synapses = 16;
    /** NFU tiles (DaDianNao node: 16; DianNao: 1). */
    unsigned tiles = 16;
    double freqMHz = 606.0;
    /** Operand width; the NFU datapath is 16-bit fixed point. */
    unsigned operandBits = 16;
    /** On-chip eDRAM for resident synapses, in bits (36 MB). */
    std::uint64_t edramBits = 36ULL * 1024 * 1024 * 8;
    /** Activation buffer capacity in bits. */
    std::uint64_t sramBits = 4ULL * 1024 * 1024 * 8;
    /** Keep weights resident in eDRAM when the network fits. */
    bool weightsResident = true;
    std::uint64_t bwBitsPerCycle = 256;
    unsigned batch = 16;

    unsigned macsPerCycle() const { return tiles * neurons * synapses; }

    bool
    operator==(const DianNaoConfig &o) const
    {
        return name == o.name && neurons == o.neurons &&
               synapses == o.synapses && tiles == o.tiles &&
               freqMHz == o.freqMHz && operandBits == o.operandBits &&
               edramBits == o.edramBits && sramBits == o.sramBits &&
               weightsResident == o.weightsResident &&
               bwBitsPerCycle == o.bwBitsPerCycle && batch == o.batch;
    }

    /** The multi-tile eDRAM node (16 tiles, 36 MB, 606 MHz). */
    static DianNaoConfig dadiannao();
    /** The original single-tile accelerator (980 MHz, streamed). */
    static DianNaoConfig diannao();
};

/** Analytical NFU simulator; the "dadiannao" Platform. */
class DianNaoModel : public Platform
{
  public:
    explicit DianNaoModel(const DianNaoConfig &cfg = DianNaoConfig{});

    using Platform::run;

    std::string name() const override { return cfg.name; }

    PlatformInfo describe() const override;

    /** Run a (regular-precision) network for one batch. */
    RunStats run(const Network &net,
                 const RunOptions &opts) const override;

    /** True when @p net's weights fit the eDRAM resident set. */
    bool weightsFit(const Network &net) const;

    const DianNaoConfig &config() const { return cfg; }

  private:
    /**
     * Time one MAC-array layer into @p walk; @p resident when the
     * network's synapses live in eDRAM.
     */
    void runLayer(const Layer &layer, bool resident,
                  LayerWalk &walk) const;

    DianNaoConfig cfg;
    /** The on-chip SRAM as one shared buffer, for the DRAM planner. */
    AcceleratorConfig buffers;
    /** SRAM pJ/bit of cfg.sramBits, fixed per platform. */
    double sramPjPerBit;
};

/** DianNao-family spec (16-bit, runs the regular-width model). */
PlatformSpec diannaoPlatform(DianNaoConfig cfg = {});

/** Register the "dadiannao" kind (called by builtin()). */
void registerDianNaoPlatform(PlatformRegistry &r);

} // namespace bitfusion

#endif // BITFUSION_BASELINES_DIANNAO_H
