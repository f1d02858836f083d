#include "src/core/report.h"

#include <sstream>

#include "src/common/logging.h"

namespace bitfusion {
namespace report {

namespace {

/** Write the energy split as a JSON object (joules). */
void
energyJson(json::Writer &w, const ComponentEnergy &energy)
{
    w.beginObject();
    w.key("compute").value(energy.computeJ);
    w.key("buffers").value(energy.bufferJ);
    w.key("rf").value(energy.rfJ);
    w.key("dram").value(energy.dramJ);
    w.key("total").value(energy.totalJ());
    w.endObject();
}

/** Write one layer's stats as a JSON object. */
void
layerJson(json::Writer &w, const LayerStats &layer)
{
    w.beginObject();
    w.key("name").value(layer.name);
    w.key("config").value(layer.config);
    w.key("macs").value(layer.macs);
    w.key("compute_cycles").value(layer.computeCycles);
    w.key("mem_cycles").value(layer.memCycles);
    w.key("cycles").value(layer.cycles);
    w.key("dram_load_bits").value(layer.dramLoadBits);
    w.key("dram_store_bits").value(layer.dramStoreBits);
    w.key("sram_bits").value(layer.sramBits);
    w.key("rf_bits").value(layer.rfBits);
    w.key("utilization").value(layer.utilization);
    w.key("energy_j");
    energyJson(w, layer.energy);
    w.endObject();
}

} // namespace

void
fillRunJson(json::Writer &w, const RunStats &stats, bool per_layer)
{
    w.key("total_cycles").value(stats.totalCycles);
    w.key("freq_mhz").value(stats.freqMHz);
    w.key("seconds_per_batch").value(stats.seconds());
    w.key("seconds_per_sample").value(stats.secondsPerSample());
    w.key("macs").value(stats.totalMacs());
    w.key("dram_load_bits").value(stats.totals.dramLoadBits);
    w.key("dram_store_bits").value(stats.totals.dramStoreBits);
    w.key("energy_j");
    energyJson(w, stats.energy());
    w.key("energy_per_sample_j").value(stats.energyPerSampleJ());
    if (per_layer) {
        w.key("layers").beginArray();
        for (const auto &l : stats.layers)
            layerJson(w, l);
        w.endArray();
    }
}

std::string
csv(const RunStats &stats)
{
    std::ostringstream os;
    os << "layer,config,macs,compute_cycles,mem_cycles,cycles,"
          "utilization,dram_load_bits,dram_store_bits,sram_bits,"
          "rf_bits,compute_j,buffer_j,rf_j,dram_j\n";
    for (const auto &l : stats.layers) {
        os << l.name << ',' << l.config << ',' << l.macs << ','
           << l.computeCycles << ',' << l.memCycles << ',' << l.cycles
           << ',' << l.utilization << ',' << l.dramLoadBits << ','
           << l.dramStoreBits << ',' << l.sramBits << ',' << l.rfBits
           << ',' << l.energy.computeJ << ',' << l.energy.bufferJ << ','
           << l.energy.rfJ << ',' << l.energy.dramJ << '\n';
    }
    return os.str();
}

std::string
summary(const RunStats &stats)
{
    std::ostringstream os;
    const ComponentEnergy e = stats.energy();
    os << stats.platform << " running " << stats.network << " (batch "
       << stats.batch << ")\n";
    os << "  cycles/batch    : " << stats.totalCycles << " @ "
       << stats.freqMHz << " MHz\n";
    os << "  latency/sample  : " << stats.secondsPerSample() * 1e6
       << " us\n";
    os << "  macs/batch      : " << stats.totalMacs() << "\n";
    os << "  energy/sample   : " << stats.energyPerSampleJ() * 1e6
       << " uJ (compute " << e.computeJ * 1e6 << ", buffers "
       << e.bufferJ * 1e6 << ", rf " << e.rfJ * 1e6 << ", dram "
       << e.dramJ * 1e6 << ")\n";
    return os.str();
}

std::string
versus(const RunStats &subject, const RunStats &baseline)
{
    BF_ASSERT(subject.network == baseline.network,
              "comparing runs of different networks");
    std::ostringstream os;
    os << subject.platform << " vs " << baseline.platform << " on "
       << subject.network << ": "
       << baseline.secondsPerSample() / subject.secondsPerSample()
       << "x speedup, "
       << baseline.energyPerSampleJ() / subject.energyPerSampleJ()
       << "x energy reduction";
    return os.str();
}

} // namespace report
} // namespace bitfusion
