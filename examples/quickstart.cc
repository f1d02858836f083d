/**
 * @file
 * Quickstart: configure a Bit Fusion accelerator, run a benchmark
 * network, and print the performance/energy report.
 */

#include <cstdio>

#include "src/compiler/codegen.h"
#include "src/dnn/model_zoo.h"
#include "src/sim/simulator.h"

int
main()
{
    using namespace bitfusion;

    // The paper's Eyeriss-matched configuration: 512 Fusion Units
    // (16x32) in 1.1 mm^2 at 45 nm, 112 KB SRAM, 500 MHz, batch 16.
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    const Simulator sim(cfg);

    const auto bench = zoo::lenet5();
    const CompiledNetwork compiled = Compiler(cfg).compile(bench.quantized);
    const RunStats stats = sim.run(compiled);

    std::printf("network          : %s\n", stats.network.c_str());
    std::printf("batch            : %u\n", stats.batch);
    std::printf("total MACs/batch : %llu\n",
                static_cast<unsigned long long>(stats.totalMacs()));
    std::printf("cycles/batch     : %llu\n",
                static_cast<unsigned long long>(stats.totalCycles));
    std::printf("latency/sample   : %.3f us\n",
                stats.secondsPerSample() * 1e6);
    const ComponentEnergy e = stats.energy();
    std::printf("energy/sample    : %.3f uJ (compute %.1f%%, buffers "
                "%.1f%%, DRAM %.1f%%)\n",
                e.totalJ() / stats.batch * 1e6,
                100.0 * e.computeJ / e.totalJ(),
                100.0 * e.bufferJ / e.totalJ(),
                100.0 * e.dramJ / e.totalJ());

    std::printf("\nper-layer:\n");
    for (const auto &l : stats.layers) {
        std::printf("  %-12s %-7s cycles=%-10llu util=%4.1f%%\n",
                    l.name.c_str(), l.config.c_str(),
                    static_cast<unsigned long long>(l.cycles),
                    100.0 * l.utilization);
    }
    return 0;
}
