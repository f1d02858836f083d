/**
 * @file
 * AlexNet end-to-end profile: compile the 2x-wide quantized AlexNet,
 * run it against Eyeriss, and print a per-layer comparison -- the
 * workload the paper's §V-B1 analysis walks through.
 *
 * Usage: example_alexnet_profile [batch]
 */

#include <cstdio>
#include <cstdlib>

#include "src/baselines/eyeriss.h"
#include "src/common/table.h"
#include "src/dnn/model_zoo.h"
#include "src/sim/simulator.h"

int
main(int argc, char **argv)
{
    using namespace bitfusion;

    AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    if (argc > 1)
        cfg.batch = static_cast<unsigned>(std::atoi(argv[1]));

    const Simulator bitfusion(cfg);
    EyerissConfig ecfg;
    ecfg.batch = cfg.batch;
    EyerissModel eyeriss(ecfg);

    const auto bench = zoo::alexnet();
    const RunStats bf = bitfusion.run(bench.quantized);
    const RunStats ey = eyeriss.run(bench.baseline);

    std::printf("AlexNet, batch %u: Bit Fusion %.2f ms/sample vs "
                "Eyeriss %.2f ms/sample (%.2fx)\n\n",
                cfg.batch, bf.secondsPerSample() * 1e3,
                ey.secondsPerSample() * 1e3,
                ey.secondsPerSample() / bf.secondsPerSample());

    TextTable t({"Layer", "Config", "MACs/batch", "BF cycles",
                 "BF util", "BF DRAM Mb", "Eyeriss cycles", "Speedup"});
    std::size_t ei = 0;
    for (const auto &l : bf.layers) {
        const LayerStats &e = ey.layers[ei++];
        t.addRow({l.name, l.config,
                  TextTable::num(static_cast<double>(l.macs) / 1e6, 0) +
                      "M",
                  std::to_string(l.cycles),
                  TextTable::num(100.0 * l.utilization, 1) + "%",
                  TextTable::num(
                      static_cast<double>(l.dramLoadBits +
                                          l.dramStoreBits) / 1e6, 1),
                  std::to_string(e.cycles),
                  TextTable::times(static_cast<double>(e.cycles) /
                                   static_cast<double>(l.cycles), 2)});
    }
    t.print();

    std::printf("\nnote: Bit Fusion runs the 2x-wide WRPN model "
                "(~4x the MACs) at 4b/1b; Eyeriss runs the regular\n"
                "model at 16-bit. The per-layer speedups match the "
                "paper's §V-B1 table shape.\n");
    return 0;
}
