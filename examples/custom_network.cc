/**
 * @file
 * Building and evaluating a custom quantized network on Bit Fusion:
 * a small keyword-spotting-style CNN+GRU-ish stack with per-layer
 * bitwidths, swept across candidate quantization policies to show
 * how bit-level fusion turns lower bitwidths into speedups.
 */

#include <cstdio>
#include <vector>

#include "src/common/table.h"
#include "src/dnn/model_zoo.h"
#include "src/sim/simulator.h"

namespace {

using namespace bitfusion;

/** A small audio-style network at the given uniform body config. */
Network
makeKwsNet(const FusionConfig &body)
{
    // 40x101 "MFCC spectrogram" input, 1 channel.
    Network net("kws-cnn-rnn", {});
    net.add(Layer::conv("conv1", 1, 40, 101, 64, 3, 1, 1, zoo::cfg8x8()));
    net.add(Layer::activation("act1", 64, 40, 101));
    net.add(Layer::pool("pool1", 64, 40, 101, 2, 2));
    net.add(Layer::conv("conv2", 64, 20, 50, 128, 3, 1, 1, body));
    net.add(Layer::activation("act2", 128, 20, 50));
    net.add(Layer::pool("pool2", 128, 20, 50, 2, 2));
    net.add(Layer::conv("conv3", 128, 10, 25, 128, 3, 1, 1, body));
    net.add(Layer::activation("act3", 128, 10, 25));
    net.add(Layer::rnn("rnn", 128 * 10 * 25 / 25, 512, body));
    net.add(Layer::fc("fc", 512, 12, zoo::cfg8x8()));
    return net;
}

} // namespace

int
main()
{
    using namespace bitfusion;

    const Simulator sim(AcceleratorConfig::eyerissMatched45());

    std::printf("Quantization-policy sweep on a custom keyword-"
                "spotting network\n(batch %u, Eyeriss-matched 45 nm "
                "configuration)\n\n",
                sim.config().batch);

    struct Policy
    {
        const char *name;
        FusionConfig body;
    };
    const Policy policies[] = {
        {"16-bit body", zoo::cfg16x16()},
        {"8-bit body", zoo::cfg8x8()},
        {"4-bit body", zoo::cfg4x4()},
        {"4b act/2b wgt", {4, 2, false, true}},
        {"ternary body", zoo::cfg2x2()},
    };

    TextTable t({"Policy", "us/sample", "Speedup", "uJ/sample",
                 "EnergyRed", "Peak MACs/cyc"});
    double base_sec = 0.0, base_e = 0.0;
    for (const auto &p : policies) {
        const Network net = makeKwsNet(p.body);
        const RunStats rs = sim.run(net);
        const double sec = rs.secondsPerSample();
        const double e = rs.energyPerSampleJ();
        if (base_sec == 0.0) {
            base_sec = sec;
            base_e = e;
        }
        const SystolicArray arr(sim.config());
        t.addRow({p.name, TextTable::num(sec * 1e6, 1),
                  TextTable::times(base_sec / sec, 2),
                  TextTable::num(e * 1e6, 2),
                  TextTable::times(base_e / e, 2),
                  std::to_string(arr.peakMacsPerCycle(p.body))});
    }
    t.print();

    std::printf("\nthe per-layer setup instruction re-fuses the "
                "BitBricks between blocks, so the 8-bit edge layers\n"
                "and the low-bitwidth body coexist in one compiled "
                "program.\n");
    return 0;
}
