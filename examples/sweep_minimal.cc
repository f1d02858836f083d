/**
 * @file
 * Minimal sweep-engine example: build a custom grid (two Bit Fusion
 * configurations x two benchmarks x three batch sizes), run it on
 * the thread pool, and consume the deterministic result table.
 */

#include <cstdio>

#include "src/dnn/model_zoo.h"
#include "src/runner/sweep.h"
#include "src/sim/bitfusion_platform.h"

int
main()
{
    using namespace bitfusion;

    // A bandwidth ablation of the Eyeriss-matched configuration.
    AcceleratorConfig fast = AcceleratorConfig::eyerissMatched45();
    fast.bwBitsPerCycle = 512;

    SweepSpec spec;
    spec.name = "example";
    spec.platforms = {
        bitfusionPlatform(AcceleratorConfig::eyerissMatched45(), "base"),
        bitfusionPlatform(fast, "bw512"),
    };
    spec.networks = {zoo::lenet5(), zoo::lstm()};
    spec.batches = {1, 16, 64};

    const SweepResult result = SweepRunner().run(spec);
    std::printf("%zu cells, %zu compiles, %zu cache hits\n\n",
                result.cells().size(), result.compileCount(),
                result.cacheHits());

    // The bandwidth-bound LSTM speeds up with DRAM bandwidth; the
    // reuse-heavy CNN barely moves (the Fig. 15 effect).
    for (const auto &cell : result.cells()) {
        std::printf("%-6s %-8s batch %-3u -> %8.1f us/sample\n",
                    cell.platform.c_str(), cell.network.c_str(),
                    cell.batch,
                    cell.stats.secondsPerSample() * 1e6);
    }

    const double base =
        result.stats("base", "LSTM", 16).secondsPerSample();
    const double fastSec =
        result.stats("bw512", "LSTM", 16).secondsPerSample();
    std::printf("\nLSTM @ batch 16: 4x bandwidth -> %.2fx faster\n",
                base / fastSec);
    return 0;
}
