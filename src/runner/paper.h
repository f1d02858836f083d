/**
 * @file
 * The published values of Bit Fusion (Sharma et al., ISCA 2018) that
 * the reproduction is compared against, one namespace per figure and
 * per-benchmark rows in zoo::all() order. Every "(paper)" column and
 * "paper ..." line of src/runner/figures.cc, and every test against
 * the paper, reads them here. Model inputs calibrated from the paper
 * (HwModel, the accelerator configs, Table III) stay with the models.
 */

#ifndef BITFUSION_RUNNER_PAPER_H
#define BITFUSION_RUNNER_PAPER_H

#include <cstddef>
#include <iterator>

namespace bitfusion {
namespace paper {

/** The eight benchmarks of Table II. */
inline constexpr std::size_t kBenchmarks = 8;

/** Bit Fusion's gain over a baseline. */
struct Improvement
{
    double speedup;
    double energy;
};

/** A range the paper gives as "~lo-hi". */
struct Range
{
    double lo;
    double hi;
};

namespace fig1 {
/** The "% Multiply-Add" column; every benchmark is above the floor. */
inline constexpr double macPct[] = {99.8, 99.8, 99.9, 99.4,
                                    99.9, 99.9, 99.8, 99.5};
static_assert(std::size(macPct) == kBenchmarks);
inline constexpr double macPctFloor = 99.0;
/** Average share of multiply-adds that need four or fewer bits. */
inline constexpr double fourBitsOrFewerPct = 97.3;
/** Regular-width AlexNet's share of MACs at 4b/1b; the rest 8b/8b. */
inline constexpr double alexNet4x1Pct = 85.0;
} // namespace fig1

namespace table2 {
/** Multiply-add Mops and model weights in MB. */
struct Row
{
    double mops;
    double weightMB;
};
inline constexpr Row benchmarks[] = {
    {2678.0, 116.3}, {617.0, 3.3}, // AlexNet, Cifar-10
    {13.0, 6.2},     {16.0, 0.5},  // LSTM, LeNet-5
    {4269.0, 13.0},  {17.0, 8.0},  // ResNet-18, RNN
    {158.0, 0.8},    {317.0, 2.7}, // SVHN, VGG-7
};
static_assert(std::size(benchmarks) == kBenchmarks);
} // namespace table2

/** The Fusion Unit against the temporal design; units per 1.1 mm^2. */
namespace fig10 {
inline constexpr double areaReduction = 3.5;
inline constexpr double powerReduction = 3.2;
inline constexpr unsigned fusionUnits = 512;
} // namespace fig10

/** Bit Fusion over Eyeriss. */
namespace fig13 {
inline constexpr Improvement benchmarks[] = {
    {1.9, 1.5},  {13.0, 14.0}, // AlexNet, Cifar-10
    {2.4, 4.8},  {2.7, 4.3},   // LSTM, LeNet-5
    {1.9, 1.9},  {2.7, 5.1},   // ResNet-18, RNN
    {8.6, 10.0}, {7.7, 9.9},   // SVHN, VGG-7
};
static_assert(std::size(benchmarks) == kBenchmarks);
inline constexpr Improvement geomean = {3.90, 5.10};

/** A group of AlexNet layers in the §V-B1 per-layer table. */
struct LayerGroup
{
    const char *kind;
    const char *config;
    Improvement gain;
};
/** The first group is conv1 alone, the only 8b/8b convolution. */
inline constexpr LayerGroup alexNetLayers[] = {
    {"conv", "8/8", {1.67, 6.5}},
    {"conv", "4/1", {6.4, 16.8}},
    {"fc", "4/1", {3.3, 30.7}},
    {"fc", "8/8", {1.0, 10.3}},
};
} // namespace fig13

/** Energy breakdown, in percent of each platform's total. */
namespace fig14 {
inline constexpr Range bitFusionDramPct = {67, 75};
inline constexpr Range bitFusionBufferPct = {13, 25};
inline constexpr Range bitFusionComputePct = {7, 11};
inline constexpr double bitFusionRfPct = 0;
inline constexpr Range eyerissDramPct = {21, 69};
} // namespace fig14

/** Speedup geomean at 32 to 512 bits/cycle, over 128. */
namespace fig15 {
inline constexpr double geomean[] = {0.25, 0.51, 1.00, 1.91, 2.86};
} // namespace fig15

/** Per-sample speedup at batch 1 to 256, over batch 1. */
namespace fig16 {
inline constexpr double geomean[] = {1.00, 1.66, 2.43, 2.68, 2.68};
inline constexpr double recurrentMax = 21;
inline constexpr Range cnn = {1.2, 1.5};
} // namespace fig16

/** Speedup geomean over Tegra X2 (FP32), 16 nm, and the power. */
namespace fig17 {
inline constexpr double titanXpFp32 = 12;
inline constexpr double titanXpInt8 = 19;
inline constexpr double bitFusion = 16;
inline constexpr double bitFusionMw = 895;
inline constexpr double gpuTdpW = 250;
} // namespace fig17

/** Bit Fusion over Stripes. */
namespace fig18 {
inline constexpr Improvement benchmarks[] = {
    {1.8, 2.7}, {4.0, 6.0}, // AlexNet, Cifar-10
    {2.1, 3.1}, {5.2, 7.8}, // LSTM, LeNet-5
    {2.6, 4.4}, {2.0, 3.0}, // ResNet-18, RNN
    {1.8, 2.7}, {2.9, 4.4}, // SVHN, VGG-7
};
static_assert(std::size(benchmarks) == kBenchmarks);
inline constexpr Improvement geomean = {2.61, 3.97};
} // namespace fig18

} // namespace paper
} // namespace bitfusion

#endif // BITFUSION_RUNNER_PAPER_H
