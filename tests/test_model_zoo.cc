/**
 * @file
 * Model-zoo tests: the eight benchmarks must reproduce the paper's
 * Table II op counts and the Fig. 1 bitwidth characteristics.
 */

#include <gtest/gtest.h>

#include "src/dnn/model_zoo.h"
#include "src/runner/paper.h"

namespace bitfusion {
namespace {

TEST(ModelZoo, AllEightBenchmarksPresent)
{
    const auto all = zoo::all();
    ASSERT_EQ(all.size(), 8u);
    const char *names[] = {"AlexNet", "Cifar-10", "LSTM",  "LeNet-5",
                           "ResNet-18", "RNN",    "SVHN",  "VGG-7"};
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i].name, names[i]);
}

/** Quantized-model Mops, against Table II's column. */
double
mops(const zoo::Benchmark &b)
{
    return static_cast<double>(b.quantized.totalMacs()) / 1e6;
}

/** Mops within tolerance of Table II (ResNet-18 deviates; see
 *  docs/validation.md). */
TEST(ModelZoo, TableTwoMacCounts)
{
    const auto all = zoo::all();
    ASSERT_EQ(all.size(), paper::kBenchmarks);
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i].name == "ResNet-18")
            continue;
        const double paperMops = paper::table2::benchmarks[i].mops;
        EXPECT_NEAR(mops(all[i]), paperMops, 0.15 * paperMops)
            << all[i].name;
    }
}

TEST(ModelZoo, AlexNetMatchesPaperExactly)
{
    // Table II counts the 2x-wide WRPN model.
    const auto b = zoo::alexnet();
    EXPECT_NEAR(mops(b), paper::table2::benchmarks[0].mops, 5.0);
    // Regular model ~ 666M + 58.6M FC MACs.
    EXPECT_NEAR(static_cast<double>(b.baseline.totalMacs()) / 1e6,
                724.0, 5.0);
}

TEST(ModelZoo, Cifar10MatchesPaperExactly)
{
    EXPECT_NEAR(mops(zoo::cifar10()), paper::table2::benchmarks[1].mops,
                2.0);
}

TEST(ModelZoo, RecurrentModelsMatchTableTwo)
{
    EXPECT_NEAR(mops(zoo::rnn()), paper::table2::benchmarks[5].mops, 0.5);
    EXPECT_NEAR(mops(zoo::lstm()), paper::table2::benchmarks[2].mops, 0.5);
}

TEST(ModelZoo, MacFractionAboveNinetyNinePercent)
{
    // The Fig. 1 table: >99% of all ops are multiply-adds.
    for (const auto &b : zoo::all()) {
        EXPECT_GT(100.0 * b.quantized.macFraction(),
                  paper::fig1::macPctFloor)
            << b.name;
    }
}

TEST(ModelZoo, BinaryNetworksAreBinaryDominated)
{
    // Fig. 1: Cifar-10 and SVHN run ~99% of MACs at 1b/1b.
    for (const auto &b : {zoo::cifar10(), zoo::svhn()}) {
        const auto prof = b.quantized.macBitwidthProfile();
        const auto it = prof.find("1b/1b");
        ASSERT_NE(it, prof.end()) << b.name;
        EXPECT_GT(it->second, 0.95) << b.name;
    }
}

TEST(ModelZoo, TernaryNetworksUseTwoBit)
{
    for (const auto &b : {zoo::lenet5(), zoo::vgg7()}) {
        const auto prof = b.quantized.macBitwidthProfile();
        const auto it = prof.find("2b/2b");
        ASSERT_NE(it, prof.end()) << b.name;
        EXPECT_GT(it->second, 0.90) << b.name;
    }
}

TEST(ModelZoo, AlexNetBitwidthSplitMatchesFigOne)
{
    // Fig. 1: AlexNet splits between 4b/1b (dominant) and 8b/8b
    // (first conv + last FC). Fig. 1's split is on the regular model;
    // the 2x-wide model shifts further toward 4b/1b because
    // the interior layers quadruple while conv1 only doubles.
    const auto prof = zoo::alexnet().quantized.macBitwidthProfile();
    ASSERT_TRUE(prof.count("4b/1b"));
    ASSERT_TRUE(prof.count("8b/8b"));
    EXPECT_GT(prof.at("4b/1b"), 0.80);
    EXPECT_LT(prof.at("8b/8b"), 0.20);
    EXPECT_NEAR(prof.at("4b/1b") + prof.at("8b/8b"), 1.0, 1e-9);

    // The regular-width model reproduces the published split.
    Network regular = zoo::alexnet().baseline;
    std::vector<Layer> layers = regular.layers();
    for (auto &l : layers) {
        if (!l.usesMacArray())
            continue;
        const bool edge = l.name == "conv1" || l.name == "fc8";
        l.bits = edge ? zoo::cfg8x8() : zoo::cfg4x1();
    }
    const auto rprof =
        Network("a", layers).macBitwidthProfile();
    const double published = paper::fig1::alexNet4x1Pct / 100.0;
    EXPECT_NEAR(rprof.at("4b/1b"), published, 0.03);
    EXPECT_NEAR(rprof.at("8b/8b"), 1.0 - published, 0.03);
}

TEST(ModelZoo, RecurrentsAreFourBit)
{
    for (const auto &b : {zoo::rnn(), zoo::lstm()}) {
        const auto prof = b.quantized.macBitwidthProfile();
        ASSERT_TRUE(prof.count("4b/4b")) << b.name;
        EXPECT_DOUBLE_EQ(prof.at("4b/4b"), 1.0) << b.name;
    }
}

TEST(ModelZoo, WideModelsQuadrupleConvMacs)
{
    // The 2x-wide WRPN models double channels on both sides of the
    // interior convolutions -> ~4x MACs vs the regular baselines.
    const auto a = zoo::alexnet();
    const double ratio =
        static_cast<double>(a.quantized.totalMacs()) /
        static_cast<double>(a.baseline.totalMacs());
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 4.2);
    const auto r = zoo::resnet18();
    const double rr = static_cast<double>(r.quantized.totalMacs()) /
                      static_cast<double>(r.baseline.totalMacs());
    EXPECT_GT(rr, 3.0);
    EXPECT_LT(rr, 4.2);
}

TEST(ModelZoo, BaselinesShareTopologyWhereNotWidened)
{
    // Cifar-10/SVHN/LeNet/VGG-7/RNN/LSTM baselines have identical op
    // counts to their quantized variants (only bitwidths differ).
    for (const auto &b : {zoo::cifar10(), zoo::svhn(), zoo::lenet5(),
                          zoo::vgg7(), zoo::rnn(), zoo::lstm()}) {
        EXPECT_EQ(b.quantized.totalMacs(), b.baseline.totalMacs())
            << b.name;
        EXPECT_EQ(b.quantized.totalWeights(), b.baseline.totalWeights())
            << b.name;
    }
}

TEST(ModelZoo, BaselinesAreSixteenBit)
{
    for (const auto &b : zoo::all())
        for (const auto &l : b.baseline.layers()) {
            if (l.usesMacArray()) {
                EXPECT_EQ(l.bits.aBits, 16u) << b.name << "/" << l.name;
            }
        }
}

TEST(ModelZoo, ConvNetStructureSane)
{
    // For the strictly sequential networks, every layer's input
    // shape chains from the previous layer's output shape.
    // (ResNet-18 is excluded: residual/downsample branches are not
    // sequential.)
    for (const auto &b : {zoo::alexnet(), zoo::cifar10(), zoo::svhn(),
                          zoo::lenet5(), zoo::vgg7()}) {
        std::uint64_t prev_out = 0;
        for (const auto &l : b.quantized.layers()) {
            if (prev_out != 0) {
                EXPECT_EQ(l.inputCount(), prev_out)
                    << b.name << "/" << l.name;
            }
            prev_out = l.outputCount();
        }
    }
}

} // namespace
} // namespace bitfusion
