/**
 * @file
 * The eight benchmark DNNs of the paper (Table II), with the
 * per-layer bitwidths of Fig. 1.
 *
 * Two variants exist per benchmark:
 *  - quantized: the reduced-bitwidth model Bit Fusion and Stripes
 *    execute. For AlexNet and ResNet-18 these are the 2x-wide WRPN
 *    models (double channel counts), per paper §V-A.
 *  - baseline: the regular-width model Eyeriss (16-bit) and the
 *    GPUs execute.
 *
 * Topologies follow the sources cited in the paper (BinaryNet/QNN
 * nets for Cifar-10 and SVHN, TWN nets for LeNet-5 and VGG-7, PTB
 * recurrent models for RNN/LSTM); hidden sizes for RNN/LSTM are
 * chosen so MAC counts match Table II.
 */

#ifndef BITFUSION_DNN_MODEL_ZOO_H
#define BITFUSION_DNN_MODEL_ZOO_H

#include <string>
#include <vector>

#include "src/dnn/network.h"

namespace bitfusion {
namespace zoo {

/** Quantized and regular-width variants of one benchmark. */
struct Benchmark
{
    /** Benchmark name as it appears in the paper's figures. */
    std::string name;
    /** Reduced-bitwidth model for Bit Fusion / Stripes. */
    Network quantized;
    /** Regular model for Eyeriss / GPUs (treated as 16-bit/FP). */
    Network baseline;

    /**
     * The model a platform executes: quantized when it runs the
     * reduced-bitwidth model (PlatformSpec::runsQuantized), else
     * baseline.
     */
    const Network &variant(bool runsQuantized) const
    {
        return runsQuantized ? quantized : baseline;
    }
};

Benchmark alexnet();
Benchmark cifar10();
Benchmark lstm();
Benchmark lenet5();
Benchmark resnet18();
Benchmark rnn();
Benchmark svhn();
Benchmark vgg7();

/** All eight benchmarks in the paper's figure order. */
std::vector<Benchmark> all();

/** all()'s benchmark names, in its order, without building a network. */
const std::vector<std::string> &names();

// Bitwidth configurations used by the zoo (activations unsigned
// post-ReLU, weights signed except binary).

/** 8-bit activations x 8-bit weights. */
FusionConfig cfg8x8();
/** 4-bit activations x binary weights. */
FusionConfig cfg4x1();
/** Binary activations x binary weights. */
FusionConfig cfg1x1();
/** 2-bit activations x ternary weights. */
FusionConfig cfg2x2();
/** 4-bit activations x 4-bit weights. */
FusionConfig cfg4x4();
/** 16-bit x 16-bit (baseline precision). */
FusionConfig cfg16x16();

} // namespace zoo
} // namespace bitfusion

#endif // BITFUSION_DNN_MODEL_ZOO_H
