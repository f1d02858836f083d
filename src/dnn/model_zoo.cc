#include "src/dnn/model_zoo.h"

namespace bitfusion {
namespace zoo {

FusionConfig
cfg8x8()
{
    return FusionConfig{8, 8, false, true};
}

FusionConfig
cfg4x1()
{
    return FusionConfig{4, 1, false, false};
}

FusionConfig
cfg1x1()
{
    return FusionConfig{1, 1, false, false};
}

FusionConfig
cfg2x2()
{
    return FusionConfig{2, 2, false, true};
}

FusionConfig
cfg4x4()
{
    return FusionConfig{4, 4, false, true};
}

FusionConfig
cfg16x16()
{
    return FusionConfig{16, 16, true, true};
}

namespace {

/**
 * AlexNet (Krizhevsky one-weird-trick single-tower layout with the
 * original grouped conv2/4/5). @p width scales channel counts
 * (2x-wide WRPN model for Bit Fusion); the ImageNet input (3ch) and
 * the 1000-way classifier stay fixed.
 */
Network
buildAlexnet(unsigned width, FusionConfig first, FusionConfig mid,
             FusionConfig fc, FusionConfig last)
{
    const unsigned w = width;
    Network net("AlexNet", {});
    net.add(Layer::conv("conv1", 3, 227, 227, 96 * w, 11, 4, 0, first));
    net.add(Layer::activation("relu1", 96 * w, 55, 55));
    net.add(Layer::pool("pool1", 96 * w, 55, 55, 3, 2));
    net.add(Layer::conv("conv2", 96 * w, 27, 27, 256 * w, 5, 1, 2, mid, 2));
    net.add(Layer::activation("relu2", 256 * w, 27, 27));
    net.add(Layer::pool("pool2", 256 * w, 27, 27, 3, 2));
    net.add(Layer::conv("conv3", 256 * w, 13, 13, 384 * w, 3, 1, 1, mid));
    net.add(Layer::activation("relu3", 384 * w, 13, 13));
    net.add(Layer::conv("conv4", 384 * w, 13, 13, 384 * w, 3, 1, 1, mid, 2));
    net.add(Layer::activation("relu4", 384 * w, 13, 13));
    net.add(Layer::conv("conv5", 384 * w, 13, 13, 256 * w, 3, 1, 1, mid, 2));
    net.add(Layer::activation("relu5", 256 * w, 13, 13));
    net.add(Layer::pool("pool5", 256 * w, 13, 13, 3, 2));
    net.add(Layer::fc("fc6", 256 * w * 6 * 6, 4096 * w, fc));
    net.add(Layer::activation("relu6", 4096 * w, 1, 1));
    net.add(Layer::fc("fc7", 4096 * w, 4096 * w, fc));
    net.add(Layer::activation("relu7", 4096 * w, 1, 1));
    net.add(Layer::fc("fc8", 4096 * w, 1000, last));
    return net;
}

/**
 * The BinaryNet/QNN CIFAR-10 ConvNet: three double-conv stages of
 * width @p c1, 2*c1, 4*c1 plus two 1024-unit FC layers. Used (with
 * different widths) for both the Cifar-10 and SVHN benchmarks.
 */
Network
buildQnnConvnet(const std::string &name, unsigned c1, unsigned fc_units,
                FusionConfig first, FusionConfig bin, FusionConfig last)
{
    const unsigned c2 = 2 * c1, c3 = 4 * c1;
    Network net(name, {});
    net.add(Layer::conv("conv1", 3, 32, 32, c1, 3, 1, 1, first));
    net.add(Layer::activation("act1", c1, 32, 32));
    net.add(Layer::conv("conv2", c1, 32, 32, c1, 3, 1, 1, bin));
    net.add(Layer::activation("act2", c1, 32, 32));
    net.add(Layer::pool("pool1", c1, 32, 32, 2, 2));
    net.add(Layer::conv("conv3", c1, 16, 16, c2, 3, 1, 1, bin));
    net.add(Layer::activation("act3", c2, 16, 16));
    net.add(Layer::conv("conv4", c2, 16, 16, c2, 3, 1, 1, bin));
    net.add(Layer::activation("act4", c2, 16, 16));
    net.add(Layer::pool("pool2", c2, 16, 16, 2, 2));
    net.add(Layer::conv("conv5", c2, 8, 8, c3, 3, 1, 1, bin));
    net.add(Layer::activation("act5", c3, 8, 8));
    net.add(Layer::conv("conv6", c3, 8, 8, c3, 3, 1, 1, bin));
    net.add(Layer::activation("act6", c3, 8, 8));
    net.add(Layer::pool("pool3", c3, 8, 8, 2, 2));
    net.add(Layer::fc("fc1", c3 * 4 * 4, fc_units, bin));
    net.add(Layer::activation("act7", fc_units, 1, 1));
    net.add(Layer::fc("fc2", fc_units, fc_units, bin));
    net.add(Layer::activation("act8", fc_units, 1, 1));
    net.add(Layer::fc("fc3", fc_units, 10, last));
    return net;
}

/** One ResNet basic block (two 3x3 convs; optional downsample). */
void
addBasicBlock(Network &net, const std::string &prefix, unsigned in_c,
              unsigned out_c, unsigned in_hw, unsigned stride,
              FusionConfig bits)
{
    const unsigned out_hw = in_hw / stride;
    net.add(Layer::conv(prefix + "_conv1", in_c, in_hw, in_hw, out_c, 3,
                        stride, 1, bits));
    net.add(Layer::activation(prefix + "_relu1", out_c, out_hw, out_hw));
    net.add(Layer::conv(prefix + "_conv2", out_c, out_hw, out_hw, out_c, 3,
                        1, 1, bits));
    if (in_c != out_c || stride != 1) {
        net.add(Layer::conv(prefix + "_down", in_c, in_hw, in_hw, out_c, 1,
                            stride, 0, bits));
    }
    net.add(Layer::activation(prefix + "_relu2", out_c, out_hw, out_hw));
}

/** ResNet-18 at channel multiplier @p width. */
Network
buildResnet18(unsigned width, FusionConfig first, FusionConfig body,
              FusionConfig last)
{
    const unsigned w = width;
    Network net("ResNet-18", {});
    net.add(Layer::conv("conv1", 3, 224, 224, 64 * w, 7, 2, 3, first));
    net.add(Layer::activation("relu1", 64 * w, 112, 112));
    net.add(Layer::pool("pool1", 64 * w, 112, 112, 2, 2));
    addBasicBlock(net, "s1b1", 64 * w, 64 * w, 56, 1, body);
    addBasicBlock(net, "s1b2", 64 * w, 64 * w, 56, 1, body);
    addBasicBlock(net, "s2b1", 64 * w, 128 * w, 56, 2, body);
    addBasicBlock(net, "s2b2", 128 * w, 128 * w, 28, 1, body);
    addBasicBlock(net, "s3b1", 128 * w, 256 * w, 28, 2, body);
    addBasicBlock(net, "s3b2", 256 * w, 256 * w, 14, 1, body);
    addBasicBlock(net, "s4b1", 256 * w, 512 * w, 14, 2, body);
    addBasicBlock(net, "s4b2", 512 * w, 512 * w, 7, 1, body);
    net.add(Layer::pool("avgpool", 512 * w, 7, 7, 7, 7));
    net.add(Layer::fc("fc", 512 * w, 1000, last));
    return net;
}

/** TWN LeNet-5 (32/64 conv filters, 1024-unit FC). */
Network
buildLenet5(FusionConfig bits)
{
    Network net("LeNet-5", {});
    net.add(Layer::conv("conv1", 1, 28, 28, 32, 5, 1, 2, bits));
    net.add(Layer::activation("act1", 32, 28, 28));
    net.add(Layer::pool("pool1", 32, 28, 28, 2, 2));
    net.add(Layer::conv("conv2", 32, 14, 14, 64, 5, 1, 2, bits));
    net.add(Layer::activation("act2", 64, 14, 14));
    net.add(Layer::pool("pool2", 64, 14, 14, 2, 2));
    net.add(Layer::fc("fc1", 64 * 7 * 7, 1024, bits));
    net.add(Layer::activation("act3", 1024, 1, 1));
    net.add(Layer::fc("fc2", 1024, 10, bits));
    return net;
}

/** TWN VGG-7 on CIFAR-10 (96/192/384 double-conv stages). */
Network
buildVgg7(FusionConfig first, FusionConfig body)
{
    Network net("VGG-7", {});
    net.add(Layer::conv("conv1", 3, 32, 32, 96, 3, 1, 1, first));
    net.add(Layer::activation("act1", 96, 32, 32));
    net.add(Layer::conv("conv2", 96, 32, 32, 96, 3, 1, 1, body));
    net.add(Layer::activation("act2", 96, 32, 32));
    net.add(Layer::pool("pool1", 96, 32, 32, 2, 2));
    net.add(Layer::conv("conv3", 96, 16, 16, 192, 3, 1, 1, body));
    net.add(Layer::activation("act3", 192, 16, 16));
    net.add(Layer::conv("conv4", 192, 16, 16, 192, 3, 1, 1, body));
    net.add(Layer::activation("act4", 192, 16, 16));
    net.add(Layer::pool("pool2", 192, 16, 16, 2, 2));
    net.add(Layer::conv("conv5", 192, 8, 8, 384, 3, 1, 1, body));
    net.add(Layer::activation("act5", 384, 8, 8));
    net.add(Layer::conv("conv6", 384, 8, 8, 384, 3, 1, 1, body));
    net.add(Layer::activation("act6", 384, 8, 8));
    net.add(Layer::pool("pool3", 384, 8, 8, 2, 2));
    net.add(Layer::fc("fc1", 384 * 4 * 4, 1024, body));
    net.add(Layer::activation("act7", 1024, 1, 1));
    net.add(Layer::fc("fc2", 1024, 10, body));
    return net;
}

/** PTB vanilla RNN language model, one timestep. */
Network
buildRnn(FusionConfig bits)
{
    Network net("RNN", {});
    // Hidden size chosen so one timestep is ~17M MACs (Table II).
    net.add(Layer::rnn("rnn", 2915, 2915, bits));
    return net;
}

/** PTB LSTM language model, one timestep. */
Network
buildLstm(FusionConfig bits)
{
    Network net("LSTM", {});
    // 8*h^2 MACs per step ~= 13M (Table II) -> h = 1275.
    net.add(Layer::lstm("lstm", 1275, 1275, bits));
    return net;
}

} // namespace

Benchmark
alexnet()
{
    return Benchmark{
        "AlexNet",
        buildAlexnet(2, cfg8x8(), cfg4x1(), cfg4x1(), cfg8x8()),
        buildAlexnet(1, cfg16x16(), cfg16x16(), cfg16x16(), cfg16x16())};
}

Benchmark
cifar10()
{
    return Benchmark{
        "Cifar-10",
        buildQnnConvnet("Cifar-10", 128, 1024, cfg8x8(), cfg1x1(),
                        cfg8x8()),
        buildQnnConvnet("Cifar-10", 128, 1024, cfg16x16(), cfg16x16(),
                        cfg16x16())};
}

Benchmark
lstm()
{
    return Benchmark{"LSTM", buildLstm(cfg4x4()), buildLstm(cfg16x16())};
}

Benchmark
lenet5()
{
    return Benchmark{"LeNet-5", buildLenet5(cfg2x2()),
                     buildLenet5(cfg16x16())};
}

Benchmark
resnet18()
{
    return Benchmark{
        "ResNet-18",
        buildResnet18(2, cfg8x8(), cfg2x2(), cfg8x8()),
        buildResnet18(1, cfg16x16(), cfg16x16(), cfg16x16())};
}

Benchmark
rnn()
{
    return Benchmark{"RNN", buildRnn(cfg4x4()), buildRnn(cfg16x16())};
}

Benchmark
svhn()
{
    return Benchmark{
        "SVHN",
        buildQnnConvnet("SVHN", 64, 1024, cfg8x8(), cfg1x1(), cfg8x8()),
        buildQnnConvnet("SVHN", 64, 1024, cfg16x16(), cfg16x16(),
                        cfg16x16())};
}

Benchmark
vgg7()
{
    return Benchmark{"VGG-7", buildVgg7(cfg8x8(), cfg2x2()),
                     buildVgg7(cfg16x16(), cfg16x16())};
}

std::vector<Benchmark>
all()
{
    // Moved in one by one: a braced list would copy every network.
    std::vector<Benchmark> out;
    out.reserve(8);
    for (Benchmark (*make)() : {alexnet, cifar10, lstm, lenet5, resnet18,
                                rnn, svhn, vgg7})
        out.push_back(make());
    return out;
}

const std::vector<std::string> &
names()
{
    static const std::vector<std::string> list = {
        "AlexNet", "Cifar-10", "LSTM", "LeNet-5",
        "ResNet-18", "RNN", "SVHN", "VGG-7"};
    return list;
}

} // namespace zoo
} // namespace bitfusion
