/**
 * @file
 * Functional fixed-point reference executor.
 *
 * This is the golden model: plain nested-loop integer execution of
 * each layer kind. The ISA interpreter's output must match it
 * bit-exactly, which ties the whole compile-execute path back to
 * textbook semantics.
 * Oracle of the interpreter: Reference.*, then InterpreterConv.*.
 */

#ifndef BITFUSION_DNN_REFERENCE_H
#define BITFUSION_DNN_REFERENCE_H

#include "src/dnn/layer.h"
#include "src/dnn/tensor.h"

namespace bitfusion {

/** Nested-loop reference implementations of the layer kinds. */
class Reference
{
  public:
    /**
     * Convolution: input (inC, inH, inW), weights flat
     * (outC, inC/groups, kH, kW), zero padding, no bias.
     */
    static Tensor conv(const Layer &layer, const Tensor &input,
                       const Tensor &weights);

    /** Fully connected: out[o] = sum_i in[i] * w[o*inC + i]. */
    static Tensor fullyConnected(const Layer &layer, const Tensor &input,
                                 const Tensor &weights);

    /** Max pooling. */
    static Tensor maxPool(const Layer &layer, const Tensor &input);

    /** ReLU activation. */
    static Tensor relu(const Tensor &input);

    /**
     * Requantize to an unsigned @p bits value with a right shift:
     * v -> clamp(v >> shift, 0, 2^bits - 1). The simple static
     * scaling quantized inference uses between layers.
     */
    static Tensor requantize(const Tensor &input, unsigned bits,
                             unsigned shift);

    /**
     * Vanilla RNN cell, one timestep:
     * h'[j] = relu(sum_i x[i]*Wx[j,i] + sum_k h[k]*Wh[j,k]).
     * Weights are flat: Wx (hidden x inC) then Wh (hidden x hidden).
     */
    static Tensor rnnCell(const Layer &layer, const Tensor &x,
                          const Tensor &h, const Tensor &weights);

    /**
     * Fixed-point hard sigmoid in Q(frac_bits):
     * y = clamp(x/4 + 0.5, 0, 1). The piecewise-linear gate
     * nonlinearity quantized recurrent models use.
     */
    static std::int64_t hardSigmoid(std::int64_t x, unsigned frac_bits);

    /** Fixed-point hard tanh: y = clamp(x, -1, 1) in Q(frac_bits). */
    static std::int64_t hardTanh(std::int64_t x, unsigned frac_bits);

    /**
     * LSTM cell, one timestep, fixed point Q(frac_bits).
     *
     * Weights are flat gate blocks [Wi | Wf | Wg | Wo], each of shape
     * (hidden x (inC + hidden)) over the concatenated [x; h] input
     * (the layout the compiler's matrix block produces). The state
     * tensors c and h update in place semantics:
     *   i = hsig(zi), f = hsig(zf), g = htanh(zg), o = hsig(zo)
     *   c' = f*c + i*g ;  h' = o * htanh(c')
     * with Q-format rescaling after every product.
     *
     * @return Tensor of 2*hidden elements: h' followed by c'.
     */
    static Tensor lstmCell(const Layer &layer, const Tensor &x,
                           const Tensor &h, const Tensor &c,
                           const Tensor &weights, unsigned frac_bits);

  private:
    Reference() = default;
};

} // namespace bitfusion

#endif // BITFUSION_DNN_REFERENCE_H
