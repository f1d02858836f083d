/**
 * @file
 * Minimal integer tensor used by the functional reference executor
 * and the ISA interpreter. Values are stored as int64 regardless of
 * the logical bitwidth; the logical width/signedness is carried
 * alongside so producers can validate representability.
 * Oracle operand type: Tensor.* checks it.
 */

#ifndef BITFUSION_DNN_TENSOR_H
#define BITFUSION_DNN_TENSOR_H

#include <cstdint>
#include <vector>

#include "src/common/prng.h"

namespace bitfusion {

/** Dense CHW / flat integer tensor. */
class Tensor
{
  public:
    Tensor() = default;

    /** Construct a zero-filled CHW tensor. */
    Tensor(unsigned c, unsigned h, unsigned w);

    /** Construct a zero-filled flat tensor. */
    explicit Tensor(std::size_t n);

    unsigned c() const { return _c; }
    unsigned h() const { return _h; }
    unsigned w() const { return _w; }
    std::size_t size() const { return data.size(); }

    std::int64_t &at(unsigned c, unsigned y, unsigned x);
    std::int64_t at(unsigned c, unsigned y, unsigned x) const;

    std::int64_t &operator[](std::size_t i) { return data[i]; }
    std::int64_t operator[](std::size_t i) const { return data[i]; }

    const std::vector<std::int64_t> &raw() const { return data; }

    /** Fill with uniform values representable in (bits, is_signed). */
    void fillRandom(Prng &prng, unsigned bits, bool is_signed);

  private:
    unsigned _c = 0, _h = 0, _w = 0;
    std::vector<std::int64_t> data;
};

} // namespace bitfusion

#endif // BITFUSION_DNN_TENSOR_H
