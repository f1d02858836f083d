/**
 * @file
 * BitBrick: the basic 2-bit compute unit of Bit Fusion (paper Fig. 5).
 *
 * A BitBrick multiplies two 2-bit operands, each tagged with a sign
 * bit. Signed operands lie in [-2, 1], unsigned operands in [0, 3].
 * Internally the operands are sign/zero-extended to 3 bits and fed to
 * a 3-bit signed multiplier built from half/full adders, producing a
 * 6-bit signed product.
 *
 * Two implementations are provided: a behavioural one (plain integer
 * multiply after decode) and a gate-level one that models the Fig. 5
 * half-adder/full-adder array. Tests check them against each other
 * exhaustively over all 2^6 operand/sign combinations.
 * Oracle of Fig. 10: BitBrickExhaustive.*.
 */

#ifndef BITFUSION_ARCH_BITBRICK_H
#define BITFUSION_ARCH_BITBRICK_H

#include <cstdint>

namespace bitfusion {

/** One 2-bit multiply issued to a BitBrick. */
struct BitBrickOp
{
    /** Low 2 bits of the first operand (raw encoding). */
    std::uint8_t x;
    /** Low 2 bits of the second operand (raw encoding). */
    std::uint8_t y;
    /** Whether x is the signed (most-significant) digit. */
    bool sx;
    /** Whether y is the signed (most-significant) digit. */
    bool sy;
    /**
     * Left-shift applied to the product by the surrounding shift-add
     * logic (0, 2, 4, ... depending on digit positions).
     */
    unsigned shift;
};

/**
 * The 2-bit multiply unit.
 *
 * Stateless; both entry points are static. The class exists to give
 * the microarchitectural unit a home and to count gate-level
 * resources for the area model.
 */
class BitBrick
{
  public:
    /**
     * Decode a raw 2-bit operand into its integer value.
     *
     * @param raw Low two bits of the operand encoding.
     * @param is_signed Whether the digit carries the operand's sign.
     * @return Value in [-2, 1] if signed, [0, 3] otherwise.
     */
    static int decode(std::uint8_t raw, bool is_signed);

    /**
     * Behavioural product of one BitBrick operation (before shift).
     *
     * @return 6-bit signed product in [-6, 9].
     */
    static int multiply(std::uint8_t x, std::uint8_t y, bool sx, bool sy);

    /**
     * Gate-level product: models the Fig. 5 HA/FA array over 3-bit
     * sign-extended operands with 6-bit two's-complement arithmetic.
     * Must equal multiply() for every input.
     */
    static int multiplyGateLevel(std::uint8_t x, std::uint8_t y, bool sx,
                                 bool sy);

    /**
     * @p product << @p shift, shifted in the unsigned domain:
     * left-shifting a negative value is undefined behaviour pre-C++20
     * (UBSan flags it); the round-trip is exact on two's complement.
     */
    static std::int64_t
    shifted(std::int64_t product, unsigned shift)
    {
        return static_cast<std::int64_t>(
            static_cast<std::uint64_t>(product) << shift);
    }

    /** Product of an op including its shift amount. */
    static std::int64_t
    evaluate(const BitBrickOp &op)
    {
        return shifted(multiply(op.x, op.y, op.sx, op.sy), op.shift);
    }
};

} // namespace bitfusion

#endif // BITFUSION_ARCH_BITBRICK_H
