/**
 * @file
 * Decomposition of variable-bitwidth multiplies into BitBrick
 * operations (paper Figs. 6 and 7, Equations 1-3).
 *
 * An n-bit operand is split into 2-bit digits; every pair of digits
 * (one from each operand) becomes one BitBrickOp whose product is
 * shifted left by the sum of the digit positions. Only the top digit
 * of a signed operand is treated as signed; lower digits are
 * unsigned, exactly as in the paper's recursive formulation.
 * Oracle of the native multiply: DecomposeSweep.*, NativeMultiply.*.
 */

#ifndef BITFUSION_ARCH_DECOMPOSE_H
#define BITFUSION_ARCH_DECOMPOSE_H

#include <cstdint>
#include <vector>

#include "src/arch/bitbrick.h"
#include "src/arch/fusion_config.h"

namespace bitfusion {

/**
 * Decompose a single multiply into BitBrick operations.
 *
 * @param a Activation value (must be representable in cfg.aBits with
 *          cfg.aSigned).
 * @param w Weight value (same contract for the weight side).
 * @param cfg Operand bitwidths and signedness.
 * @return One BitBrickOp per digit pair; the sum of their shifted
 *         products equals a*w.
 */
std::vector<BitBrickOp> decomposeMultiply(std::int64_t a, std::int64_t w,
                                          const FusionConfig &cfg);

/**
 * Evaluate a decomposition by summing shifted BitBrick products;
 * the reference for all fusion-correctness property tests.
 */
std::int64_t evaluateDecomposition(const std::vector<BitBrickOp> &ops);

/**
 * Check that a value is representable under (bits, is_signed);
 * used to validate operands at API boundaries.
 */
bool representable(std::int64_t v, unsigned bits, bool is_signed);

} // namespace bitfusion

#endif // BITFUSION_ARCH_DECOMPOSE_H
