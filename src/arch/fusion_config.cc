#include "src/arch/fusion_config.h"

#include <charconv>
#include <limits>

#include "src/common/bitutils.h"
#include "src/common/logging.h"

namespace bitfusion {

namespace {

bool
supportedWidth(unsigned bits)
{
    return bits == 1 || bits == 2 || bits == 4 || bits == 8 || bits == 16;
}

/** Spatial share of an operand width (16-bit operands split 8/8). */
unsigned
spatialBits(unsigned bits)
{
    return bits > 8 ? 8 : bits;
}

} // namespace

void
FusionConfig::validate() const
{
    if (!supportedWidth(aBits) || !supportedWidth(wBits)) {
        BF_FATAL("unsupported fusion bitwidths ", aBits, "b/", wBits,
                 "b; supported widths are 1, 2, 4, 8, 16");
    }
    if (aBits == 1 && aSigned)
        BF_FATAL("1-bit (binary) activations must be unsigned (0, +1)");
    if (wBits == 1 && wSigned)
        BF_FATAL("1-bit (binary) weights must be unsigned (0, +1)");
}

unsigned
FusionConfig::aLanes() const
{
    return bitBrickLanes(spatialBits(aBits));
}

unsigned
FusionConfig::wLanes() const
{
    return bitBrickLanes(spatialBits(wBits));
}

unsigned
FusionConfig::bricksPerProduct() const
{
    return aLanes() * wLanes();
}

unsigned
FusionConfig::temporalPasses() const
{
    return (aBits > 8 ? 2 : 1) * (wBits > 8 ? 2 : 1);
}

unsigned
FusionConfig::fusedPEs(unsigned bricks) const
{
    BF_ASSERT(bricks >= bricksPerProduct(),
              "fusion unit of ", bricks, " BitBricks cannot form a ",
              toString(), " Fused-PE");
    return bricks / bricksPerProduct();
}

std::string
FusionConfig::toString() const
{
    // Labels every simulated layer: one buffer, one string.
    constexpr int digits = std::numeric_limits<unsigned>::digits10 + 1;
    char buf[2 * digits + 3];
    char *end = std::to_chars(buf, buf + digits, aBits).ptr;
    *end++ = 'b';
    *end++ = '/';
    end = std::to_chars(end, end + digits, wBits).ptr;
    *end++ = 'b';
    return std::string(buf, end);
}

} // namespace bitfusion
