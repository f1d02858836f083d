#include "src/arch/spatial_fusion.h"

#include "src/common/bitutils.h"
#include "src/common/logging.h"

namespace bitfusion {

SpatialFusionTree::SpatialFusionTree(unsigned bricks) : _bricks(bricks)
{
    BF_ASSERT(bricks >= 1 && isPowerOfTwo(bricks),
              "fusion tree must span a power-of-two BitBrick count");
}

unsigned
SpatialFusionTree::levels() const
{
    // log4: each level merges four children.
    unsigned n = _bricks;
    unsigned lv = 0;
    while (n > 1) {
        n = static_cast<unsigned>(divCeil(n, 4));
        ++lv;
    }
    return lv;
}

unsigned
SpatialFusionTree::adderCount() const
{
    // A 4-ary reduction over n leaves uses ceil(n/4) + ceil(n/16) +
    // ... adders.
    unsigned n = _bricks;
    unsigned adders = 0;
    while (n > 1) {
        n = static_cast<unsigned>(divCeil(n, 4));
        adders += n;
    }
    return adders;
}

unsigned
SpatialFusionTree::shifterCount() const
{
    return 3 * adderCount();
}

std::int64_t
SpatialFusionTree::combine(const std::vector<BitBrickOp> &ops) const
{
    BF_ASSERT(ops.size() <= _bricks,
              "tree over ", _bricks, " BitBricks given ", ops.size(),
              " operations");
    std::int64_t sum = 0;
    for (const auto &op : ops) {
        sum += BitBrick::shifted(
            BitBrick::multiplyGateLevel(op.x, op.y, op.sx, op.sy),
            op.shift);
    }
    return sum;
}

} // namespace bitfusion
