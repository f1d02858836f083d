#include "src/sim/config.h"

#include "src/common/bitutils.h"
#include "src/common/logging.h"

namespace bitfusion {

std::string
AcceleratorConfig::compileKey() const
{
    // No iostream: building a platform sets up no locale.
    return std::to_string(ibufBits) + '/' + std::to_string(obufBits) + '/' +
           std::to_string(wbufBits) + "|b" + std::to_string(batch) +
           (layerFusion ? "|lf," : "|-,") + (loopOrdering ? "lo" : "-");
}

void
AcceleratorConfig::validate() const
{
    if (rows == 0 || cols == 0)
        BF_FATAL("array must have nonzero rows and columns");
    if (!isPowerOfTwo(bricksPerUnit))
        BF_FATAL("BitBricks per Fusion Unit must be a power of two");
    if (bwBitsPerCycle == 0)
        BF_FATAL("off-chip bandwidth must be nonzero");
    if (batch == 0)
        BF_FATAL("batch size must be nonzero");
    if (ibufBits == 0 || obufBits == 0 || wbufBits == 0)
        BF_FATAL("scratchpad capacities must be nonzero");
}

AcceleratorConfig
AcceleratorConfig::eyerissMatched45()
{
    AcceleratorConfig cfg;
    cfg.name = "bitfusion-eyeriss-matched-45nm";
    // 512 Fusion Units. The wide-shallow aspect ratio favours the
    // common large-output-channel layers and keeps the column drain
    // (one pooling/activation unit per column) rate-matched.
    cfg.rows = 8;
    cfg.cols = 64;
    cfg.ibufBits = 32ULL * 1024 * 8;
    cfg.obufBits = 16ULL * 1024 * 8;
    cfg.wbufBits = 64ULL * 1024 * 8; // 112 KB total
    cfg.bwBitsPerCycle = 128;
    cfg.freqMHz = 500.0;
    cfg.batch = 16;
    cfg.tech = TechNode::Nm45;
    return cfg;
}

AcceleratorConfig
AcceleratorConfig::stripesTileMatched45()
{
    // §V-A: each of Stripes' 16 tiles (4096 SIPs) is replaced by a
    // 512-Fusion-Unit array in the same 1.1 mm^2, with Bit Fusion
    // running at Stripes' area and frequency (980 MHz) and the same
    // total on-chip memory and DRAM interface.
    AcceleratorConfig cfg = eyerissMatched45();
    cfg.name = "bitfusion-stripes-tile-45nm";
    cfg.tiles = 16;
    cfg.freqMHz = 980.0;
    cfg.bwBitsPerCycle = 256;
    return cfg;
}

AcceleratorConfig
AcceleratorConfig::gpuScale16()
{
    AcceleratorConfig cfg;
    cfg.name = "bitfusion-4096fu-16nm";
    // 4096 Fusion Units as 8 data-parallel tiles of the 45 nm
    // 512-unit array; 896 KB SRAM total (112 KB per tile).
    cfg.rows = 8;
    cfg.cols = 64;
    cfg.tiles = 8;
    cfg.ibufBits = 32ULL * 1024 * 8;
    cfg.obufBits = 16ULL * 1024 * 8;
    cfg.wbufBits = 64ULL * 1024 * 8;
    cfg.bwBitsPerCycle = 1024; // GDDR-class interface (64 GB/s)
    cfg.freqMHz = 500.0;
    cfg.batch = 16;
    cfg.tech = TechNode::Nm16;
    return cfg;
}

} // namespace bitfusion
