#include "src/sim/bitfusion_platform.h"

#include <utility>

#include "src/sim/simulator.h"

namespace bitfusion {

namespace {

std::optional<PlatformSpec>
parseBitfusion(const std::string &variant)
{
    const std::string v = canonicalVariant(variant);
    if (v.empty() || v == "45nm" || v == "eyerissmatched")
        return bitfusionPlatform(AcceleratorConfig::eyerissMatched45());
    if (v == "16nm" || v == "gpuscale")
        return bitfusionPlatform(AcceleratorConfig::gpuScale16());
    if (v == "stripestile")
        return bitfusionPlatform(
            AcceleratorConfig::stripesTileMatched45());
    return std::nullopt;
}

} // namespace

PlatformSpec
bitfusionPlatform(AcceleratorConfig cfg, std::string name)
{
    return specOf("bitfusion", name.empty() ? cfg.name : std::move(name),
                  true, cfg);
}

void
registerBitFusionPlatform(PlatformRegistry &r)
{
    r.add({"bitfusion", "45nm (default) | 16nm | stripes-tile",
           "the fusible bit-brick systolic array (paper design)",
           parseBitfusion, buildModel<Simulator, AcceleratorConfig>});
}

} // namespace bitfusion
