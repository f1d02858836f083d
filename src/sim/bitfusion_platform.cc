#include "src/sim/bitfusion_platform.h"

#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/sim/simulator.h"

namespace bitfusion {

namespace {

PlatformSpec
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
    BF_FATAL("unknown bitfusion variant '", variant,
             "' (try 45nm, 16nm, stripes-tile)");
}

} // namespace

PlatformSpec
bitfusionPlatform(AcceleratorConfig cfg, std::string name)
{
    PlatformSpec spec;
    spec.name = name.empty() ? cfg.name : std::move(name);
    spec.kind = "bitfusion";
    spec.runsQuantized = true;
    spec.batch = cfg.batch;
    spec.config = PlatformConfig::wrap(std::move(cfg));
    return spec;
}

void
registerBitFusionPlatform(PlatformRegistry &r)
{
    r.add({"bitfusion", "45nm (default) | 16nm | stripes-tile",
           "the fusible bit-brick systolic array (paper design)",
           parseBitfusion,
           [](const PlatformSpec &spec) -> std::unique_ptr<Platform> {
               AcceleratorConfig cfg =
                   spec.config.as<AcceleratorConfig>();
               cfg.batch = spec.batch;
               return std::make_unique<Simulator>(cfg);
           }});
}

} // namespace bitfusion
