#include "src/core/platform_registry.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <utility>

#include "src/common/logging.h"

namespace bitfusion {

// Each in-tree backend implements one of these in its own
// registration unit and registers itself through the same add() an
// out-of-tree backend calls at runtime. Adding a machine in-tree is
// one forward declaration plus one call here; core headers never
// name a backend type.
void registerBitFusionPlatform(PlatformRegistry &r);
void registerEyerissPlatform(PlatformRegistry &r);
void registerStripesPlatform(PlatformRegistry &r);
void registerGpuPlatform(PlatformRegistry &r);
void registerMxuPlatform(PlatformRegistry &r);
void registerDianNaoPlatform(PlatformRegistry &r);

std::string
canonicalVariant(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '-' || c == '_')
            continue;
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
}

PlatformRegistry &
PlatformRegistry::builtin()
{
    static PlatformRegistry registry = [] {
        PlatformRegistry r;
        registerBitFusionPlatform(r);
        registerEyerissPlatform(r);
        registerStripesPlatform(r);
        registerGpuPlatform(r);
        registerMxuPlatform(r);
        registerDianNaoPlatform(r);
        return r;
    }();
    return registry;
}

void
PlatformRegistry::add(Entry entry)
{
    if (find(entry.kind) != nullptr)
        BF_FATAL("duplicate platform kind '", entry.kind, "'");
    entries_.push_back(std::move(entry));
}

const PlatformRegistry::Entry *
PlatformRegistry::find(const std::string &kind) const
{
    for (const auto &entry : entries_) {
        if (entry.kind == kind)
            return &entry;
    }
    return nullptr;
}

std::unique_ptr<Platform>
PlatformRegistry::build(const PlatformSpec &spec) const
{
    const Entry *entry = find(spec.kind);
    if (entry == nullptr)
        BF_FATAL("no registered platform kind '", spec.kind, "'");
    if (spec.batch == 0)
        BF_FATAL("platform spec '", spec.name, "' has a zero batch");
    return entry->build(spec);
}

std::string
PlatformRegistry::parse(const std::string &token, PlatformSpec &out) const
{
    const auto colon = token.find(':');
    const std::string kind = token.substr(0, colon);
    const std::string variant =
        colon == std::string::npos ? "" : token.substr(colon + 1);
    const Entry *entry = find(kind);
    if (entry == nullptr) {
        std::string known;
        for (const auto &e : entries_)
            known += (known.empty() ? "" : ", ") + e.kind;
        return "unknown platform '" + kind + "' (known: " + known + ")";
    }
    std::optional<PlatformSpec> spec = entry->parse(variant);
    if (!spec) {
        return "unknown " + kind + " variant '" + variant + "'; " + kind +
               " takes " + entry->variants;
    }
    out = std::move(*spec);
    return "";
}

PlatformSpec
PlatformRegistry::parse(const std::string &token) const
{
    PlatformSpec spec;
    const std::string error = parse(token, spec);
    if (!error.empty())
        BF_FATAL(error);
    return spec;
}

std::string
PlatformRegistry::parseFleet(const std::string &csv,
                             std::vector<PlatformSpec> &out) const
{
    out.clear();
    if (csv.empty())
        return "fleet list must name at least one platform";
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = csv.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? csv.size() : comma;
        const std::string token = csv.substr(start, end - start);
        if (token.empty()) {
            return "fleet list '" + csv +
                   "' has an empty element (expected "
                   "KIND[:VARIANT],KIND[:VARIANT],...)";
        }
        const std::string error = parse(token, out.emplace_back());
        if (!error.empty())
            return error;
        if (comma == std::string::npos)
            return "";
        start = comma + 1;
    }
}

std::vector<PlatformSpec>
PlatformRegistry::parseFleet(const std::string &csv) const
{
    std::vector<PlatformSpec> fleet;
    const std::string error = parseFleet(csv, fleet);
    if (!error.empty())
        BF_FATAL(error);
    return fleet;
}

void
PlatformRegistry::print(const char *usage) const
{
    int width = 0;
    for (const auto &entry : entries_)
        width = std::max(width, static_cast<int>(entry.variants.size()));
    std::printf("platforms (%s):\n", usage);
    for (const auto &entry : entries_) {
        std::printf("  %-11s %-*s %s\n", entry.kind.c_str(), width,
                    entry.variants.c_str(), entry.help.c_str());
    }
}

} // namespace bitfusion
