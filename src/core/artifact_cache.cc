#include "src/core/artifact_cache.h"

#include <array>
#include <cstdint>
#include <exception>

namespace bitfusion {

namespace {

/** Fixed-size part of one layer's fingerprint record. */
using LayerWords = std::array<std::uint32_t, 14>;

void
appendLength(std::string &out, std::size_t n)
{
    const std::uint64_t v = n;
    out.append(reinterpret_cast<const char *>(&v), sizeof v);
}

std::size_t
fingerprintSize(const Network &net)
{
    std::size_t size = 2 * sizeof(std::uint64_t) + net.name().size();
    for (const Layer &l : net.layers())
        size += sizeof(std::uint64_t) + l.name.size() + sizeof(LayerWords);
    return size;
}

/**
 * Append the fingerprint of @p net: its name, its layer count, then
 * per layer the name and every field as one 32-bit word. Names are
 * length-prefixed and every other part has a fixed size, so the
 * encoding is self-delimiting: any suffix may follow it in a key.
 */
void
appendFingerprint(std::string &out, const Network &net)
{
    appendLength(out, net.name().size());
    out += net.name();
    appendLength(out, net.layers().size());
    for (const Layer &l : net.layers()) {
        appendLength(out, l.name.size());
        out += l.name;
        const LayerWords words = {
            static_cast<std::uint32_t>(l.kind),
            l.bits.aBits, l.bits.wBits, l.bits.aSigned, l.bits.wSigned,
            l.inC, l.inH, l.inW, l.outC, l.kH, l.kW, l.stride, l.pad,
            l.groups};
        out.append(reinterpret_cast<const char *>(words.data()),
                   sizeof words);
    }
}

} // namespace

std::string
networkFingerprint(const Network &net)
{
    std::string key;
    key.reserve(fingerprintSize(net));
    appendFingerprint(key, net);
    return key;
}

ArtifactCache &
ArtifactCache::process()
{
    static ArtifactCache cache;
    return cache;
}

ArtifactCache::Outcome
ArtifactCache::get(const Platform &platform, const Network &net)
{
    const std::string platformKey = platform.compileKey();
    if (platformKey.empty())
        return {};

    // The fingerprint is self-delimiting, so the platform key can
    // follow it without a separator.
    std::string key;
    key.reserve(fingerprintSize(net) + platformKey.size());
    appendFingerprint(key, net);
    key += platformKey;
    std::promise<PlatformArtifactPtr> promise;
    std::shared_future<PlatformArtifactPtr> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++hits_;
            future = it->second;
        } else {
            ++compiles_;
            owner = true;
            future = promise.get_future().share();
            entries_.emplace(key, future);
        }
    }

    // The entry's creator compiles outside the lock so distinct keys
    // compile fully in parallel; concurrent callers of the same key
    // block on the shared future instead of compiling twice.
    if (owner) {
        try {
            promise.set_value(platform.compile(net));
        } catch (...) {
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mutex_);
            entries_.erase(key);
            throw;
        }
    }
    return {future.get(), owner};
}

std::size_t
ArtifactCache::compileCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return compiles_;
}

std::size_t
ArtifactCache::hitCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::size_t
ArtifactCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
ArtifactCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    compiles_ = 0;
    hits_ = 0;
}

} // namespace bitfusion
