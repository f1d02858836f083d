#include "src/core/artifact_cache.h"

#include <exception>

namespace bitfusion {

std::string
networkFingerprint(const Network &net)
{
    std::string key = net.name();
    for (const Layer &l : net.layers()) {
        key += '|';
        key += l.name;
        key += ';';
        key += toString(l.kind);
        key += ';';
        key += l.bits.toString();
        const unsigned dims[] = {l.inC, l.inH, l.inW,   l.outC,
                                 l.kH,  l.kW,  l.stride, l.pad,
                                 l.groups};
        for (unsigned d : dims) {
            key += ',';
            key += std::to_string(d);
        }
    }
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

    const std::string key = platformKey + '#' + networkFingerprint(net);
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
