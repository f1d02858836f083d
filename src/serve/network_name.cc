#include "src/serve/network_name.h"

#include <cstddef>
#include <limits>
#include <mutex>
#include <ostream>
#include <unordered_map>

#include "src/common/logging.h"

namespace bitfusion {
namespace serve {

namespace {

/**
 * The process-wide name table. Names live in chunks that never move:
 * chunk k holds 64 << k names, so 27 chunks cover every 32-bit index.
 * Only intern() writes, under the mutex; at() reads without it. That
 * is safe because a reader holds an index only after intern()
 * returned it, to this thread or to one that handed it over, so both
 * the name and its chunk pointer were written before the read.
 */
class NameTable
{
  public:
    static NameTable &instance()
    {
        // Never destroyed: a handle may be printed during exit.
        static NameTable *const table = new NameTable;
        return *table;
    }

    std::uint32_t intern(std::string_view name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = index_.find(name);
        if (it != index_.end())
            return it->second;
        BF_ASSERT(size_ <= std::numeric_limits<std::uint32_t>::max(),
                  "network name table is full");
        const auto id = static_cast<std::uint32_t>(size_++);
        const Slot slot = slotOf(id);
        if (chunks_[slot.chunk] == nullptr)
            chunks_[slot.chunk] = new std::string[kFirstChunk << slot.chunk];
        std::string &stored = chunks_[slot.chunk][slot.offset];
        stored.assign(name);
        index_.emplace(stored, id);
        return id;
    }

    const std::string &at(std::uint32_t id) const
    {
        const Slot slot = slotOf(id);
        return chunks_[slot.chunk][slot.offset];
    }

  private:
    static constexpr std::size_t kFirstChunk = 64;
    static constexpr std::size_t kChunks = 27;

    struct Slot
    {
        std::size_t chunk;
        std::size_t offset;
    };

    NameTable() { intern(""); }

    /** Chunk k starts at index 64 * (2^k - 1). */
    static Slot slotOf(std::uint32_t id)
    {
        const std::uint64_t biased = std::uint64_t{id} + kFirstChunk;
        const auto chunk = static_cast<std::size_t>(
            63 - __builtin_clzll(biased / kFirstChunk));
        return {chunk, static_cast<std::size_t>(
                           biased - (kFirstChunk << chunk))};
    }

    std::mutex mutex_;
    std::unordered_map<std::string_view, std::uint32_t> index_;
    std::uint64_t size_ = 0;
    std::string *chunks_[kChunks] = {};
};

} // namespace

NetworkName::NetworkName(std::string_view name)
    : index_(NameTable::instance().intern(name))
{}

const std::string &
NetworkName::str() const
{
    return NameTable::instance().at(index_);
}

std::ostream &
operator<<(std::ostream &os, NetworkName name)
{
    return os << name.str();
}

} // namespace serve
} // namespace bitfusion
