/**
 * @file
 * The serving engine's indexed pending set.
 *
 * Every admitted request becomes one compact PendingRequest record --
 * the interned network id, no strings -- named by a stable
 * RequestHandle. Records live in one slab whose freed slots are
 * reused, and the records of one network are bucketed by request
 * size.
 *
 * A bucket keeps its members in admission order in a ring: a vector
 * of {seq, handle} entries whose head advances as requests leave.
 * Admission order is FIFO per bucket by construction, because the
 * sequence number is assigned at push. Removing the head advances it
 * past any dead entries; any other removal leaves a tombstone, an
 * entry whose slot is dead or was reused under another seq. The ring
 * is compacted once it holds more than 2 * live + kRingSlack entries,
 * so a walk steps over at most live + kRingSlack tombstones per
 * bucket, and compaction costs under two entry reads per removal,
 * amortized.
 *
 * The same ring is the bucket's (deadline, admission) order for as
 * long as every push's deadlineKey() is at least the previous one's
 * -- constant slack without retries. The first push that breaks
 * that builds a position-tracked deadline min-heap over the bucket,
 * which the bucket keeps until it empties and returns to the ring.
 *
 * Costs, with Q pending requests, B (network, size) buckets, and S
 * distinct sizes of the walked network:
 *
 *  - push(), and remove() per handle: amortized O(1) on the ring,
 *    plus O(log Q) while the bucket keeps a deadline heap;
 *  - oldest() and tightestDeadline(): O(B);
 *  - a Walk yields k requests in O(k * S) plus the tombstones it
 *    steps over, or O(k * (S + log k)) over a deadline heap. It
 *    never looks at a request of another network or at one larger
 *    than the room it is asked to fill, and it allocates nothing:
 *    its cursors live in the queue and are reused by the next walk.
 */

#ifndef BITFUSION_SERVE_PENDING_QUEUE_H
#define BITFUSION_SERVE_PENDING_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace bitfusion {
namespace serve {

/** Stable name of one pending request; reused after its removal. */
using RequestHandle = std::uint32_t;

/** No request: an empty set, a shed arrival, or an exhausted walk. */
constexpr RequestHandle kNoRequest =
    std::numeric_limits<RequestHandle>::max();

/**
 * One request as the engine moves it once the trace is read: pending,
 * or waiting in the arrival stream as a retry or closed-loop reissue.
 */
struct PendingRequest
{
    std::uint64_t id = 0;
    /** Admission sequence number: the request's queue position
     *  (assigned by PendingQueue::push). */
    std::uint64_t seq = 0;
    double arrivalUs = 0.0;
    /** Absolute latest dispatch time; 0 = none. */
    double deadlineUs = 0.0;
    /** Interned catalog network id. */
    unsigned network = 0;
    unsigned samples = 0;

    /** Deadline sort key: deadline-free requests sort last. */
    double deadlineKey() const
    {
        return deadlineUs > 0.0 ? deadlineUs
                                : std::numeric_limits<double>::infinity();
    }
};

/** The orders a PendingQueue::Walk can visit one network in. */
enum class QueueOrder
{
    /** Queue position (admission sequence). */
    Admission = 0,
    /** (deadline, queue position); deadline-free requests last. */
    Deadline = 1,
};

/** The pending requests of one serving run; see the file comment. */
class PendingQueue
{
  public:
    /**
     * One network's pending requests in one order, for greedy
     * skip-fills. Any push(), remove(), clear() or newer walk() on
     * the same queue invalidates an open walk; a build without
     * NDEBUG panics when an invalidated walk is used.
     */
    class Walk
    {
      public:
        /**
         * The next request not yet yielded whose samples fit in
         * @p room, in the walk's order; kNoRequest when none does.
         * Larger requests stay unvisited, so a fill whose room only
         * shrinks is offered each request at most once.
         */
        RequestHandle next(unsigned room);

      private:
        friend class PendingQueue;

        Walk(const PendingQueue &queue, QueueOrder order,
             std::uint64_t generation)
            : queue_(&queue), order_(order), generation_(generation)
        {}

        const PendingQueue *queue_;
        QueueOrder order_;
        /** The queue's generation when the walk was opened; checked
         *  only without NDEBUG. */
        [[maybe_unused]] std::uint64_t generation_;
    };

    /** An empty set over interned network ids [0, networks). */
    explicit PendingQueue(std::size_t networks = 0);

    /** Admit @p req at the back; its seq is assigned here. */
    RequestHandle push(const PendingRequest &req);
    /** Drop every handle in @p handles (each must be pending once). */
    void remove(const std::vector<RequestHandle> &handles);
    /** Drop everything. */
    void clear();

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    /** Interned network ids the set was built for. */
    std::size_t networks() const { return lanes_.size(); }
    /** Pending requests of @p network. */
    std::size_t count(unsigned network) const
    {
        return lanes_[network].count;
    }

    /** True while @p handle names a pending request. */
    bool contains(RequestHandle handle) const;
    /** The record behind a pending @p handle. */
    const PendingRequest &operator[](RequestHandle handle) const
    {
        return slots_[handle].req;
    }

    /** The head of the queue (lowest sequence); kNoRequest if empty. */
    RequestHandle oldest() const;
    /** The oldest request of @p network; kNoRequest if it has none. */
    RequestHandle oldest(unsigned network) const;
    /** Lowest (deadline, sequence); kNoRequest if empty. */
    RequestHandle tightestDeadline() const;

    /** Walk @p network's pending requests in @p order. */
    Walk walk(unsigned network, QueueOrder order) const;

  private:
    /** Ring entries allowed beyond twice the live count. */
    static constexpr std::size_t kRingSlack = 16;

    struct Slot
    {
        PendingRequest req;
        /** Index of its bucket in buckets_. */
        std::uint32_t bucket = 0;
        /** Position in its bucket's deadline heap, while it has one. */
        std::uint32_t heapPos = 0;
        bool live = false;
    };

    /** One admission: current while its slot is live under seq. */
    struct Entry
    {
        std::uint64_t seq;
        RequestHandle handle;
    };

    struct Bucket
    {
        unsigned samples = 0;
        /** Pending members in this bucket. */
        std::size_t live = 0;
        /** Admission order; ring[head] is current while live > 0. */
        std::vector<Entry> ring;
        std::size_t head = 0;
        /** deadlineKey() of the last push while the ring is the
         *  deadline order. */
        double lastKey = 0.0;
        /** True while `heap` holds the deadline order. */
        bool heaped = false;
        /** Position-tracked (deadline, seq) min-heap of handles. */
        std::vector<RequestHandle> heap;
        /** A deadline walk's heap positions whose parents were
         *  already yielded, itself kept as a heap. */
        mutable std::vector<std::uint32_t> frontier;
    };

    struct Lane
    {
        /** Indexes into buckets_ of every size this network has
         *  queued, ascending in size; a bucket stays when it empties,
         *  so its storage is reused. */
        std::vector<std::uint32_t> buckets;
        std::size_t count = 0;
    };

    /** One bucket's position in an open walk. */
    struct Cursor
    {
        const Bucket *bucket;
        /** Walking `heap` through `frontier` rather than the ring. */
        bool heaped;
        /** The next ring index to look at. */
        std::size_t next;
        /** The bucket's next request in the walk's order;
         *  kNoRequest once the bucket is done. */
        RequestHandle top;
    };

    /** True while @p e names a pending request. */
    bool current(const Entry &e) const
    {
        const Slot &slot = slots_[e.handle];
        return slot.live && slot.req.seq == e.seq;
    }
    /** Strict @p order precedence of two pending handles. */
    bool before(QueueOrder order, RequestHandle a, RequestHandle b) const;
    /** Lower @p best to the first of @p b's handles in @p order. */
    void lower(const Bucket &b, QueueOrder order, RequestHandle &best) const;
    /** The first pending handle in @p order; kNoRequest if empty. */
    RequestHandle first(QueueOrder order) const;
    /** The index of bucket (@p network, @p samples), created on
     *  first use. */
    std::uint32_t bucket(unsigned network, unsigned samples);
    /** Drop the now-dead @p handle from its bucket @p b. */
    void leave(Bucket &b, RequestHandle handle);
    /** Move @p b's current ring entries to the front of its ring. */
    void compact(Bucket &b);
    /** Point @p c at the next request of its bucket. */
    void settle(Cursor &c) const;

    /** Store @p handle at heap position @p pos and record it. */
    void place(std::vector<RequestHandle> &heap, std::size_t pos,
               RequestHandle handle);
    void heapPush(std::vector<RequestHandle> &heap, RequestHandle handle);
    void heapErase(std::vector<RequestHandle> &heap, std::size_t pos);
    void siftUp(std::vector<RequestHandle> &heap, std::size_t pos);
    void siftDown(std::vector<RequestHandle> &heap, std::size_t pos);

    std::vector<Slot> slots_;
    /** Freed slots, reused before the slab grows. */
    std::vector<RequestHandle> free_;
    std::vector<Bucket> buckets_;
    std::vector<Lane> lanes_;
    std::size_t size_ = 0;
    std::uint64_t nextSeq_ = 0;
    /** Bumped by every change and every walk(): a walk is open only
     *  while the generation it was opened at is current. */
    mutable std::uint64_t generation_ = 0;
    /** The open walk's cursors, one per non-empty bucket, ascending
     *  in size; the storage is reused by every walk. */
    mutable std::vector<Cursor> cursors_;
};

} // namespace serve
} // namespace bitfusion

#endif // BITFUSION_SERVE_PENDING_QUEUE_H
