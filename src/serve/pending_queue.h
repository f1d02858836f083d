/**
 * @file
 * The serving engine's indexed pending set.
 *
 * Every admitted request becomes one compact PendingRequest record --
 * the interned network id, no strings -- named by a stable
 * RequestHandle. The records of one network are bucketed by request
 * size, and each bucket indexes its handles twice, as binary
 * min-heaps that track every member's position: once in admission
 * order (the sequence number, which is the request's queue position)
 * and once in (deadline, admission) order with deadline-free requests
 * last. Records live in one slab whose freed slots are reused, so no
 * container allocates a node per request.
 *
 * Costs, with Q pending requests, B (network, size) buckets, and S
 * distinct sizes of the walked network:
 *
 *  - push(), and remove() per handle: O(log Q);
 *  - oldest() and tightestDeadline(): O(B);
 *  - a Walk yields k requests in O(k * (S + log k)), and never looks
 *    at a request of another network or at one larger than the room
 *    it is asked to fill.
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
     * skip-fills. Any push() or remove() invalidates an open walk.
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

        /** One bucket's frontier: the heap positions whose parents
         *  were already yielded, itself kept as a heap. */
        struct Cursor
        {
            const std::vector<RequestHandle> *heap = nullptr;
            unsigned samples = 0;
            std::vector<std::uint32_t> frontier;
        };

        Walk(const PendingQueue &queue, QueueOrder order)
            : queue_(&queue), order_(order)
        {}

        const PendingQueue *queue_;
        QueueOrder order_;
        /** The network's non-empty buckets, ascending in size. */
        std::vector<Cursor> cursors_;
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
    struct Slot
    {
        PendingRequest req;
        /** Position in its bucket's heaps, per QueueOrder. */
        std::uint32_t pos[2] = {0, 0};
        bool live = false;
    };

    struct Bucket
    {
        unsigned samples = 0;
        /** Position-tracked min-heaps of handles, per QueueOrder. */
        std::vector<RequestHandle> heap[2];
    };

    struct Lane
    {
        /** Every size this network has queued, ascending; a bucket
         *  stays when it empties, so its storage is reused. */
        std::vector<Bucket> buckets;
        std::size_t count = 0;
    };

    /** Strict @p order precedence of two pending handles. */
    bool before(QueueOrder order, RequestHandle a, RequestHandle b) const;
    /** Lower @p best to the first of @p lane's handles in @p order. */
    void firstOf(const Lane &lane, QueueOrder order,
                 RequestHandle &best) const;
    /** The first pending handle in @p order; kNoRequest if empty. */
    RequestHandle first(QueueOrder order) const;
    /** The bucket of (@p network, @p samples), created on first use. */
    Bucket &bucket(unsigned network, unsigned samples);
    /** Store @p handle at heap position @p pos and record it. */
    void place(QueueOrder order, std::vector<RequestHandle> &heap,
               std::size_t pos, RequestHandle handle);
    void heapPush(QueueOrder order, std::vector<RequestHandle> &heap,
                  RequestHandle handle);
    void heapErase(QueueOrder order, std::vector<RequestHandle> &heap,
                   std::size_t pos);
    void siftUp(QueueOrder order, std::vector<RequestHandle> &heap,
                std::size_t pos);
    void siftDown(QueueOrder order, std::vector<RequestHandle> &heap,
                  std::size_t pos);

    std::vector<Slot> slots_;
    /** Freed slots, reused before the slab grows. */
    std::vector<RequestHandle> free_;
    std::vector<Lane> lanes_;
    std::size_t size_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace serve
} // namespace bitfusion

#endif // BITFUSION_SERVE_PENDING_QUEUE_H
