/**
 * @file
 * The indexed pending set: slab records, per-(network, size) buckets,
 * and the two position-tracked heaps every bucket keeps.
 */

#include "src/serve/pending_queue.h"

#include <algorithm>

#include "src/common/logging.h"

namespace bitfusion {
namespace serve {

namespace {

constexpr std::size_t
slotOf(QueueOrder order)
{
    return static_cast<std::size_t>(order);
}

} // namespace

PendingQueue::PendingQueue(std::size_t networks) : lanes_(networks) {}

bool
PendingQueue::contains(RequestHandle handle) const
{
    return handle < slots_.size() && slots_[handle].live;
}

bool
PendingQueue::before(QueueOrder order, RequestHandle a,
                     RequestHandle b) const
{
    const PendingRequest &x = slots_[a].req;
    const PendingRequest &y = slots_[b].req;
    if (order == QueueOrder::Deadline) {
        const double kx = x.deadlineKey();
        const double ky = y.deadlineKey();
        if (kx != ky)
            return kx < ky;
    }
    return x.seq < y.seq;
}

PendingQueue::Bucket &
PendingQueue::bucket(unsigned network, unsigned samples)
{
    std::vector<Bucket> &buckets = lanes_[network].buckets;
    auto it = std::lower_bound(
        buckets.begin(), buckets.end(), samples,
        [](const Bucket &b, unsigned s) { return b.samples < s; });
    if (it == buckets.end() || it->samples != samples) {
        it = buckets.insert(it, Bucket{});
        it->samples = samples;
    }
    return *it;
}

RequestHandle
PendingQueue::push(const PendingRequest &req)
{
    BF_ASSERT(req.network < lanes_.size());
    RequestHandle handle = kNoRequest;
    if (!free_.empty()) {
        handle = free_.back();
        free_.pop_back();
    } else {
        BF_ASSERT(slots_.size() < kNoRequest);
        handle = static_cast<RequestHandle>(slots_.size());
        slots_.emplace_back();
    }
    Slot &slot = slots_[handle];
    slot.req = req;
    slot.req.seq = nextSeq_++;
    slot.live = true;

    Bucket &b = bucket(req.network, req.samples);
    heapPush(QueueOrder::Admission, b.heap[0], handle);
    heapPush(QueueOrder::Deadline, b.heap[1], handle);
    ++lanes_[req.network].count;
    ++size_;
    return handle;
}

void
PendingQueue::remove(const std::vector<RequestHandle> &handles)
{
    for (RequestHandle handle : handles) {
        BF_ASSERT(contains(handle), "handle ", handle, " is not pending");
        Slot &slot = slots_[handle];
        Bucket &b = bucket(slot.req.network, slot.req.samples);
        heapErase(QueueOrder::Admission, b.heap[0], slot.pos[0]);
        heapErase(QueueOrder::Deadline, b.heap[1], slot.pos[1]);
        slot.live = false;
        --lanes_[slot.req.network].count;
        --size_;
        free_.push_back(handle);
    }
}

void
PendingQueue::clear()
{
    for (Lane &lane : lanes_) {
        for (Bucket &b : lane.buckets) {
            b.heap[0].clear();
            b.heap[1].clear();
        }
        lane.count = 0;
    }
    slots_.clear();
    free_.clear();
    size_ = 0;
}

void
PendingQueue::firstOf(const Lane &lane, QueueOrder order,
                      RequestHandle &best) const
{
    for (const Bucket &b : lane.buckets) {
        const std::vector<RequestHandle> &heap = b.heap[slotOf(order)];
        if (!heap.empty() &&
            (best == kNoRequest || before(order, heap.front(), best)))
            best = heap.front();
    }
}

RequestHandle
PendingQueue::first(QueueOrder order) const
{
    RequestHandle best = kNoRequest;
    for (const Lane &lane : lanes_) {
        if (lane.count != 0)
            firstOf(lane, order, best);
    }
    return best;
}

RequestHandle
PendingQueue::oldest() const
{
    return first(QueueOrder::Admission);
}

RequestHandle
PendingQueue::oldest(unsigned network) const
{
    RequestHandle best = kNoRequest;
    firstOf(lanes_[network], QueueOrder::Admission, best);
    return best;
}

RequestHandle
PendingQueue::tightestDeadline() const
{
    return first(QueueOrder::Deadline);
}

PendingQueue::Walk
PendingQueue::walk(unsigned network, QueueOrder order) const
{
    Walk walk(*this, order);
    for (const Bucket &b : lanes_[network].buckets) {
        const std::vector<RequestHandle> &heap = b.heap[slotOf(order)];
        if (!heap.empty())
            walk.cursors_.push_back({&heap, b.samples, {0}});
    }
    return walk;
}

RequestHandle
PendingQueue::Walk::next(unsigned room)
{
    // The walk's next request is the earliest frontier top over the
    // buckets whose size still fits.
    Cursor *best = nullptr;
    for (Cursor &c : cursors_) {
        if (c.samples > room)
            break;
        if (c.frontier.empty())
            continue;
        if (best == nullptr ||
            queue_->before(order_, (*c.heap)[c.frontier.front()],
                           (*best->heap)[best->frontier.front()]))
            best = &c;
    }
    if (best == nullptr)
        return kNoRequest;

    // Yield the top and expose its heap children. Every unyielded
    // request has an ancestor on the frontier, and a heap parent
    // precedes its children, so the frontier's top is always the
    // bucket's next request in order.
    const std::vector<RequestHandle> &heap = *best->heap;
    std::vector<std::uint32_t> &frontier = best->frontier;
    const auto later = [&](std::uint32_t a, std::uint32_t b) {
        return queue_->before(order_, heap[b], heap[a]);
    };
    std::pop_heap(frontier.begin(), frontier.end(), later);
    const std::size_t pos = frontier.back();
    frontier.pop_back();
    for (std::size_t child = 2 * pos + 1;
         child <= 2 * pos + 2 && child < heap.size(); ++child) {
        frontier.push_back(static_cast<std::uint32_t>(child));
        std::push_heap(frontier.begin(), frontier.end(), later);
    }
    return heap[pos];
}

void
PendingQueue::place(QueueOrder order, std::vector<RequestHandle> &heap,
                    std::size_t pos, RequestHandle handle)
{
    heap[pos] = handle;
    slots_[handle].pos[slotOf(order)] = static_cast<std::uint32_t>(pos);
}

void
PendingQueue::heapPush(QueueOrder order, std::vector<RequestHandle> &heap,
                       RequestHandle handle)
{
    heap.push_back(handle);
    siftUp(order, heap, heap.size() - 1);
}

void
PendingQueue::heapErase(QueueOrder order, std::vector<RequestHandle> &heap,
                        std::size_t pos)
{
    const RequestHandle last = heap.back();
    heap.pop_back();
    if (pos == heap.size())
        return;
    place(order, heap, pos, last);
    if (pos > 0 && before(order, last, heap[(pos - 1) / 2]))
        siftUp(order, heap, pos);
    else
        siftDown(order, heap, pos);
}

void
PendingQueue::siftUp(QueueOrder order, std::vector<RequestHandle> &heap,
                     std::size_t pos)
{
    const RequestHandle moving = heap[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 2;
        if (!before(order, moving, heap[parent]))
            break;
        place(order, heap, pos, heap[parent]);
        pos = parent;
    }
    place(order, heap, pos, moving);
}

void
PendingQueue::siftDown(QueueOrder order, std::vector<RequestHandle> &heap,
                       std::size_t pos)
{
    const RequestHandle moving = heap[pos];
    for (;;) {
        std::size_t child = 2 * pos + 1;
        if (child >= heap.size())
            break;
        if (child + 1 < heap.size() &&
            before(order, heap[child + 1], heap[child]))
            ++child;
        if (!before(order, heap[child], moving))
            break;
        place(order, heap, pos, heap[child]);
        pos = child;
    }
    place(order, heap, pos, moving);
}

} // namespace serve
} // namespace bitfusion
