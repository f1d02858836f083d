/**
 * @file
 * The indexed pending set: slab records, per-(network, size) buckets,
 * each bucket's admission ring, and the deadline heap a bucket builds
 * only once its deadlines stop arriving in order.
 */

#include "src/serve/pending_queue.h"

#include <algorithm>

#include "src/common/logging.h"

namespace bitfusion {
namespace serve {

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

std::uint32_t
PendingQueue::bucket(unsigned network, unsigned samples)
{
    std::vector<std::uint32_t> &order = lanes_[network].buckets;
    auto it = std::lower_bound(
        order.begin(), order.end(), samples,
        [&](std::uint32_t b, unsigned s) { return buckets_[b].samples < s; });
    if (it != order.end() && buckets_[*it].samples == samples)
        return *it;
    const auto index = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
    buckets_.back().samples = samples;
    order.insert(it, index);
    return index;
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
    slot.bucket = bucket(req.network, req.samples);

    Bucket &b = buckets_[slot.bucket];
    const double key = slot.req.deadlineKey();
    b.ring.push_back({slot.req.seq, handle});
    if (!b.heaped && b.live != 0 && key < b.lastKey) {
        // The ring is in deadline order up to this push, and a sorted
        // array is already a heap.
        b.heaped = true;
        for (std::size_t i = b.head; i + 1 < b.ring.size(); ++i) {
            if (current(b.ring[i]))
                place(b.heap, b.heap.size(), b.ring[i].handle);
        }
    }
    ++b.live;
    if (b.heaped)
        heapPush(b.heap, handle);
    else
        b.lastKey = key;
    ++lanes_[req.network].count;
    ++size_;
    ++generation_;
    return handle;
}

void
PendingQueue::remove(const std::vector<RequestHandle> &handles)
{
    for (RequestHandle handle : handles) {
        BF_ASSERT(contains(handle), "handle ", handle, " is not pending");
        Slot &slot = slots_[handle];
        slot.live = false;
        leave(buckets_[slot.bucket], handle);
        --lanes_[slot.req.network].count;
        --size_;
        free_.push_back(handle);
    }
    ++generation_;
}

void
PendingQueue::leave(Bucket &b, RequestHandle handle)
{
    if (--b.live == 0) {
        // Empty: back to a bare ring.
        b.ring.clear();
        b.head = 0;
        b.heap.clear();
        b.heaped = false;
        return;
    }
    if (b.heaped)
        heapErase(b.heap, slots_[handle].heapPos);
    while (!current(b.ring[b.head]))
        ++b.head;
    if (b.ring.size() > 2 * b.live + kRingSlack)
        compact(b);
}

void
PendingQueue::compact(Bucket &b)
{
    std::vector<Entry> &ring = b.ring;
    std::size_t out = 0;
    for (std::size_t i = b.head; i < ring.size(); ++i) {
        if (current(ring[i]))
            ring[out++] = ring[i];
    }
    ring.resize(out);
    b.head = 0;
}

void
PendingQueue::clear()
{
    for (Lane &lane : lanes_)
        lane = Lane{};
    buckets_.clear();
    slots_.clear();
    free_.clear();
    size_ = 0;
    ++generation_;
}

void
PendingQueue::lower(const Bucket &b, QueueOrder order,
                    RequestHandle &best) const
{
    if (b.live == 0)
        return;
    RequestHandle top = b.ring[b.head].handle;
    if (order == QueueOrder::Deadline && b.heaped)
        top = b.heap.front();
    if (best == kNoRequest || before(order, top, best))
        best = top;
}

RequestHandle
PendingQueue::first(QueueOrder order) const
{
    RequestHandle best = kNoRequest;
    for (const Bucket &b : buckets_)
        lower(b, order, best);
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
    for (std::uint32_t index : lanes_[network].buckets)
        lower(buckets_[index], QueueOrder::Admission, best);
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
    cursors_.clear();
    for (std::uint32_t index : lanes_[network].buckets) {
        const Bucket &b = buckets_[index];
        if (b.live == 0)
            continue;
        const bool heaped = order == QueueOrder::Deadline && b.heaped;
        Cursor c{&b, heaped, b.head, kNoRequest};
        if (c.heaped)
            b.frontier.assign(1, 0);
        settle(c);
        cursors_.push_back(c);
    }
    return Walk(*this, order, ++generation_);
}

void
PendingQueue::settle(Cursor &c) const
{
    const Bucket &b = *c.bucket;
    c.top = kNoRequest;
    if (c.heaped) {
        if (!b.frontier.empty())
            c.top = b.heap[b.frontier.front()];
    } else {
        while (c.next < b.ring.size() && !current(b.ring[c.next]))
            ++c.next;
        if (c.next < b.ring.size())
            c.top = b.ring[c.next].handle;
    }
}

RequestHandle
PendingQueue::Walk::next(unsigned room)
{
#ifndef NDEBUG
    BF_ASSERT(generation_ == queue_->generation_,
              "walk used after its queue changed");
#endif
    // The walk's next request is the earliest cursor top over the
    // buckets whose size still fits.
    Cursor *best = nullptr;
    for (Cursor &c : queue_->cursors_) {
        if (c.bucket->samples > room)
            break;
        if (c.top == kNoRequest)
            continue;
        if (best == nullptr || queue_->before(order_, c.top, best->top))
            best = &c;
    }
    if (best == nullptr)
        return kNoRequest;

    const RequestHandle out = best->top;
    if (best->heaped) {
        // Yield the top and expose its heap children. Every
        // unyielded request has an ancestor on the frontier, and a
        // heap parent precedes its children, so the frontier's top is
        // always the bucket's next request in order.
        const std::vector<RequestHandle> &heap = best->bucket->heap;
        std::vector<std::uint32_t> &frontier = best->bucket->frontier;
        const auto later = [&](std::uint32_t a, std::uint32_t b) {
            return queue_->before(QueueOrder::Deadline, heap[b], heap[a]);
        };
        std::pop_heap(frontier.begin(), frontier.end(), later);
        const std::size_t pos = frontier.back();
        frontier.pop_back();
        for (std::size_t child = 2 * pos + 1;
             child <= 2 * pos + 2 && child < heap.size(); ++child) {
            frontier.push_back(static_cast<std::uint32_t>(child));
            std::push_heap(frontier.begin(), frontier.end(), later);
        }
    } else {
        ++best->next;
    }
    queue_->settle(*best);
    return out;
}

void
PendingQueue::place(std::vector<RequestHandle> &heap, std::size_t pos,
                    RequestHandle handle)
{
    if (pos == heap.size())
        heap.push_back(handle);
    else
        heap[pos] = handle;
    slots_[handle].heapPos = static_cast<std::uint32_t>(pos);
}

void
PendingQueue::heapPush(std::vector<RequestHandle> &heap, RequestHandle handle)
{
    place(heap, heap.size(), handle);
    siftUp(heap, heap.size() - 1);
}

void
PendingQueue::heapErase(std::vector<RequestHandle> &heap, std::size_t pos)
{
    const RequestHandle last = heap.back();
    heap.pop_back();
    if (pos == heap.size())
        return;
    place(heap, pos, last);
    if (pos > 0 && before(QueueOrder::Deadline, last, heap[(pos - 1) / 2]))
        siftUp(heap, pos);
    else
        siftDown(heap, pos);
}

void
PendingQueue::siftUp(std::vector<RequestHandle> &heap, std::size_t pos)
{
    const RequestHandle moving = heap[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 2;
        if (!before(QueueOrder::Deadline, moving, heap[parent]))
            break;
        place(heap, pos, heap[parent]);
        pos = parent;
    }
    place(heap, pos, moving);
}

void
PendingQueue::siftDown(std::vector<RequestHandle> &heap, std::size_t pos)
{
    const RequestHandle moving = heap[pos];
    for (;;) {
        std::size_t child = 2 * pos + 1;
        if (child >= heap.size())
            break;
        if (child + 1 < heap.size() &&
            before(QueueOrder::Deadline, heap[child + 1], heap[child]))
            ++child;
        if (!before(QueueOrder::Deadline, heap[child], moving))
            break;
        place(heap, pos, heap[child]);
        pos = child;
    }
    place(heap, pos, moving);
}

} // namespace serve
} // namespace bitfusion
