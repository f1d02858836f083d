/**
 * @file
 * The four built-in dispatch policies. The FIFO policy is the
 * engine's original head-of-line behavior (the R=1 report is locked
 * byte-identical by tests/golden/serve_fifo_r1.json); the others
 * reorder, re-pick, or re-size batches but share its coalescing
 * helper. Every policy plans through the PendingQueue index:
 * docs/serving.md lists what one plan of each costs.
 */

#include "src/serve/scheduler.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/common/logging.h"

namespace bitfusion {
namespace serve {

namespace {

/**
 * Greedy skip-fill: pending requests of @p network join in @p order
 * while whole requests fit under @p cap; one too large for the room
 * left is skipped without being visited. Appends the joiners to
 * @p plan when it is non-null; returns the coalesced samples.
 */
unsigned
coalesce(const PendingQueue &pending, unsigned network, QueueOrder order,
         unsigned cap, BatchPlan *plan)
{
    PendingQueue::Walk walk = pending.walk(network, order);
    unsigned samples = 0;
    while (samples < cap) {
        const RequestHandle next = walk.next(cap - samples);
        if (next == kNoRequest)
            break;
        if (plan != nullptr)
            plan->members.push_back(next);
        samples += pending[next].samples;
    }
    return samples;
}

/** Clamp the dispatch to the members' arrivals (a member absorbed
 *  during an earlier plan's window can postdate this plan's now). */
double
memberDispatch(const PendingQueue &pending, const BatchPlan &plan,
               double now)
{
    double dispatch = now;
    for (RequestHandle member : plan.members)
        dispatch = std::max(dispatch, pending[member].arrivalUs);
    return dispatch;
}

/**
 * Head-of-line FIFO with the timer-based batching window: the
 * oldest request picks the network, arrived requests join in FIFO
 * order, and an unfilled batch waits for more arrivals until the
 * window set at the head's arrival fires -- never past a member's
 * deadline -- dispatching early the moment it fills.
 */
class FifoScheduler : public Scheduler
{
  public:
    const char *name() const override { return "fifo"; }

    void plan(SchedulerContext &ctx, double now, BatchPlan &out) override
    {
        const PendingQueue &pending = ctx.pending();
        const unsigned cap = ctx.maxBatch();
        // A copy: absorbing arrivals below may move the records.
        const PendingRequest head = pending[pending.oldest()];

        out.network = head.network;
        unsigned samples = coalesce(pending, head.network,
                                    QueueOrder::Admission, cap, &out);
        double dispatch = memberDispatch(pending, out, now);

        if (samples < cap && ctx.windowUs() > 0.0) {
            double windowEnd = head.arrivalUs + ctx.windowUs();
            for (RequestHandle member : out.members) {
                const double deadline = pending[member].deadlineUs;
                if (deadline > 0.0)
                    windowEnd = std::min(windowEnd, deadline);
            }
            windowEnd = std::max(windowEnd, now);
            const bool waited = windowEnd > now;
            while (samples < cap && ctx.nextArrivalUs() <= windowEnd) {
                const RequestHandle joined = ctx.absorbNextArrival();
                if (joined == kNoRequest)
                    continue; // shed by admission control
                const PendingRequest &next = pending[joined];
                if (next.network == head.network &&
                    samples + next.samples <= cap) {
                    out.members.push_back(joined);
                    samples += next.samples;
                    dispatch = std::max(dispatch, next.arrivalUs);
                    if (next.deadlineUs > 0.0) {
                        windowEnd = std::min(
                            windowEnd,
                            std::max(next.deadlineUs, dispatch));
                    }
                }
            }
            if (samples < cap && waited)
                dispatch = windowEnd; // the batching timer fires
        }

        out.samples = samples;
        out.dispatchUs = dispatch;
    }
};

/**
 * Same-network lookahead: pick the queued network that coalesces
 * into the fullest batch (ties go to the earliest-queued network),
 * unless the head-of-line request has already waited out the
 * batching window -- then the head's network is served, so no
 * request starves longer than the window plus one in-flight batch.
 * Lookahead never waits on a timer; it only reorders what is queued.
 */
class LookaheadScheduler : public Scheduler
{
  public:
    const char *name() const override { return "lookahead"; }

    void plan(SchedulerContext &ctx, double now, BatchPlan &out) override
    {
        const PendingQueue &pending = ctx.pending();
        const unsigned cap = ctx.maxBatch();
        const PendingRequest &head = pending[pending.oldest()];

        unsigned network = head.network;
        if (now < head.arrivalUs + ctx.windowUs()) {
            // Head not yet overdue: the fullest batch wins.
            unsigned bestFill = 0;
            std::uint64_t bestSeq = 0;
            for (unsigned n = 0; n < pending.networks(); ++n) {
                if (pending.count(n) == 0)
                    continue;
                const unsigned fill = coalesce(
                    pending, n, QueueOrder::Admission, cap, nullptr);
                const std::uint64_t seq = pending[pending.oldest(n)].seq;
                if (fill > bestFill || (fill == bestFill && seq < bestSeq)) {
                    bestFill = fill;
                    bestSeq = seq;
                    network = n;
                }
            }
        }

        out.network = network;
        out.samples =
            coalesce(pending, network, QueueOrder::Admission, cap, &out);
        out.dispatchUs = memberDispatch(pending, out, now);
    }
};

/**
 * Earliest-deadline-first: the tightest queued deadline picks the
 * network, and requests of that network join in (deadline, queue
 * position) order while they fit. Dispatches immediately -- when
 * deadlines drive the schedule, idling on a batching timer only
 * burns slack.
 */
class EdfScheduler : public Scheduler
{
  public:
    const char *name() const override { return "edf"; }

    void plan(SchedulerContext &ctx, double now, BatchPlan &out) override
    {
        const PendingQueue &pending = ctx.pending();
        out.network = pending[pending.tightestDeadline()].network;
        out.samples = coalesce(pending, out.network, QueueOrder::Deadline,
                               ctx.maxBatch(), &out);
        out.dispatchUs = memberDispatch(pending, out, now);
    }
};

/**
 * SLO-aware batch sizing: the head-of-line request picks the
 * network, but the batch grows -- over the queue and then over
 * future arrivals -- only while the simulated latency of the grown
 * batch keeps every member's end-to-end latency inside the budget.
 * It dispatches the moment no further joiner can fit, so it never
 * idles on a timer; when even the head alone cannot meet its
 * budget, the batch falls back to a plain FIFO fill (the budget is
 * already lost, so throughput is all that is left to optimize).
 */
class SloScheduler : public Scheduler
{
  public:
    const char *name() const override { return "slo"; }

    void plan(SchedulerContext &ctx, double now, BatchPlan &out) override
    {
        const PendingQueue &pending = ctx.pending();
        const unsigned cap = ctx.maxBatch();
        const double budget = ctx.sloBudgetUs();
        const RequestHandle headHandle = pending.oldest();
        // A copy: absorbing arrivals below may move the records.
        const PendingRequest head = pending[headHandle];

        out.network = head.network;
        out.members.push_back(headHandle);
        unsigned samples = head.samples;
        double dispatch = std::max(now, head.arrivalUs);
        double budgetEnd = head.arrivalUs + budget;

        if (dispatch + ctx.batchLatencyUs(head.network, samples) >
            budgetEnd) {
            // The head's budget is already unmeetable: fill the
            // batch FIFO-style and move on.
            out.members.clear();
            out.samples = coalesce(pending, head.network,
                                   QueueOrder::Admission, cap, &out);
            out.dispatchUs = memberDispatch(pending, out, now);
            return;
        }

        // Queued joiners, FIFO order, while every budget holds.
        PendingQueue::Walk walk =
            pending.walk(head.network, QueueOrder::Admission);
        while (samples < cap) {
            const RequestHandle next = walk.next(cap - samples);
            if (next == kNoRequest)
                break;
            if (next == headHandle)
                continue;
            const PendingRequest &r = pending[next];
            const double d = std::max(dispatch, r.arrivalUs);
            const double end = std::min(budgetEnd, r.arrivalUs + budget);
            if (d + ctx.batchLatencyUs(head.network, samples + r.samples) <=
                end) {
                out.members.push_back(next);
                samples += r.samples;
                dispatch = d;
                budgetEnd = end;
            }
        }

        // Future joiners: hold the batch on a timer set at the last
        // moment every current member still meets its budget;
        // joiners extend the batch (and pull the timer in) as they
        // arrive, and the batch fires early the moment it fills.
        // The timer is committed causally: when no joiner shows up
        // before it fires, the wait is still paid.
        while (samples < cap) {
            const double latest =
                budgetEnd - ctx.batchLatencyUs(head.network, samples);
            if (latest <= dispatch)
                break; // no slack left to wait with
            if (ctx.nextArrivalUs() > latest) {
                dispatch = latest; // the budget timer fires
                break;
            }
            const RequestHandle joinedHandle = ctx.absorbNextArrival();
            if (joinedHandle == kNoRequest)
                continue; // shed by admission control
            const PendingRequest &joined = pending[joinedHandle];
            if (joined.network == head.network &&
                samples + joined.samples <= cap) {
                const double d = std::max(dispatch, joined.arrivalUs);
                const double end =
                    std::min(budgetEnd, joined.arrivalUs + budget);
                if (d + ctx.batchLatencyUs(head.network,
                                           samples + joined.samples) <=
                    end) {
                    out.members.push_back(joinedHandle);
                    samples += joined.samples;
                    dispatch = d;
                    budgetEnd = end;
                }
            }
            // A non-joiner (or a budget-breaking one) just queues
            // up; the timer keeps running.
        }

        out.samples = samples;
        out.dispatchUs = dispatch;
    }
};

} // namespace

SchedulerRegistry &
SchedulerRegistry::builtin()
{
    static SchedulerRegistry registry = [] {
        SchedulerRegistry r;
        r.add({"fifo",
               "head-of-line coalescing with the timer-based "
               "batching window",
               [] { return std::make_unique<FifoScheduler>(); }});
        r.add({"lookahead",
               "fullest same-network batch; head starvation bounded "
               "by the window",
               [] { return std::make_unique<LookaheadScheduler>(); }});
        r.add({"edf",
               "earliest-deadline-first batch pick and join order",
               [] { return std::make_unique<EdfScheduler>(); }});
        r.add({"slo",
               "grows batches only while every member meets the "
               "latency budget",
               [] { return std::make_unique<SloScheduler>(); }});
        return r;
    }();
    return registry;
}

void
SchedulerRegistry::add(Entry entry)
{
    if (find(entry.name) != nullptr)
        BF_FATAL("duplicate scheduler '", entry.name, "'");
    entries_.push_back(std::move(entry));
}

const SchedulerRegistry::Entry *
SchedulerRegistry::find(const std::string &name) const
{
    for (const auto &entry : entries_) {
        if (entry.name == name)
            return &entry;
    }
    return nullptr;
}

std::unique_ptr<Scheduler>
SchedulerRegistry::make(const std::string &name) const
{
    const Entry *entry = find(name);
    if (entry == nullptr) {
        BF_FATAL("unknown scheduler '", name, "' (known: ", names(),
                 ")");
    }
    return entry->make();
}

std::string
SchedulerRegistry::names() const
{
    std::string out;
    for (const auto &entry : entries_)
        out += (out.empty() ? "" : " | ") + entry.name;
    return out;
}

std::unique_ptr<Scheduler>
makeScheduler(const std::string &name)
{
    return SchedulerRegistry::builtin().make(name);
}

void
SchedulerRegistry::print(const char *usage) const
{
    std::printf("schedulers (%s):\n", usage);
    for (const auto &entry : entries_)
        std::printf("  %-11s %s\n", entry.name.c_str(), entry.help.c_str());
}

std::string
schedulerNames()
{
    return SchedulerRegistry::builtin().names();
}

} // namespace serve
} // namespace bitfusion
