/**
 * @file
 * Pluggable dispatch policies for the serving engine.
 *
 * A Scheduler decides, each time a replica frees up, which queued
 * requests form the next batch and when it leaves: the engine owns
 * the virtual clock, the arrival stream, and the replicas, and hands
 * the scheduler a SchedulerContext view of the pending queue. Four
 * policies ship (see docs/serving.md for the full semantics):
 *
 *  - "fifo"      -- head-of-line coalescing with the timer-based
 *                   batching window; byte-identical to the engine's
 *                   pre-scheduler behavior at one replica.
 *  - "lookahead" -- same-network lookahead: picks the queued network
 *                   that forms the fullest batch, but never lets the
 *                   head-of-line request starve past the batching
 *                   window (maxWaitUs, which it requires).
 *  - "edf"       -- earliest-deadline-first: the tightest deadline
 *                   picks the batch's network and members join in
 *                   deadline order (deadline-free requests sort
 *                   last, FIFO among themselves).
 *  - "slo"       -- SLO-aware batch sizing: grows the batch (and
 *                   waits for future joiners) only while the
 *                   simulated batch latency keeps every member
 *                   inside the latency budget (sloBudgetUs, which it
 *                   requires), instead of filling to a fixed cap.
 *
 * Schedulers are deterministic pure policies: all state they see is
 * the context, so a fixed trace replans identically on every run and
 * worker-thread count. They plan through the indexed PendingQueue
 * (src/serve/pending_queue.h), so no plan scans the whole queue.
 */

#ifndef BITFUSION_SERVE_SCHEDULER_H
#define BITFUSION_SERVE_SCHEDULER_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/serve/pending_queue.h"

namespace bitfusion {
namespace serve {

/** One planned batch: pending members, size, and departure time. */
struct BatchPlan
{
    /** Handles into SchedulerContext::pending(), in join order. */
    std::vector<RequestHandle> members;
    /** The batch's interned network id (every member's). */
    unsigned network = 0;
    /** Coalesced sample count (sum over members). */
    unsigned samples = 0;
    /**
     * Virtual dispatch time; must be >= the planning time and >=
     * every member's arrival (the engine clamps defensively).
     */
    double dispatchUs = 0.0;
};

/**
 * The engine-owned view a scheduler plans against: the indexed
 * pending set, the not-yet-arrived request stream (which a policy may
 * absorb while it waits out a batching window), and the memoized
 * simulated batch latency it can size batches with.
 */
class SchedulerContext
{
  public:
    virtual ~SchedulerContext() = default;

    /**
     * The pending requests; never empty when plan() runs. Queue
     * position is admission order, and admission follows (arrival,
     * id) order.
     */
    virtual const PendingQueue &pending() const = 0;
    /** Arrival time of the earliest future arrival; +infinity when
     *  the stream is dry. */
    virtual double nextArrivalUs() const = 0;
    /**
     * Admit the earliest future arrival at the back of pending() and
     * return its handle, or kNoRequest when admission control shed
     * it instead. Admission invalidates every open
     * PendingQueue::Walk.
     */
    virtual RequestHandle absorbNextArrival() = 0;
    /**
     * Cheapest simulated latency of a batch of @p samples of the
     * interned @p network across the platform classes with a replica
     * free at the planning time. The engine routes each batch to the
     * cheapest replica free at dispatch, and the free set only grows
     * between planning and dispatch, so this is an upper bound on
     * the latency the planned batch will actually be charged.
     */
    virtual double batchLatencyUs(unsigned network, unsigned samples) = 0;
    /** Coalescing cap in samples. */
    virtual unsigned maxBatch() const = 0;
    /** Batching window / starvation bound (ServeOptions.maxWaitUs). */
    virtual double windowUs() const = 0;
    /** SLO latency budget (ServeOptions.sloBudgetUs; 0 = unset). */
    virtual double sloBudgetUs() const = 0;
};

/** Dispatch policy; stateless between plan() calls. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Registry name ("fifo", "lookahead", "edf", "slo"). */
    virtual const char *name() const = 0;

    /**
     * Plan the next batch at virtual time @p now into @p out, which
     * arrives with members empty and the other fields at their
     * defaults (the engine reuses one buffer, and its capacity, for a
     * whole run). The pending set is
     * non-empty; the plan must name at least one member and all
     * members must share one network.
     */
    virtual void plan(SchedulerContext &ctx, double now, BatchPlan &out) = 0;
};

/**
 * Factories for every dispatch policy, mirroring PlatformRegistry:
 * the built-in policies pre-register in builtin() through the same
 * add() an out-of-tree scheduler uses at runtime, and the CLI's
 * --scheduler help and error text are generated from the entries.
 */
class SchedulerRegistry
{
  public:
    struct Entry
    {
        /** Policy name (the --scheduler token). */
        std::string name;
        /** One-line description of the policy. */
        std::string help;
        /** Build a fresh policy instance. */
        std::function<std::unique_ptr<Scheduler>()> make;
    };

    /** The registry holding the built-in policies. */
    static SchedulerRegistry &builtin();

    /** Register a policy; fatal on a duplicate name. */
    void add(Entry entry);

    /** Look up a policy; nullptr when unknown. */
    const Entry *find(const std::string &name) const;

    /** Build the named policy; fatal on an unknown name. */
    std::unique_ptr<Scheduler> make(const std::string &name) const;

    const std::vector<Entry> &entries() const { return entries_; }

    /** " | "-joined policy names (for CLI help and errors). */
    std::string names() const;

    /** Print "schedulers (@p usage):" and one line per policy: name
     *  and help (the CLIs' --list-schedulers). */
    void print(const char *usage) const;

  private:
    std::vector<Entry> entries_;
};

/** Build the named scheduler; fatal on an unknown name. */
std::unique_ptr<Scheduler> makeScheduler(const std::string &name);

/** "fifo | lookahead | edf | slo" (for CLI help and errors). */
std::string schedulerNames();

} // namespace serve
} // namespace bitfusion

#endif // BITFUSION_SERVE_SCHEDULER_H
