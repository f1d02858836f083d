/**
 * @file
 * Deterministic fault injection for the serving fleet.
 *
 * A FaultSpec describes when replicas are down on the engine's
 * virtual clock: explicit per-replica outages (the CLI's
 * --fail-replica ID@T[:for=D]), correlated rack outages that take a
 * contiguous replica group down together (--fail-rack with
 * --rack-size), and a seeded background failure process that gives
 * every replica independent exponential MTBF/MTTR renewal cycles
 * through src/common/prng.h. A FaultTimeline materializes the spec
 * for one run and answers point queries (is replica r up at t, when
 * does it recover, does it fail inside this batch's window).
 *
 * Everything is deterministic: explicit outages are data, and the
 * seeded process derives one independent SplitMix64 stream per
 * replica at construction and extends each stream lazily in virtual
 * time order, so answers never depend on query order, thread count,
 * or wall clock. The RetryPolicy alongside governs what the engine
 * does with requests whose batch a dying replica took down: bounded
 * re-dispatch with exponential backoff and seeded jitter, a global
 * retry budget, and optional hedged duplicate dispatch with
 * first-completion-wins accounting (docs/serving.md, "Failure
 * model").
 *
 * All knobs are dormant by default: a default FaultSpec/RetryPolicy
 * leaves the serving engine's behavior and report bytes untouched.
 */

#ifndef BITFUSION_SERVE_FAULTS_H
#define BITFUSION_SERVE_FAULTS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/prng.h"

namespace bitfusion {
namespace serve {

/** One explicit outage for a replica (or a rack of replicas). */
struct FaultEvent
{
    /** Replica index (FaultSpec.replicaEvents) or rack index
     *  (FaultSpec.rackEvents; rack k owns replicas
     *  [k*rackSize, (k+1)*rackSize)). */
    std::size_t target = 0;
    /** Virtual time the outage starts. */
    double atUs = 0.0;
    /** Outage duration; 0 = the target never recovers. */
    double forUs = 0.0;
};

/**
 * Parse a "ID@T[:for=D]" outage argument (the --fail-replica /
 * --fail-rack value): target ID goes down at virtual time T, for D
 * microseconds (omitted = permanently). Fatal on malformed input;
 * @p flag names the offending option in the error.
 */
FaultEvent parseFaultEvent(const std::string &text, const char *flag);

/** When replicas are down; inactive by default. */
struct FaultSpec
{
    /** Seed of the per-replica background failure streams (and the
     *  retry jitter stream); equal seeds reproduce a run exactly. */
    std::uint64_t seed = 1;
    /** Mean virtual time between seeded failures per replica;
     *  0 = no seeded failures. Set with mttrUs. */
    double mtbfUs = 0.0;
    /** Mean virtual repair time of a seeded failure. */
    double mttrUs = 0.0;
    /** Explicit per-replica outages. */
    std::vector<FaultEvent> replicaEvents;
    /** Replicas per rack; 0 = no rack grouping. */
    std::size_t rackSize = 0;
    /** Correlated outages taking a whole rack down together. */
    std::vector<FaultEvent> rackEvents;

    /** True when any fault source is configured. */
    bool active() const;
    /** The first rule the spec breaks on a fleet of @p replicaCount
     *  replicas, or "" when it is valid (a dormant spec is). */
    std::string error(std::size_t replicaCount) const;
};

/** What to do with requests whose batch a fault destroyed. */
struct RetryPolicy
{
    /** Total dispatch attempts a request may consume (its first
     *  dispatch counts); 1 = a lost request is abandoned. */
    unsigned maxAttempts = 1;
    /** Backoff before retry k re-enters the queue:
     *  backoffBaseUs * 2^(k-1), plus jitter; 0 = immediate. */
    double backoffBaseUs = 0.0;
    /** Seeded uniform jitter fraction in [0, 1]: each backoff is
     *  scaled by (1 + jitterFrac * u), u ~ U[0, 1). */
    double jitterFrac = 0.0;
    /** Global cap on retries issued per run; 0 = unlimited. A
     *  request denied by the budget is abandoned. */
    std::size_t retryBudget = 0;
    /** Duplicate a still-running batch onto a second replica after
     *  this fixed delay; 0 = no fixed-delay hedging. */
    double hedgeDelayUs = 0.0;
    /** Hedge after multiplier * (running p99 of completed batch
     *  latencies) instead of a fixed delay; 0 = off. Mutually
     *  exclusive with hedgeDelayUs. */
    double hedgeP99Multiplier = 0.0;

    /** True when retries are possible. */
    bool retriesEnabled() const { return maxAttempts > 1; }
    /** True when hedged re-dispatch is configured. */
    bool hedgingEnabled() const
    {
        return hedgeDelayUs > 0.0 || hedgeP99Multiplier > 0.0;
    }
    /** True when any knob deviates from the dormant default. */
    bool active() const;
    /** The first broken knob pairing or range, or "" when the policy
     *  is valid (the dormant default is). */
    std::string error() const;
};

/**
 * The materialized down-time oracle of one serving run: per replica,
 * the union of its explicit outages (replica + rack events) and its
 * lazily generated seeded failure renewal process (up for
 * Exp(mtbfUs), down for Exp(mttrUs), starting up at time 0).
 *
 * Queries are not const because they may extend a replica's seeded
 * stream and move its search hints, but every answer is a pure
 * function of (spec, replica, t): each replica's stream is generated
 * in virtual-time order from its own Prng, independent of the order
 * queries arrive in. A point query searches each of the replica's two
 * interval lists from the previous answer in that list, galloping
 * then bisecting, so the engine's nearby queries cost O(1) and a jump
 * across d intervals, forward or back, O(log d).
 */
class FaultTimeline
{
  public:
    /** Half-open down interval [startUs, endUs). */
    struct Interval
    {
        double startUs = 0.0;
        double endUs = 0.0;
    };

    FaultTimeline(const FaultSpec &spec, std::size_t replicaCount);

    /** True when replica @p r is up at time @p t. */
    bool upAt(std::size_t r, double t);

    /** Earliest time >= @p t at which replica @p r is up (chains
     *  across overlapping outages; +inf when it never recovers). */
    double upAfter(std::size_t r, double t);

    /**
     * First outage onset of replica @p r strictly inside
     * (@p t, @p limit), where @p limit may be +inf; +inf when the
     * replica stays up. The engine
     * asks this for every in-flight batch: an onset before the
     * batch's finish time destroys it.
     */
    double nextDownWithin(std::size_t r, double t, double limit);

    /** True when any replica is down at @p t. */
    bool anyDownAt(double t);

    /** Total down time of replica @p r within [0, @p horizon]. */
    double downUsWithin(std::size_t r, double horizon);

    /** Latest recovery (outage end) at or before @p horizon over
     *  the whole fleet; 0 when no outage ended by then. */
    double lastRecoveryBefore(double horizon);

  private:
    /** One replica's outage state. */
    struct Lane
    {
        explicit Lane(std::uint64_t seed) : prng(seed) {}
        /** Explicit outages, merged and sorted by start. */
        std::vector<Interval> scheduled;
        /** Seeded outages generated so far, sorted by start. */
        std::vector<Interval> seeded;
        Prng prng;
        /** Renewal-process position (end of the last seeded
         *  outage). */
        double clockUs = 0.0;
        /** The seeded layout is fully decided on [0, knownUs]. */
        double knownUs = 0.0;
        /** Where the last search of each list ended (its answer). */
        std::size_t scheduledHint = 0;
        std::size_t seededHint = 0;
    };

    /** Generate lane outages until its layout covers @p t. */
    void extend(Lane &lane, double t);

    FaultSpec spec_;
    std::vector<Lane> lanes_;
};

} // namespace serve
} // namespace bitfusion

#endif // BITFUSION_SERVE_FAULTS_H
