/**
 * @file
 * The dynamic-batching serving layer over Platform::run.
 *
 * The ServingEngine fronts a fleet of R simulated platform replicas
 * (possibly heterogeneous) with one request queue on a virtual
 * clock: clients submit InferenceRequest{network, batch-of-inputs,
 * deadline}, a pluggable Scheduler (src/serve/scheduler.h: fifo |
 * lookahead | edf | slo) coalesces compatible requests into dynamic
 * batches, and every dispatch is routed to the free replica that
 * serves the batch's network cheapest and charged that platform's
 * simulated batch latency. The engine records per-request queueing
 * and compute latency, so a run reports p50/p95/p99 latency,
 * throughput, batch fill, deadline misses, energy, and per-replica
 * utilization.
 *
 * Costs come from the same Platform::run every figure uses, with
 * compiled artifacts resolved through the process-level
 * ArtifactCache (shared with the sweep runner) and each (platform
 * class, network, batch-size) cost memoized after its first use; the
 * worker pool precompiles every distinct network per class at the
 * full batch up front.
 *
 * One run is a loop of named phases over one run state, which is also
 * the scheduler's context: admit, clock, plan (with routing), dispatch
 * and settle (a hedge is a second attempt on the same ledger as the
 * primary), account, and finish. Every time the engine accepts lies
 * within kMaxVirtualUs (src/serve/trace.h), so no sum the loop forms
 * overflows.
 *
 * Determinism: the loop is serial on the virtual clock, schedulers
 * are pure policies, and platforms are pure functions of their
 * inputs, so for a fixed trace (or seed) the report and its JSON are
 * byte-identical for any worker-thread count.
 *
 * Policy semantics, the virtual-clock model, and the trace-file
 * format are documented in docs/serving.md.
 */

#ifndef BITFUSION_SERVE_SERVING_ENGINE_H
#define BITFUSION_SERVE_SERVING_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/streaming_stats.h"
#include "src/core/platform_registry.h"
#include "src/core/stats.h"
#include "src/dnn/model_zoo.h"
#include "src/serve/faults.h"
#include "src/serve/pending_queue.h"
#include "src/serve/trace.h"

namespace bitfusion {

class ArtifactCache;

namespace serve {

/** Engine configuration. */
struct ServeOptions
{
    /** Precompile worker threads; 0 = hardware concurrency. */
    unsigned threads = 0;
    /** Phase-time composition (core/layer_walk.h). */
    TimingModel timing = TimingModel::Simple;
    /**
     * Largest coalesced batch in samples; 0 = the fleet's largest
     * configured batch (the paper's best batch at one replica).
     */
    unsigned maxBatch = 0;
    /**
     * Batching window: how long a fifo dispatch may wait for more
     * requests past the head request's arrival (0 = dispatch
     * immediately), and the lookahead scheduler's head-of-line
     * starvation bound.
     */
    double maxWaitUs = 0.0;
    /**
     * Replica count when the engine is built from one PlatformSpec;
     * must be 1 when an explicit fleet is given.
     */
    unsigned replicas = 1;
    /** Dispatch policy: fifo | lookahead | edf | slo. */
    std::string scheduler = "fifo";
    /** End-to-end latency budget the slo scheduler sizes against. */
    double sloBudgetUs = 0.0;
    /**
     * Compiled-artifact cache; nullptr uses the process-level
     * ArtifactCache::process() shared with the sweep runner.
     */
    ArtifactCache *cache = nullptr;
    /**
     * Summarize latencies with the constant-memory P-squared
     * estimator instead of the exact nearest-rank percentiles; the
     * million-request mode (docs/serving.md documents the error
     * bounds). Off by default so small runs and the locked goldens
     * keep the exact values.
     */
    bool streamingStats = false;
    /**
     * Keep the per-request RequestRecord (and per-batch BatchRecord)
     * vectors on the report. On by default for the library API; the
     * CLI ties it to --per-request so million-request runs do not
     * hold O(requests) records.
     */
    bool retainRecords = true;
    /**
     * Admission control: shed an arriving request when the pending
     * queue already holds this many requests (0 = unbounded). Not
     * valid for closed-loop runs (a shed client would reissue at the
     * same instant and shed forever).
     */
    std::size_t maxQueueDepth = 0;
    /**
     * Admission control: shed an arriving request whose dispatch
     * deadline is already unmeetable -- the earliest any replica
     * frees (the cheapest-dispatch oracle) is past its deadline --
     * instead of queueing a guaranteed miss. Sheds are counted
     * separately from deadline misses.
     */
    bool shedUnmeetable = false;
    /**
     * Deterministic fault model (src/serve/faults.h): explicit and
     * seeded replica outages on the virtual clock. A replica dying
     * strictly inside a batch's (dispatch, finish) window destroys
     * the batch; the retry policy below decides what happens to its
     * requests. Inactive by default.
     */
    FaultSpec faults;
    /**
     * Retry / hedging policy for fault-destroyed batches (and
     * optional hedged duplicate dispatch). Inactive by default.
     */
    RetryPolicy retry;
    /**
     * Microseconds charged on top of a batch's compute latency when
     * the serving replica's previous batch ran a different network
     * (weight reload / reconfiguration); a replica's first batch
     * pays it too (cold start). 0 disables the model.
     */
    double switchPenaltyUs = 0.0;

    /**
     * The first rule these options break on a fleet of
     * @p replicaCount replicas, or "" when they are valid: at least
     * one replica, a registered scheduler, the window lookahead and
     * the budget slo require, every time knob within kMaxVirtualUs,
     * FaultSpec::error, RetryPolicy::error, two replicas to hedge,
     * and a bound on the seeded outages the retry backoffs reach.
     * Every run checks them first, and that bound again from its last
     * arrival; dormant knobs are checked too.
     */
    std::string error(std::size_t replicaCount) const;
};

/** Closed-loop benchmark: clients with one outstanding request. */
struct ClosedLoopSpec
{
    /** Concurrent clients; each replaces its request on completion. */
    unsigned clients = 4;
    /** Total requests to serve before draining. */
    std::size_t requests = 256;
    /** Samples per request. */
    unsigned samples = 1;
    /** PRNG seed for the per-request network choice. */
    std::uint64_t seed = 1;
    /** Dispatch deadline granted per request after its arrival;
     *  0 = no deadlines. */
    double deadlineSlackUs = 0.0;
    /** Network mix; empty = the engine's whole catalog. */
    std::vector<std::string> networks;

    /**
     * The first rule this spec breaks under @p opts, or "" when it is
     * valid: a client and a sample per request, no queue-depth
     * shedding, and a deadline slack within kMaxVirtualUs.
     */
    std::string error(const ServeOptions &opts) const;
};

/** One served request with its measured timeline. */
struct RequestRecord
{
    InferenceRequest request;
    /** Virtual time the batch containing this request started. */
    double dispatchUs = 0.0;
    /** Virtual time the batch finished. */
    double finishUs = 0.0;
    /** Total samples of the coalesced batch it rode in. */
    unsigned batchSamples = 0;
    /** Replica the batch ran on. */
    unsigned replica = 0;
    /** True when dispatch happened after the request's deadline. */
    bool deadlineMissed = false;
    /** Dispatch attempts consumed, the successful one included. */
    unsigned attempts = 1;
    /** True when a hedged duplicate dispatch covered this request. */
    bool hedged = false;
    /** True when a fault lost the request before it finally served. */
    bool recovered = false;

    /** Time spent queued before dispatch. */
    double queueUs() const { return dispatchUs - request.arrivalUs; }
    /** End-to-end latency (queueing + compute). */
    double latencyUs() const { return finishUs - request.arrivalUs; }
};

/** One dispatched batch. */
struct BatchRecord
{
    NetworkName network;
    /** Coalesced sample count (the platform batch it ran at). */
    unsigned samples = 0;
    /** Requests coalesced into this batch. */
    std::size_t requests = 0;
    double dispatchUs = 0.0;
    /** Simulated compute latency of the batch. */
    double latencyUs = 0.0;
    /** Replica the batch ran on. */
    unsigned replica = 0;
};

/** What one replica did over a run. */
struct ReplicaUsage
{
    /** The replica's platform display name. */
    std::string platform;
    std::size_t batches = 0;
    std::uint64_t samples = 0;
    /** Summed simulated compute time of its batches. */
    double busyUs = 0.0;
    /** busyUs over the run's makespan. */
    double utilization = 0.0;
    /** Summed simulated energy of its batches. */
    double energyJ = 0.0;
    /** Down time within [0, makespan] (fault runs only). */
    double downUs = 0.0;
    /** Dispatches a fault destroyed on this replica. */
    std::size_t lostBatches = 0;
    /** Compute time spent on lost or cancelled dispatches. */
    double wastedUs = 0.0;
};

/** Latency summary (nearest-rank percentiles). */
struct Percentiles
{
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double mean = 0.0;
    double max = 0.0;
};

/** Nearest-rank percentile summary of @p values (exposed for tests). */
Percentiles percentiles(std::vector<double> values);

/** Everything one serving run measured. */
struct ServeReport
{
    /** "open-loop" or "closed-loop". */
    std::string mode;
    /** Fleet display name ("name" or "nameA x2 + nameB"). */
    std::string platform;
    /** Dispatch policy the run used. */
    std::string scheduler = "fifo";
    TimingModel timing = TimingModel::Simple;
    unsigned maxBatch = 0;
    double maxWaitUs = 0.0;
    double sloBudgetUs = 0.0;

    /**
     * Served requests in id order; retained only when
     * ServeOptions.retainRecords (the default) is on. requestCount
     * always holds the served total.
     */
    std::vector<RequestRecord> requests;
    /** Dispatched batches in dispatch order (retainRecords only). */
    std::vector<BatchRecord> batches;
    /** Per-replica usage, in replica order. */
    std::vector<ReplicaUsage> replicas;
    /** Served request count (independent of record retention). */
    std::size_t requestCount = 0;
    /** Dispatched batch count (independent of record retention). */
    std::size_t batchCount = 0;
    /** Total samples served. */
    std::uint64_t totalSamples = 0;
    std::size_t deadlineMisses = 0;
    /** Requests shed by admission control (never served). */
    std::size_t shedRequests = 0;
    /** Sheds charged to the queue-depth bound. */
    std::size_t shedByDepth = 0;
    /** Sheds charged to an unmeetable deadline at enqueue. */
    std::size_t shedByDeadline = 0;
    /** Sheds that happened while at least one replica was down
     *  (capacity loss, not pure overload; fault runs only). */
    std::size_t shedDegraded = 0;
    /**
     * True when a fault model or retry policy was active. It gates
     * only the report's availability section: requestsIssued is
     * counted only on such runs, and perfbench/digests.json locks
     * engine_issued at 0 on fault-free ones, so the section stays
     * gated until that digest is re-recorded.
     */
    bool faultReport = false;
    /** True when latencies were summarized by the P2 estimator. */
    bool streamingStats = false;
    /** Earliest request arrival the run observed. */
    double firstArrivalUs = 0.0;
    /** Exact-mode latency samples, in completion order. */
    std::vector<double> latencySamples;
    /** Exact-mode queueing samples, in completion order. */
    std::vector<double> queueSamples;
    /** Streaming-mode latency summary (streamingStats only). */
    StreamingSummary latencyStream;
    /** Streaming-mode queueing summary (streamingStats only). */
    StreamingSummary queueStream;
    /** Virtual time of the last batch completion. */
    double makespanUs = 0.0;
    /** Summed simulated energy of every dispatched batch. */
    double energyJ = 0.0;
    /** Artifact-cache misses (compilations) charged to this run. */
    std::size_t compiles = 0;
    /** Artifact-cache hits observed by this run. */
    std::size_t cacheHits = 0;
    /** Distinct (class, network, batch-size) simulations added. */
    std::size_t distinctBatchShapes = 0;

    // Availability accounting (fault runs; see docs/serving.md).
    // The identity requestsIssued == requestCount + shedRequests +
    // requestsAbandoned holds exactly on every run.
    /** Distinct requests that entered the system. */
    std::size_t requestsIssued = 0;
    /** Times a request was in a fault-destroyed dispatch (one
     *  request can be lost more than once). */
    std::size_t requestLossEvents = 0;
    /** Requests lost for good: retries exhausted, denied by the
     *  retry budget, or stranded on a permanently dead fleet. */
    std::size_t requestsAbandoned = 0;
    /** Requests that were lost at least once and then served. */
    std::size_t requestsRecovered = 0;
    /** Re-dispatches issued by the retry policy. */
    std::size_t retriesIssued = 0;
    /** Requests covered by a hedged duplicate dispatch. */
    std::size_t hedgesIssued = 0;
    /** Hedged requests whose hedge completed first. */
    std::size_t hedgesWon = 0;
    /** Hedges cancelled because the primary completed first. */
    std::size_t hedgesCancelled = 0;
    /** Hedges destroyed by a fault on the hedge replica. */
    std::size_t hedgesLost = 0;
    /** Dispatches destroyed by a replica dying mid-compute. */
    std::size_t lostBatches = 0;
    /** Summed per-replica down time within [0, makespan]. */
    double fleetDownUs = 0.0;
    /** Latest outage recovery at or before the makespan. */
    double lastRecoveryUs = 0.0;
    /** Makespan minus the last recovery: how long the fleet took to
     *  drain the backlog after its final outage ended. */
    double drainAfterRecoveryUs = 0.0;
    /** Batches whose replica had to reload weights for a different
     *  network (switch-penalty runs only). */
    std::size_t networkSwitches = 0;
    /** Total switch penalty charged across the run. */
    double switchPenaltyTotalUs = 0.0;

    Percentiles latencyUs() const;
    Percentiles queueUs() const;
    /**
     * The active window, first arrival to makespan. The plain rates
     * below divide by the whole virtual timeline, [0, makespan],
     * which understates throughput for parsed traces whose first
     * arrival is far from 0; the active rates divide by this.
     */
    double activeWindowUs() const;
    double requestsPerSec() const;
    double samplesPerSec() const;
    double activeRequestsPerSec() const;
    double activeSamplesPerSec() const;
    /** Offered load: issued requests over [0, makespan]. */
    double offeredRequestsPerSec() const;
    /** Served fraction of the issued requests (goodput / offered). */
    double goodput() const;
    /** Mean fleet up-fraction over [0, makespan]. */
    double fleetAvailability() const;
    /** Mean occupied fraction of the dispatched batches. */
    double batchFill() const;

    /**
     * The report's conservation identities: with faultReport set,
     * issued == served + shed + abandoned; always, hedges issued ==
     * won + cancelled + lost, total samples <= batches x max batch,
     * deadline misses <= served requests, and the replica ledger
     * (replica batches, samples and energy sum to the fleet's; each
     * replica's busy + down time fits in the makespan); with retained
     * records, arrival <= dispatch <= finish, deadlineMissed ==
     * (deadline set and dispatch past it), and no two batches on one
     * replica overlap. Returns "" when all hold, else a description of
     * every violated one. Debug builds check every engine run.
     */
    std::string checkInvariants() const;

    /**
     * Machine-readable dump. Deliberately excludes the worker-thread
     * count so output is byte-identical across thread counts;
     * @p per_request additionally embeds every request record.
     */
    std::string json(bool per_request = false) const;
};

/**
 * Serving front-end over a replica fleet; see file docs. Not
 * thread-safe: one engine serves one workload at a time (the
 * internal worker pool is an implementation detail).
 */
class ServingEngine
{
  public:
    /**
     * Serve @p spec on opts.replicas identical replicas; the
     * catalog defaults to the eight paper benchmarks.
     */
    explicit ServingEngine(PlatformSpec spec, ServeOptions opts = {});
    /**
     * Serve a heterogeneous fleet, one replica per spec (any
     * registered kinds; opts.replicas must stay 1 unless the fleet
     * has a single spec).
     */
    ServingEngine(std::vector<PlatformSpec> fleet, ServeOptions opts = {});
    ServingEngine(ServingEngine &&) = default;

    /** Replace the network catalog (tests use tiny networks). */
    void setCatalog(std::vector<zoo::Benchmark> catalog);

    /** The coalescing limit in samples (option or fleet batch). */
    unsigned maxBatch() const { return maxBatch_; }

    /** Replicas behind the queue. */
    std::size_t replicaCount() const { return replicas_.size(); }

    /**
     * Serve an arrival-ordered open-loop trace to completion;
     * requests with equal arrivals are admitted in id order.
     */
    ServeReport run(const std::vector<InferenceRequest> &trace);

    /** Run the closed-loop benchmark @p spec describes. */
    ServeReport runClosedLoop(const ClosedLoopSpec &spec);

  private:
    struct Run;
    /** The closed loop's clients: their PRNG, id counter and quota. */
    struct Clients;

    /** What one batch shape costs, from one Platform::run. */
    struct ShapeCost
    {
        /** Simulated compute latency; negative until simulated. */
        double latencyUs = -1.0;
        double energyJ = 0.0;
    };

    /** One distinct platform configuration; replicas share these so
     *  R identical replicas compile and simulate each shape once. */
    struct PlatformClass
    {
        PlatformSpec spec;
        /** Built platform per batch size (batch binds at build). */
        std::map<unsigned, std::unique_ptr<Platform>> platforms;
        /** Memoized costs, flat [network id][batch 0..maxBatch()]. */
        std::vector<ShapeCost> memo;
    };

    /** Sentinel for "no network served yet" (a cold replica). */
    static constexpr unsigned kNoNetwork = ~0u;

    struct Replica
    {
        std::size_t cls = 0;
        double freeAt = 0.0;
        std::size_t batches = 0;
        std::uint64_t samples = 0;
        double busyUs = 0.0;
        double energyJ = 0.0;
        /** Interned id of the last network dispatched here (switch
         *  penalty and warm-up accounting). */
        unsigned lastNetId = kNoNetwork;
        /** Dispatches a fault destroyed on this replica. */
        std::size_t lostBatches = 0;
        /** Compute time lost to destroyed or cancelled dispatches. */
        double wastedUs = 0.0;
    };

    /** Catalog id of @p name, or kNoNetwork when the catalog lacks
     *  it: one vector read, no string hashing. */
    unsigned findNetwork(NetworkName name) const
    {
        return name.index() < catalogIds_.size() ? catalogIds_[name.index()]
                                                 : kNoNetwork;
    }
    /** Fatal: the catalog lacks @p name, wanted by @p who. */
    [[noreturn]] void unknownNetwork(NetworkName name,
                                     const std::string &who) const;
    const Platform &platformFor(std::size_t cls, unsigned batch);
    /** The memoized cost of a batch shape, simulated on first use. */
    const ShapeCost &shape(std::size_t cls, unsigned netId, unsigned batch);
    std::string fleetName() const;
    /** @p req with its network handle (records, closed-loop
     *  starters). */
    InferenceRequest requestOf(const PendingRequest &req) const;
    /** Precompile, at the full batch, every catalog network whose
     *  id is marked in @p networks. */
    void precompile(const std::vector<bool> &networks);
    void internCatalog();
    /** Serve @p initial, plus what @p clients issue (nullptr: an
     *  open loop), to completion; @p warmNetworks precompile
     *  alongside the initial networks. */
    ServeReport runLoop(const std::vector<InferenceRequest> &initial,
                        const std::vector<unsigned> &warmNetworks,
                        Clients *clients);

    ServeOptions opts_;
    std::vector<zoo::Benchmark> catalog_;
    /** Each catalog entry's interned name. */
    std::vector<NetworkName> catalogNames_;
    /** NetworkName::index() -> dense catalog id (index into catalog_
     *  and memo), or kNoNetwork; sized to the largest catalog name. */
    std::vector<unsigned> catalogIds_;
    /** Filled memo entries across every class. */
    std::size_t shapesMemoized_ = 0;
    /** The coalescing cap, fixed at construction. */
    unsigned maxBatch_ = 0;
    ArtifactCache *cache_;
    std::vector<PlatformClass> classes_;
    std::vector<Replica> replicas_;
};

} // namespace serve
} // namespace bitfusion

#endif // BITFUSION_SERVE_SERVING_ENGINE_H
