/**
 * @file
 * The virtual-clock event loop behind the serving engine: replica
 * selection and cheapest-platform routing, scheduler-planned
 * batches, memoized platform runs, and the report aggregation.
 */

#include "src/serve/serving_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/prng.h"
#include "src/core/artifact_cache.h"
#include "src/runner/parallel_for.h"
#include "src/serve/scheduler.h"

namespace bitfusion {
namespace serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Completed batches the p99-derived hedge delay waits for. */
constexpr std::size_t kHedgeWarmup = 16;

/** One dispatch of a batch: its primary, or its hedge. */
struct Attempt
{
    std::size_t replica = 0;
    double dispatch = 0.0;
    /** Simulated compute latency plus any reload penalty. */
    double latency = 0.0;
    double energy = 0.0;
    double finish = 0.0;
    /** Outage onset strictly inside (dispatch, finish); +inf when
     *  the replica stays up. */
    double failAt = kInf;

    /** True when a fault destroys the attempt before it finishes. */
    bool lost() const { return failAt < finish; }
};

/** How an attempt ended: it completed, was cancelled because the
 *  other attempt completed first, or died with its replica. */
enum class Outcome
{
    Completed,
    Cancelled,
    Died,
};

/** A lost request's first arrival and consumed dispatches, kept
 *  until it serves or is abandoned. */
struct RetryState
{
    double originalArrivalUs = 0.0;
    /** Dispatches consumed (and lost) so far. */
    unsigned attempts = 0;
};

/** The network @p spec's platform runs: quantized or baseline. */
const Network &
variant(const zoo::Benchmark &bench, const PlatformSpec &spec)
{
    return spec.runsQuantized ? bench.quantized : bench.baseline;
}

/** Admission order: true when @p a arrives before @p b, ties on id. */
template <typename A, typename B>
bool
arrivesBefore(const A &a, const B &b)
{
    if (a.arrivalUs != b.arrivalUs)
        return a.arrivalUs < b.arrivalUs;
    return a.id < b.id;
}

/**
 * Future arrivals in (arrival, id) order. The run's initial requests
 * -- the open-loop trace, or the closed loop's starters -- are read
 * in place through a cursor; the requests injected while serving
 * (retries and closed-loop reissues) wait in a reused slab, and a
 * min-heap of compact (arrival, id) keys naming their slots merges
 * with the cursor on the same order.
 */
class ArrivalStream
{
  public:
    /** @p catalogIds maps a NetworkName::index() to its catalog id;
     *  it must name every initial request's network. */
    ArrivalStream(const std::vector<InferenceRequest> &initial,
                  const std::vector<unsigned> &catalogIds)
        : initial_(initial), catalogIds_(catalogIds)
    {
        // Initial requests come arrival-ordered, but equal arrivals
        // may carry non-monotone ids; only then is a permutation kept.
        for (std::size_t i = 1; i < initial_.size(); ++i) {
            if (!arrivesBefore(initial_[i], initial_[i - 1]))
                continue;
            order_.resize(initial_.size());
            std::iota(order_.begin(), order_.end(), std::size_t{0});
            std::stable_sort(order_.begin(), order_.end(),
                             [this](std::size_t a, std::size_t b) {
                                 return arrivesBefore(initial_[a],
                                                      initial_[b]);
                             });
            break;
        }
    }

    bool empty() const
    {
        return cursor_ == initial_.size() && heap_.empty();
    }

    /** The earliest arrival time; +infinity when the stream is dry. */
    double nextUs() const
    {
        if (cursorFirst())
            return initial_[index(cursor_)].arrivalUs;
        return heap_.empty() ? kInf : slab_[heap_.front().slot].arrivalUs;
    }

    /** Pop the earliest arrival; the stream must not be empty. */
    PendingRequest pop()
    {
        if (cursorFirst()) {
            const std::size_t i = index(cursor_++);
            const InferenceRequest &req = initial_[i];
            PendingRequest out;
            out.id = req.id;
            out.arrivalUs = req.arrivalUs;
            out.deadlineUs = req.deadlineUs;
            out.network = catalogIds_[req.network.index()];
            out.samples = req.samples;
            return out;
        }
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        const std::uint32_t slot = heap_.back().slot;
        heap_.pop_back();
        free_.push_back(slot);
        return slab_[slot];
    }

    /** Inject @p req into the stream. */
    void push(const PendingRequest &req)
    {
        std::uint32_t slot = 0;
        if (free_.empty()) {
            BF_ASSERT(slab_.size() <
                      std::numeric_limits<std::uint32_t>::max());
            slot = static_cast<std::uint32_t>(slab_.size());
            slab_.push_back(req);
        } else {
            slot = free_.back();
            free_.pop_back();
            slab_[slot] = req;
        }
        heap_.push_back({timeKey(req.arrivalUs), req.id, slot});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

  private:
    /** An injected arrival's (arrival, id) order and its slab slot. */
    struct Entry
    {
        std::uint64_t time;
        std::uint64_t id;
        std::uint32_t slot;
    };

    /**
     * An unsigned key that orders arrival times as double's < does:
     * the sign bit is flipped on nonnegative values and every bit on
     * negative ones. Adding +0.0 first turns -0.0 into +0.0, so the
     * two zeros tie as they compare. Injected arrivals are in fact
     * never negative (every dispatch, and so every loss and
     * completion, is at or after the replicas' first free time, +0.0),
     * but the key does not rely on it. They are never NaN: the
     * virtual clock bounds every time the engine accepts.
     */
    static std::uint64_t timeKey(double us)
    {
        std::uint64_t bits = 0;
        const double v = us + 0.0;
        std::memcpy(&bits, &v, sizeof bits);
        constexpr std::uint64_t sign = std::uint64_t{1} << 63;
        return (bits & sign) != 0 ? ~bits : bits | sign;
    }

    /** Heap order that keeps the earliest injected arrival on top. */
    struct Later
    {
        bool operator()(const Entry &a, const Entry &b) const
        {
            // (a.time, a.id) > (b.time, b.id), without a branch.
            const unsigned later = a.time > b.time;
            const unsigned tie = a.time == b.time;
            const unsigned idLater = a.id > b.id;
            return (later | (tie & idLater)) != 0;
        }
    };

    std::size_t index(std::size_t k) const
    {
        return order_.empty() ? k : order_[k];
    }

    /** True when the cursor holds the earliest arrival (it wins an
     *  exact tie with an injected one). */
    bool cursorFirst() const
    {
        if (cursor_ == initial_.size())
            return false;
        return heap_.empty() ||
               !arrivesBefore(slab_[heap_.front().slot],
                              initial_[index(cursor_)]);
    }

    const std::vector<InferenceRequest> &initial_;
    const std::vector<unsigned> &catalogIds_;
    /** Admission permutation of initial_; empty when in order. */
    std::vector<std::size_t> order_;
    std::size_t cursor_ = 0;
    /** Injected requests by slot; free_ lists the reusable slots. */
    std::vector<PendingRequest> slab_;
    std::vector<std::uint32_t> free_;
    std::vector<Entry> heap_;
};

void
percentilesJson(json::Writer &w, const Percentiles &p)
{
    w.beginObject();
    w.key("p50").value(p.p50);
    w.key("p95").value(p.p95);
    w.key("p99").value(p.p99);
    w.key("mean").value(p.mean);
    w.key("max").value(p.max);
    w.endObject();
}

/** @p count per second over @p windowUs; 0 for an empty window. */
double
perSecond(double count, double windowUs)
{
    return windowUs > 0.0 ? count / (windowUs * 1e-6) : 0.0;
}

Percentiles
streamPercentiles(const StreamingSummary &stream)
{
    Percentiles p;
    p.p50 = stream.p50();
    p.p95 = stream.p95();
    p.p99 = stream.p99();
    p.mean = stream.mean();
    p.max = stream.max();
    return p;
}

/** Replicas whose specs describe the same machine share one
 *  PlatformClass (one compile and one memoized simulation per
 *  shape). Class identity is the spec itself: kind, display name,
 *  network variant, batch, and the config struct's own operator==
 *  through the type-erased handle, so two hand-built specs that
 *  share a display name but differ in one config field land in
 *  distinct classes instead of silently merging. */
bool
sameClass(const PlatformSpec &a, const PlatformSpec &b)
{
    return a.kind == b.kind && a.name == b.name &&
           a.runsQuantized == b.runsQuantized && a.batch == b.batch &&
           a.config == b.config;
}

} // namespace

// ---------------------------------------------------------- Percentiles

Percentiles
percentiles(std::vector<double> values)
{
    Percentiles p;
    if (values.empty())
        return p;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    const auto rank = [&](double q) {
        // Nearest-rank: the smallest value with at least q% of the
        // sample at or below it.
        std::size_t idx = static_cast<std::size_t>(
            std::ceil(q / 100.0 * static_cast<double>(n)));
        idx = std::max<std::size_t>(idx, 1);
        return values[std::min(idx, n) - 1];
    };
    p.p50 = rank(50.0);
    p.p95 = rank(95.0);
    p.p99 = rank(99.0);
    double sum = 0.0;
    for (double v : values)
        sum += v;
    p.mean = sum / static_cast<double>(n);
    p.max = values.back();
    return p;
}

// ---------------------------------------------------------- ServeReport

Percentiles
ServeReport::latencyUs() const
{
    return streamingStats ? streamPercentiles(latencyStream)
                          : percentiles(latencySamples);
}

Percentiles
ServeReport::queueUs() const
{
    return streamingStats ? streamPercentiles(queueStream)
                          : percentiles(queueSamples);
}

double
ServeReport::activeWindowUs() const
{
    return std::max(0.0, makespanUs - firstArrivalUs);
}

double
ServeReport::requestsPerSec() const
{
    return perSecond(static_cast<double>(requestCount), makespanUs);
}

double
ServeReport::samplesPerSec() const
{
    return perSecond(static_cast<double>(totalSamples), makespanUs);
}

double
ServeReport::activeRequestsPerSec() const
{
    return perSecond(static_cast<double>(requestCount), activeWindowUs());
}

double
ServeReport::activeSamplesPerSec() const
{
    return perSecond(static_cast<double>(totalSamples), activeWindowUs());
}

double
ServeReport::offeredRequestsPerSec() const
{
    return perSecond(static_cast<double>(requestsIssued), makespanUs);
}

double
ServeReport::goodput() const
{
    if (requestsIssued == 0)
        return 0.0;
    return static_cast<double>(requestCount) /
           static_cast<double>(requestsIssued);
}

double
ServeReport::fleetAvailability() const
{
    if (replicas.empty() || makespanUs <= 0.0)
        return 1.0;
    return 1.0 - fleetDownUs / (makespanUs *
                                static_cast<double>(replicas.size()));
}

double
ServeReport::batchFill() const
{
    if (batchCount == 0 || maxBatch == 0)
        return 0.0;
    return static_cast<double>(totalSamples) /
           (static_cast<double>(batchCount) *
            static_cast<double>(maxBatch));
}

std::string
ServeReport::checkInvariants() const
{
    std::string broken;
    const auto fail = [&broken](const std::string &what) {
        broken += (broken.empty() ? "" : "; ") + what;
    };
    const auto str = [](std::uint64_t v) { return std::to_string(v); };
    if (faultReport &&
        requestsIssued != requestCount + shedRequests + requestsAbandoned) {
        fail("issued " + str(requestsIssued) + " != served " +
             str(requestCount) + " + shed " + str(shedRequests) +
             " + abandoned " + str(requestsAbandoned));
    }
    if (hedgesIssued != hedgesWon + hedgesCancelled + hedgesLost) {
        fail("hedges issued " + str(hedgesIssued) + " != won " +
             str(hedgesWon) + " + cancelled " + str(hedgesCancelled) +
             " + lost " + str(hedgesLost));
    }
    if (totalSamples > std::uint64_t{batchCount} * maxBatch) {
        fail("samples " + str(totalSamples) + " > batches " +
             str(batchCount) + " x max batch " + str(maxBatch));
    }
    if (deadlineMisses > requestCount) {
        fail("deadline misses " + str(deadlineMisses) + " > served " +
             str(requestCount));
    }

    // The replica ledger: every served batch ran on exactly one
    // replica, and a replica computes only while it is up.
    std::size_t batchSum = 0;
    std::uint64_t sampleSum = 0;
    double energySum = 0.0;
    const double slack = 1e-9 * std::max(1.0, makespanUs);
    for (std::size_t r = 0; r < replicas.size(); ++r) {
        const ReplicaUsage &rep = replicas[r];
        batchSum += rep.batches;
        sampleSum += rep.samples;
        energySum += rep.energyJ;
        if (rep.busyUs + rep.downUs > makespanUs + slack)
            fail("replica " + str(r) + " busy + down > makespan");
    }
    if (batchSum != batchCount) {
        fail("replica batches " + str(batchSum) + " != batches " +
             str(batchCount));
    }
    if (sampleSum != totalSamples) {
        fail("replica samples " + str(sampleSum) + " != samples " +
             str(totalSamples));
    }
    if (std::abs(energySum - energyJ) > 1e-9 * std::abs(energyJ))
        fail("replica energy sum != fleet energy");

    // A replica runs one batch at a time: no two of its retained
    // batches overlap.
    std::vector<std::tuple<unsigned, double, double>> spans;
    for (const BatchRecord &b : batches)
        spans.emplace_back(b.replica, b.dispatchUs,
                           b.dispatchUs + b.latencyUs);
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
        const auto [r, start, end] = spans[i];
        if (r == std::get<0>(spans[i - 1]) &&
            start < std::get<2>(spans[i - 1]) - slack)
            fail("replica " + str(r) + " runs two batches at once");
    }

    for (const RequestRecord &rec : requests) {
        const std::string id = "request " + str(rec.request.id);
        if (rec.dispatchUs < rec.request.arrivalUs)
            fail(id + " dispatched before its arrival");
        if (rec.finishUs < rec.dispatchUs)
            fail(id + " finished before its dispatch");
        const bool late = rec.request.deadlineUs > 0.0 &&
                          rec.dispatchUs > rec.request.deadlineUs;
        if (rec.deadlineMissed != late)
            fail(id + " deadlineMissed disagrees with its deadline");
    }
    return broken;
}

std::string
ServeReport::json(bool per_request) const
{
    // Every run writes every key; a section with nothing to report
    // writes zeros. The one exception is availability (faultReport).
    json::Writer w(2);
    w.beginObject();
    w.key("serve").value(mode);
    w.key("platform").value(platform);
    w.key("scheduler").value(scheduler);
    w.key("slo_budget_us").value(sloBudgetUs);
    w.key("timing").value(toString(timing));
    w.key("max_batch").value(maxBatch);
    w.key("max_wait_us").value(maxWaitUs);
    w.key("requests").value(requestCount);
    w.key("samples").value(totalSamples);
    w.key("batches").value(batchCount);
    w.key("batch_fill").value(batchFill());
    w.key("distinct_batch_shapes").value(distinctBatchShapes);
    w.key("makespan_us").value(makespanUs);
    w.key("first_arrival_us").value(firstArrivalUs);
    w.key("active_window_us").value(activeWindowUs());
    w.key("requests_per_sec").value(requestsPerSec());
    w.key("samples_per_sec").value(samplesPerSec());
    w.key("active_requests_per_sec").value(activeRequestsPerSec());
    w.key("active_samples_per_sec").value(activeSamplesPerSec());
    w.key("streaming_stats").value(streamingStats);
    w.key("latency_us");
    percentilesJson(w, latencyUs());
    w.key("queue_us");
    percentilesJson(w, queueUs());
    w.key("deadline_misses").value(deadlineMisses);
    w.key("shed").value(shedRequests);
    w.key("shed_by_depth").value(shedByDepth);
    w.key("shed_by_deadline").value(shedByDeadline);
    w.key("shed_degraded").value(shedDegraded);
    w.key("network_switches").value(networkSwitches);
    w.key("switch_penalty_total_us").value(switchPenaltyTotalUs);
    double energyPerSampleJ = 0.0;
    if (totalSamples != 0)
        energyPerSampleJ = energyJ / static_cast<double>(totalSamples);
    w.key("energy_j").value(energyJ);
    w.key("energy_per_sample_j").value(energyPerSampleJ);
    w.key("replicas").beginArray();
    for (const auto &r : replicas) {
        w.beginObject();
        w.key("platform").value(r.platform);
        w.key("batches").value(r.batches);
        w.key("samples").value(r.samples);
        w.key("busy_us").value(r.busyUs);
        w.key("utilization").value(r.utilization);
        w.key("energy_j").value(r.energyJ);
        w.key("down_us").value(r.downUs);
        w.key("lost_batches").value(r.lostBatches);
        w.key("wasted_us").value(r.wastedUs);
        w.endObject();
    }
    w.endArray();
    if (faultReport) {
        w.key("availability").beginObject();
        w.key("requests_issued").value(requestsIssued);
        w.key("requests_served").value(requestCount);
        w.key("requests_shed").value(shedRequests);
        w.key("requests_abandoned").value(requestsAbandoned);
        w.key("requests_recovered").value(requestsRecovered);
        w.key("request_loss_events").value(requestLossEvents);
        w.key("batches_lost").value(lostBatches);
        w.key("retries_issued").value(retriesIssued);
        w.key("hedges_issued").value(hedgesIssued);
        w.key("hedges_won").value(hedgesWon);
        w.key("hedges_cancelled").value(hedgesCancelled);
        w.key("hedges_lost").value(hedgesLost);
        w.key("fleet_down_us").value(fleetDownUs);
        w.key("fleet_availability").value(fleetAvailability());
        w.key("offered_rps").value(offeredRequestsPerSec());
        w.key("goodput").value(goodput());
        w.key("last_recovery_us").value(lastRecoveryUs);
        w.key("drain_after_recovery_us").value(drainAfterRecoveryUs);
        w.endObject();
    }
    w.key("cache").beginObject();
    w.key("compiles").value(compiles);
    w.key("hits").value(cacheHits);
    w.endObject();

    if (per_request) {
        w.key("request_records").beginArray();
        for (const auto &r : requests) {
            w.beginObject();
            w.key("id").value(r.request.id);
            w.key("network").value(r.request.network.str());
            w.key("samples").value(r.request.samples);
            w.key("arrival_us").value(r.request.arrivalUs);
            w.key("dispatch_us").value(r.dispatchUs);
            w.key("finish_us").value(r.finishUs);
            w.key("batch_samples").value(r.batchSamples);
            w.key("replica").value(r.replica);
            w.key("deadline_missed").value(r.deadlineMissed);
            w.key("attempts").value(r.attempts);
            w.key("hedged").value(r.hedged);
            w.key("recovered").value(r.recovered);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
    return w.take();
}

// ------------------------------------------------------- input rules

namespace {

/** Why @p us, the @p what knob (spelled @p knob), is outside the
 *  virtual clock; "" when withinVirtualClock. */
std::string
clockError(double us, const char *what, const char *knob)
{
    if (withinVirtualClock(us))
        return {};
    return detail::concat(what, " ", us,
                          " us is outside the virtual clock's +-",
                          kMaxVirtualUs, " us range (", knob, ")");
}

/**
 * Most seeded outages a run may generate over its fleet. FaultTimeline
 * materializes every one up to the latest time it is asked about, 16
 * bytes each, so a far horizon over a ~1 us failure cycle once
 * allocated until the process died. 4e6 outages take about 64 MB.
 */
constexpr double kMaxSeededOutages = 4e6;

/**
 * Why the seeded outages up to @p lastArrivalUs plus every backoff of
 * a request lost on each attempt exceed kMaxSeededOutages, or "".
 * Hedges launch only while their primary runs, so reach no further. A
 * makespan that overload stretches is not bounded here.
 */
std::string
outageError(const ServeOptions &opts, std::size_t replicaCount,
            double lastArrivalUs)
{
    const FaultSpec &faults = opts.faults;
    const RetryPolicy &retry = opts.retry;
    if (faults.mtbfUs <= 0.0)
        return {};
    // Retry k waits up to backoffBaseUs * 2^(k-1) * (1 + jitterFrac);
    // past the double range the sum is +inf.
    const int retries =
        static_cast<int>(std::min(retry.maxAttempts, 1100u)) - 1;
    double horizonUs = lastArrivalUs;
    if (retry.backoffBaseUs > 0.0 && retries > 0) {
        horizonUs += retry.backoffBaseUs * (std::ldexp(1.0, retries) - 1.0) *
                     (1.0 + retry.jitterFrac);
    }
    const double cycleUs = faults.mtbfUs + faults.mttrUs;
    const double outages =
        static_cast<double>(replicaCount) * horizonUs / cycleUs;
    if (outages <= kMaxSeededOutages)
        return {};
    return detail::concat(
        "seeded failures on ", replicaCount, " replicas up to virtual time ",
        horizonUs, " us need about ", outages, " outages, above the ",
        kMaxSeededOutages,
        " bound (raise mtbfUs/mttrUs, --mtbf-us/--mttr-us, or shorten the "
        "trace or the retry backoffs, --retry-backoff-us/--retry-max)");
}

} // namespace

std::string
ServeOptions::error(std::size_t replicaCount) const
{
    if (replicas == 0)
        return "serving needs at least one replica (replicas, --replicas)";
    if (SchedulerRegistry::builtin().find(scheduler) == nullptr) {
        return detail::concat("unknown scheduler '", scheduler,
                              "' (known: ", schedulerNames(), ")");
    }
    if (scheduler == "lookahead" && maxWaitUs <= 0.0) {
        return "the lookahead scheduler needs a positive batching "
               "window (maxWaitUs, --max-wait-us) as its head-of-line "
               "starvation bound";
    }
    if (scheduler == "slo" && sloBudgetUs <= 0.0) {
        return "the slo scheduler needs a positive latency budget "
               "(sloBudgetUs, --slo-us)";
    }
    std::string broken = clockError(maxWaitUs, "batching window",
                                    "maxWaitUs, --max-wait-us");
    if (broken.empty())
        broken = clockError(sloBudgetUs, "SLO budget", "sloBudgetUs, --slo-us");
    if (broken.empty()) {
        broken = clockError(switchPenaltyUs, "switch penalty",
                            "switchPenaltyUs, --switch-penalty-us");
    }
    if (broken.empty())
        broken = faults.error(replicaCount);
    if (broken.empty())
        broken = retry.error();
    if (broken.empty() && retry.hedgingEnabled() && replicaCount < 2) {
        broken = detail::concat("hedged dispatch (--hedge-us, "
                                "--hedge-p99-x) needs at least two "
                                "replicas, the fleet has ",
                                replicaCount);
    }
    if (broken.empty())
        broken = outageError(*this, replicaCount, 0.0);
    return broken;
}

std::string
ClosedLoopSpec::error(const ServeOptions &opts) const
{
    if (clients == 0)
        return "closed loop needs at least one client (clients, --closed-loop)";
    if (samples == 0)
        return "closed loop needs at least one sample per request "
               "(samples, --samples)";
    if (opts.maxQueueDepth > 0) {
        return "closed-loop runs cannot shed by queue depth "
               "(maxQueueDepth, --max-queue-depth): a shed client would "
               "reissue at the same instant and shed forever (use "
               "shedUnmeetable, --shed-unmeetable, or an open-loop trace)";
    }
    return clockError(deadlineSlackUs, "closed-loop deadline slack",
                      "deadlineSlackUs, --deadline-us");
}

// -------------------------------------------------------- ServingEngine

ServingEngine::ServingEngine(PlatformSpec spec, ServeOptions opts)
    : ServingEngine(std::vector<PlatformSpec>{std::move(spec)},
                    std::move(opts))
{}

ServingEngine::ServingEngine(std::vector<PlatformSpec> fleet,
                             ServeOptions opts)
    : opts_(std::move(opts))
{
    if (fleet.empty())
        BF_FATAL("serving fleet must not be empty");
    if (opts_.replicas > 1 && fleet.size() > 1) {
        BF_FATAL("give either one spec with ServeOptions.replicas or "
                 "an explicit fleet, not both");
    }
    if (fleet.size() == 1 && opts_.replicas > 1)
        fleet.resize(opts_.replicas, fleet.front());

    for (auto &spec : fleet) {
        std::size_t cls = classes_.size();
        for (std::size_t c = 0; c < classes_.size(); ++c) {
            if (sameClass(classes_[c].spec, spec)) {
                cls = c;
                break;
            }
        }
        if (cls == classes_.size()) {
            std::unique_ptr<Platform> built =
                PlatformRegistry::builtin().build(spec);
            classes_.emplace_back();
            const unsigned batch = spec.batch;
            classes_.back().spec = std::move(spec);
            // Seed the built platform; platformFor reuses it.
            classes_.back().platforms.emplace(batch, std::move(built));
        }
        Replica replica;
        replica.cls = cls;
        replicas_.push_back(replica);
    }

    // The coalescing cap, fixed for the engine's lifetime: the option,
    // else the fleet's largest configured batch.
    maxBatch_ = opts_.maxBatch;
    for (const auto &cls : classes_) {
        if (opts_.maxBatch == 0)
            maxBatch_ = std::max(maxBatch_, cls.spec.batch);
    }

    cache_ = opts_.cache != nullptr ? opts_.cache
                                    : &ArtifactCache::process();
    catalog_ = zoo::all();
    internCatalog();
}

void
ServingEngine::internCatalog()
{
    catalogNames_.clear();
    catalogIds_.clear();
    for (std::size_t i = 0; i < catalog_.size(); ++i) {
        catalogNames_.emplace_back(catalog_[i].name);
        const std::size_t index = catalogNames_[i].index();
        if (index >= catalogIds_.size())
            catalogIds_.resize(index + 1, kNoNetwork);
        // A repeated name keeps its first entry.
        if (catalogIds_[index] == kNoNetwork)
            catalogIds_[index] = static_cast<unsigned>(i);
    }
    const std::size_t row = std::size_t{maxBatch_} + 1;
    for (auto &cls : classes_)
        cls.memo.assign(catalog_.size() * row, ShapeCost{});
    shapesMemoized_ = 0;
}

void
ServingEngine::setCatalog(std::vector<zoo::Benchmark> catalog)
{
    if (catalog.empty())
        BF_FATAL("serving catalog must not be empty");
    catalog_ = std::move(catalog);
    internCatalog();
}

void
ServingEngine::unknownNetwork(NetworkName name, const std::string &who) const
{
    std::string names;
    for (const auto &bench : catalog_)
        names += (names.empty() ? "" : ", ") + bench.name;
    BF_FATAL("serving catalog has no network '", name, "' (", who,
             "); it has ", names);
}

const Platform &
ServingEngine::platformFor(std::size_t cls, unsigned batch)
{
    PlatformClass &entry = classes_[cls];
    auto it = entry.platforms.find(batch);
    if (it == entry.platforms.end()) {
        PlatformSpec spec = entry.spec;
        spec.batch = batch;
        it = entry.platforms
                 .emplace(batch, PlatformRegistry::builtin().build(spec))
                 .first;
    }
    return *it->second;
}

const ServingEngine::ShapeCost &
ServingEngine::shape(std::size_t cls, unsigned netId, unsigned batch)
{
    PlatformClass &entry = classes_[cls];
    const std::size_t row = std::size_t{maxBatch_} + 1;
    ShapeCost &cost = entry.memo[netId * row + batch];
    if (cost.latencyUs >= 0.0)
        return cost;

    const Platform &platform = platformFor(cls, batch);
    const Network &net = variant(catalog_[netId], entry.spec);
    const ArtifactCache::Outcome out = cache_->get(platform, net);
    RunOptions runOpts;
    runOpts.timing = opts_.timing;
    runOpts.artifact = out.artifact.get();
    runOpts.perLayer = false; // only the run totals are read
    const RunStats stats = platform.run(net, runOpts);
    cost.latencyUs = stats.seconds() * 1e6;
    cost.energyJ = stats.energy().totalJ();
    ++shapesMemoized_;
    return cost;
}

std::string
ServingEngine::fleetName() const
{
    if (replicas_.size() == 1)
        return classes_.front().spec.name;
    std::string name;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        std::size_t count = 0;
        for (const auto &r : replicas_)
            count += r.cls == c ? 1 : 0;
        if (!name.empty())
            name += " + ";
        name += classes_[c].spec.name;
        if (count > 1)
            name += " x" + std::to_string(count);
    }
    return name;
}

InferenceRequest
ServingEngine::requestOf(const PendingRequest &req) const
{
    InferenceRequest out;
    out.id = req.id;
    out.network = catalogNames_[req.network];
    out.samples = req.samples;
    out.arrivalUs = req.arrivalUs;
    out.deadlineUs = req.deadlineUs;
    return out;
}

void
ServingEngine::precompile(const std::vector<bool> &networks)
{
    // Build each class's full-batch platform before fanning out; the
    // workers then only touch the thread-safe artifact cache.
    std::vector<std::pair<const Platform *, const Network *>> tasks;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        const Platform &platform = platformFor(c, maxBatch());
        for (std::size_t id = 0; id < networks.size(); ++id) {
            if (networks[id]) {
                tasks.emplace_back(
                    &platform, &variant(catalog_[id], classes_[c].spec));
            }
        }
    }

    parallelFor(tasks.size(),
                resolveThreads(opts_.threads, tasks.size()),
                [&](std::size_t i) {
                    cache_->get(*tasks[i].first, *tasks[i].second);
                });
}

/**
 * The closed loop's clients, each with one outstanding request: a
 * completion, shed or abandonment hands its client the next request,
 * arriving at that instant, until the quota is issued. Every request,
 * the starters first, draws its network from the mix through one
 * PRNG in issue order.
 */
struct ServingEngine::Clients
{
    Clients(const ClosedLoopSpec &closedLoop, std::vector<unsigned> networks)
        : spec(closedLoop), mix(std::move(networks)), prng(closedLoop.seed)
    {}

    /** The next request, arriving at @p arrivalUs. */
    PendingRequest make(double arrivalUs)
    {
        PendingRequest req;
        req.id = nextId++;
        req.network = mix[prng.below(mix.size())];
        req.samples = spec.samples;
        req.arrivalUs = arrivalUs;
        if (spec.deadlineSlackUs > 0.0)
            req.deadlineUs = arrivalUs + spec.deadlineSlackUs;
        return req;
    }

    /** True, with @p next filled in, while the quota is not issued. */
    bool reissue(double atUs, PendingRequest &next)
    {
        if (nextId >= spec.requests)
            return false;
        next = make(atUs);
        return true;
    }

    const ClosedLoopSpec &spec;
    /** The interned network mix. */
    const std::vector<unsigned> mix;
    Prng prng;
    /** Requests issued so far; the next one's id. */
    std::uint64_t nextId = 0;
};

/**
 * One runLoop's state, and the scheduler's window into it. runLoop
 * drives the named phases over this state in turn: clock (which
 * admits what is due), plan (with routing), dispatch (with settling),
 * account (serve, or retry and abandon) and finish.
 */
struct ServingEngine::Run final : SchedulerContext
{
    Run(ServingEngine &owner, const std::vector<InferenceRequest> &initial,
        const std::vector<unsigned> &warmNetworks, Clients *closedLoop)
        : engine(owner), opts(owner.opts_), replicas(owner.replicas_),
          clients(closedLoop), scheduler(makeScheduler(opts.scheduler)),
          faultEra(opts.faults.active() || opts.retry.active()),
          arrivals(initial, owner.catalogIds_), queue(owner.catalog_.size()),
          retryJitter(Prng(opts.faults.seed ^ 0x7265747279ULL).next()),
          compilesBefore(owner.cache_->compileCount()),
          hitsBefore(owner.cache_->hitCount()),
          shapesBefore(owner.shapesMemoized_)
    {
        BF_ASSERT(maxBatch() > 0);
        if (opts.faults.active())
            timeline.emplace(opts.faults, replicas.size());

        // Resolve every initial request's network (fatal on an unknown
        // name); those networks and @p warmNetworks precompile.
        std::vector<bool> warm(engine.catalog_.size(), false);
        for (const auto &req : initial) {
            const unsigned id = engine.findNetwork(req.network);
            if (id == kNoNetwork) {
                engine.unknownNetwork(
                    req.network, detail::concat("request ", req.id,
                                                ", arrival ", req.arrivalUs,
                                                " us"));
            }
            warm[id] = true;
        }
        for (unsigned id : warmNetworks)
            warm[id] = true;
        engine.precompile(warm);

        report.platform = engine.fleetName();
        report.scheduler = scheduler->name();
        report.timing = opts.timing;
        report.maxBatch = maxBatch();
        report.maxWaitUs = opts.maxWaitUs;
        report.sloBudgetUs = opts.sloBudgetUs;
        report.streamingStats = opts.streamingStats;
        report.faultReport = faultEra;
        for (auto &replica : replicas)
            replica = Replica{replica.cls};
    }

    const PendingQueue &pending() const override { return queue; }
    double nextArrivalUs() const override { return arrivals.nextUs(); }
    RequestHandle absorbNextArrival() override
    {
        BF_ASSERT(!arrivals.empty());
        return admit();
    }
    unsigned maxBatch() const override { return engine.maxBatch_; }
    double windowUs() const override { return opts.maxWaitUs; }
    double sloBudgetUs() const override { return opts.sloBudgetUs; }

    /** True when replica @p r is free and up at @p at. */
    bool available(std::size_t r, double at)
    {
        return replicas[r].freeAt <= at &&
               (!timeline || timeline->upAt(r, at));
    }

    double batchLatencyUs(unsigned network, unsigned samples) override
    {
        // Only classes with a replica free (and outside any fault
        // outage) at the planning time can receive the batch, so the
        // estimate handed to schedulers is an upper bound on the
        // routed latency: the free set only grows between planning
        // and dispatch, and routing takes its minimum.
        double best = kInf;
        for (std::size_t c = 0; c < engine.classes_.size(); ++c) {
            for (std::size_t r = 0; r < replicas.size(); ++r) {
                if (replicas[r].cls == c && available(r, now)) {
                    best = std::min(
                        best, engine.shape(c, network, samples).latencyUs);
                    break;
                }
            }
        }
        return best;
    }

    /**
     * Admit: pop the earliest future arrival and either enqueue it
     * (its handle) or shed it (kNoRequest). Depth shedding bounds the
     * pending queue; deadline shedding refuses a request whose
     * earliest possible dispatch -- max(arrival, the fleet's ready
     * time) -- is already past its deadline, i.e. a guaranteed miss.
     * A shed closed-loop client issues its next request.
     */
    RequestHandle admit()
    {
        const PendingRequest req = arrivals.pop();
        if (req.samples == 0 || req.samples > maxBatch()) {
            BF_FATAL("request ", req.id, " has ", req.samples,
                     " samples; the engine coalesces whole requests "
                     "up to max batch ",
                     maxBatch());
        }
        firstArrival = std::min(firstArrival, req.arrivalUs);
        // A re-entering retry was already admitted (and counted
        // issued) on its first arrival; it bypasses admission so a
        // degraded fleet cannot shed work it has accepted.
        if (!retrying.empty() && retrying.count(req.id) != 0)
            return queue.push(req);
        if (faultEra)
            ++report.requestsIssued;
        bool depthShed = false;
        bool deadlineShed = false;
        if (opts.maxQueueDepth > 0 && queue.size() >= opts.maxQueueDepth) {
            depthShed = true;
        } else if (opts.shedUnmeetable && req.deadlineUs > 0.0) {
            // The ready time accounts for capacity loss: a replica
            // inside an outage cannot free up before it recovers.
            deadlineShed = std::max(req.arrivalUs, ready) > req.deadlineUs;
        }
        if (!depthShed && !deadlineShed)
            return queue.push(req);
        ++report.shedRequests;
        report.shedByDepth += depthShed ? 1 : 0;
        report.shedByDeadline += deadlineShed ? 1 : 0;
        if (timeline && timeline->anyDownAt(req.arrivalUs))
            ++report.shedDegraded;
        issueNext(std::max(req.arrivalUs, ready));
        return kNoRequest;
    }

    /**
     * Clock: set the planning time from the earliest-ready replica
     * (under faults, ready means both free and outside any outage)
     * and admit every arrival due by then. False when the run is
     * over: both queues are drained, or every replica is permanently
     * down -- then the stranded requests are abandoned, without
     * handing closed-loop clients a next request that would reissue
     * into the dead fleet forever.
     */
    bool clock()
    {
        if (queue.empty() && arrivals.empty())
            return false;
        ready = kInf;
        for (std::size_t r = 0; r < replicas.size(); ++r) {
            const double freeAt = replicas[r].freeAt;
            ready = std::min(ready,
                             timeline ? timeline->upAfter(r, freeAt) : freeAt);
        }
        if (std::isinf(ready)) {
            std::size_t stranded = queue.size();
            queue.clear();
            for (; !arrivals.empty(); ++stranded) {
                if (retrying.count(arrivals.pop().id) == 0)
                    ++report.requestsIssued;
            }
            report.requestsAbandoned += stranded;
            retrying.clear();
            BF_WARN("serving fleet is permanently down; abandoning ",
                    stranded, " pending requests");
            return false;
        }
        now = queue.empty() ? std::max(ready, arrivals.nextUs()) : ready;
        while (arrivals.nextUs() <= now)
            admit();
        return true;
    }

    /**
     * Plan: the scheduler picks the next batch, and routing places it.
     * Under faults the batch slides later when no replica is up and
     * free at the planned departure; a slide to infinity means the
     * fleet died for good mid-plan, so the members are abandoned and
     * this returns false.
     */
    bool plan(BatchPlan &batch, Attempt &primary)
    {
        batch.members.clear();
        batch.network = 0;
        batch.samples = 0;
        batch.dispatchUs = 0.0;
        scheduler->plan(*this, now, batch);
        BF_ASSERT(!batch.members.empty());
        unsigned samples = 0;
        double at = std::max(batch.dispatchUs, now);
        for (RequestHandle member : batch.members) {
            BF_ASSERT(queue.contains(member));
            const PendingRequest &r = queue[member];
            BF_ASSERT(r.network == batch.network);
            samples += r.samples;
            at = std::max(at, r.arrivalUs);
        }
        BF_ASSERT(samples == batch.samples);
        BF_ASSERT(samples <= maxBatch());

        const std::size_t none = replicas.size();
        std::size_t chosen = route(batch.network, samples, at, none);
        while (chosen == none) {
            BF_ASSERT(timeline);
            double slide = kInf;
            for (std::size_t r = 0; r < replicas.size(); ++r) {
                slide = std::min(slide,
                                 timeline->upAfter(
                                     r, std::max(replicas[r].freeAt, at)));
            }
            if (std::isinf(slide)) {
                report.requestsAbandoned += batch.members.size();
                for (RequestHandle member : batch.members)
                    retrying.erase(queue[member].id);
                return false;
            }
            at = slide;
            chosen = route(batch.network, samples, at, none);
        }
        primary = launch(chosen, at, batch.network, samples);
        return true;
    }

    /** True when running @p net on @p replica pays the reload
     *  penalty. */
    bool reloads(const Replica &replica, unsigned net) const
    {
        return opts.switchPenaltyUs > 0.0 && replica.lastNetId != net;
    }

    /**
     * Routing: the replica other than @p skip that is free and up at
     * @p at and serves the batch cheapest, bidding the reload penalty
     * when it would switch networks (ties go to the lowest index);
     * replicas.size() when none is.
     */
    std::size_t route(unsigned net, unsigned samples, double at,
                      std::size_t skip)
    {
        std::size_t best = replicas.size();
        double bestCost = kInf;
        for (std::size_t r = 0; r < replicas.size(); ++r) {
            if (r == skip || !available(r, at))
                continue;
            double cost =
                engine.shape(replicas[r].cls, net, samples).latencyUs;
            if (reloads(replicas[r], net))
                cost += opts.switchPenaltyUs;
            if (cost < bestCost) {
                bestCost = cost;
                best = r;
            }
        }
        return best;
    }

    /**
     * Start the batch on replica @p r at @p at: its simulated latency,
     * plus the reload penalty when the replica changes networks (a
     * cold replica's first batch pays it too), and the instant an
     * outage opening strictly inside (dispatch, finish) destroys it.
     */
    Attempt launch(std::size_t r, double at, unsigned net, unsigned samples)
    {
        Replica &replica = replicas[r];
        const ShapeCost &cost = engine.shape(replica.cls, net, samples);
        Attempt attempt{r, at, cost.latencyUs, cost.energyJ};
        if (reloads(replica, net)) {
            attempt.latency += opts.switchPenaltyUs;
            ++report.networkSwitches;
            report.switchPenaltyTotalUs += opts.switchPenaltyUs;
        }
        replica.lastNetId = net;
        attempt.finish = at + attempt.latency;
        if (timeline)
            attempt.failAt = timeline->nextDownWithin(r, at, attempt.finish);
        return attempt;
    }

    /**
     * Dispatch: run the primary and, when it is still unresolved after
     * the hedge delay, a hedge on the cheapest other up-and-free
     * replica. The first completion wins (the primary wins exact
     * ties) and the loser is cancelled at that instant; both replicas
     * settle, then the members are accounted.
     */
    void dispatch(const BatchPlan &batch, const Attempt &primary)
    {
        std::optional<Attempt> hedge;
        if (opts.retry.hedgingEnabled()) {
            double delay = opts.retry.hedgeDelayUs;
            if (opts.retry.hedgeP99Multiplier > 0.0) {
                delay = hedgeP99.count() >= kHedgeWarmup
                            ? opts.retry.hedgeP99Multiplier * hedgeP99.value()
                            : -1.0;
            }
            const double at = primary.dispatch + delay;
            if (delay >= 0.0 &&
                at < (primary.lost() ? primary.failAt : primary.finish)) {
                const std::size_t r = route(batch.network, batch.samples,
                                            at, primary.replica);
                if (r < replicas.size())
                    hedge = launch(r, at, batch.network, batch.samples);
            }
        }

        const bool hedgeWins =
            hedge && !hedge->lost() &&
            (primary.lost() || hedge->finish < primary.finish);
        const Attempt *winner =
            hedgeWins ? &*hedge : (primary.lost() ? nullptr : &primary);
        const double doneAt = winner != nullptr ? winner->finish : kInf;
        // A lost primary counts as died even when a faster hedge won.
        Outcome outcome = Outcome::Completed;
        if (winner != &primary)
            outcome = primary.lost() ? Outcome::Died : Outcome::Cancelled;
        settle(primary, outcome, batch.samples, doneAt);
        if (hedge) {
            // A hedge whose replica died before the batch completed is
            // lost; one still running when the primary completed is
            // cancelled.
            outcome = Outcome::Completed;
            if (!hedgeWins) {
                outcome = hedge->lost() && hedge->failAt <= doneAt
                              ? Outcome::Died
                              : Outcome::Cancelled;
            }
            settle(*hedge, outcome, batch.samples, doneAt);
            const std::size_t covered = batch.members.size();
            report.hedgesIssued += covered;
            if (outcome == Outcome::Completed)
                report.hedgesWon += covered;
            else if (outcome == Outcome::Died)
                report.hedgesLost += covered;
            else
                report.hedgesCancelled += covered;
        }

        if (winner != nullptr)
            serve(batch, primary.dispatch, *winner, hedge.has_value());
        else
            retry(batch, hedge ? std::max(primary.failAt, hedge->failAt)
                               : primary.failAt);
    }

    /**
     * Settle an attempt's replica: useful compute counts as busy time
     * and energy; compute cancelled at @p doneAt, or destroyed when
     * the replica died, counts as waste and charges nothing.
     */
    void settle(const Attempt &attempt, Outcome outcome, unsigned samples,
                double doneAt)
    {
        Replica &replica = replicas[attempt.replica];
        switch (outcome) {
            case Outcome::Completed:
                replica.freeAt = attempt.finish;
                replica.batches += 1;
                replica.samples += samples;
                replica.busyUs += attempt.latency;
                replica.energyJ += attempt.energy;
                break;
            case Outcome::Cancelled:
                replica.freeAt = doneAt;
                replica.wastedUs += doneAt - attempt.dispatch;
                break;
            case Outcome::Died:
                replica.freeAt =
                    timeline->upAfter(attempt.replica, attempt.failAt);
                replica.wastedUs += attempt.failAt - attempt.dispatch;
                replica.lostBatches += 1;
                ++report.lostBatches;
                break;
        }
    }

    /** Account a completed batch: every member is served. */
    void serve(const BatchPlan &batch, double dispatchUs,
               const Attempt &winner, bool hedged)
    {
        const double doneAt = winner.finish;
        const auto replica = static_cast<unsigned>(winner.replica);
        report.energyJ += winner.energy;
        report.totalSamples += batch.samples;
        report.makespanUs = std::max(report.makespanUs, doneAt);
        report.batchCount += 1;
        if (opts.retry.hedgeP99Multiplier > 0.0)
            hedgeP99.add(doneAt - winner.dispatch);
        if (opts.retainRecords) {
            report.batches.push_back(
                {engine.catalogNames_[batch.network], batch.samples,
                 batch.members.size(), winner.dispatch, winner.latency,
                 replica});
        }
        for (RequestHandle member : batch.members) {
            const PendingRequest &req = queue[member];
            double arrivalUs = req.arrivalUs;
            unsigned attempts = 1;
            const auto it = retrying.empty() ? retrying.end()
                                             : retrying.find(req.id);
            const bool recovered = it != retrying.end();
            if (recovered) {
                // A recovered request's latency spans every attempt
                // since its first arrival.
                arrivalUs = it->second.originalArrivalUs;
                attempts = it->second.attempts + 1;
                ++report.requestsRecovered;
                retrying.erase(it);
            }
            const bool missed =
                req.deadlineUs > 0.0 && dispatchUs > req.deadlineUs;
            report.deadlineMisses += missed ? 1 : 0;
            report.requestCount += 1;
            if (opts.streamingStats) {
                report.latencyStream.add(doneAt - arrivalUs);
                report.queueStream.add(dispatchUs - arrivalUs);
            } else {
                report.latencySamples.push_back(doneAt - arrivalUs);
                report.queueSamples.push_back(dispatchUs - arrivalUs);
            }
            issueNext(doneAt);
            if (opts.retainRecords) {
                RequestRecord rec{engine.requestOf(req), dispatchUs, doneAt,
                                  batch.samples, replica, missed, attempts,
                                  hedged, recovered};
                rec.request.arrivalUs = arrivalUs;
                report.requests.push_back(std::move(rec));
            }
        }
    }

    /**
     * Account a destroyed batch: every member either re-enters the
     * arrival stream under its original id after its backoff, or is
     * abandoned when its attempts or the global retry budget run out
     * (a closed-loop client then issues its next request).
     */
    void retry(const BatchPlan &batch, double lostAt)
    {
        for (RequestHandle member : batch.members) {
            PendingRequest req = queue[member];
            const auto emplaced = retrying.try_emplace(req.id);
            RetryState &st = emplaced.first->second;
            if (emplaced.second)
                st.originalArrivalUs = req.arrivalUs;
            st.attempts += 1;
            ++report.requestLossEvents;
            if (opts.retry.maxAttempts <= st.attempts ||
                (opts.retry.retryBudget > 0 &&
                 report.retriesIssued >= opts.retry.retryBudget)) {
                ++report.requestsAbandoned;
                retrying.erase(req.id);
                issueNext(lostAt);
                continue;
            }
            ++report.retriesIssued;
            // The backoff doubles per attempt and saturates at the
            // virtual-time ceiling.
            const int doublings =
                static_cast<int>(std::min(st.attempts - 1, 1023u));
            double backoff = std::min(kMaxVirtualUs,
                                      opts.retry.backoffBaseUs *
                                          std::ldexp(1.0, doublings));
            if (opts.retry.jitterFrac > 0.0) {
                backoff *=
                    1.0 + opts.retry.jitterFrac * retryJitter.nextDouble();
            }
            req.arrivalUs = lostAt + backoff;
            arrivals.push(req);
        }
    }

    /** Hand the closed-loop client freed at @p atUs its next request. */
    void issueNext(double atUs)
    {
        PendingRequest next;
        if (clients != nullptr && clients->reissue(atUs, next))
            arrivals.push(next);
    }

    /** Finish: per-replica usage, cache counters and the invariants. */
    ServeReport finish()
    {
        std::stable_sort(report.requests.begin(), report.requests.end(),
                         [](const RequestRecord &a, const RequestRecord &b) {
                             return a.request.id < b.request.id;
                         });
        report.firstArrivalUs =
            std::isfinite(firstArrival) ? firstArrival : 0.0;
        for (std::size_t r = 0; r < replicas.size(); ++r) {
            const Replica &replica = replicas[r];
            ReplicaUsage usage;
            usage.platform = engine.classes_[replica.cls].spec.name;
            usage.batches = replica.batches;
            usage.samples = replica.samples;
            usage.busyUs = replica.busyUs;
            usage.utilization = report.makespanUs > 0.0
                                    ? replica.busyUs / report.makespanUs
                                    : 0.0;
            usage.energyJ = replica.energyJ;
            usage.lostBatches = replica.lostBatches;
            usage.wastedUs = replica.wastedUs;
            if (timeline)
                usage.downUs = timeline->downUsWithin(r, report.makespanUs);
            report.fleetDownUs += usage.downUs;
            report.replicas.push_back(std::move(usage));
        }
        if (timeline) {
            report.lastRecoveryUs =
                timeline->lastRecoveryBefore(report.makespanUs);
            report.drainAfterRecoveryUs =
                report.lastRecoveryUs > 0.0
                    ? report.makespanUs - report.lastRecoveryUs
                    : 0.0;
        }
        report.distinctBatchShapes = engine.shapesMemoized_ - shapesBefore;
        report.compiles = engine.cache_->compileCount() - compilesBefore;
        report.cacheHits = engine.cache_->hitCount() - hitsBefore;
#ifndef NDEBUG
        const std::string broken = report.checkInvariants();
        if (!broken.empty())
            BF_PANIC("serve report invariants violated: ", broken);
#endif
        return std::move(report);
    }

    ServingEngine &engine;
    const ServeOptions &opts;
    std::vector<Replica> &replicas;
    /** The closed loop's clients; nullptr for an open loop. */
    Clients *clients;
    std::unique_ptr<Scheduler> scheduler;
    /** Any fault source or retry/hedge knob: counts issued requests
     *  and adds the availability report. */
    const bool faultEra;
    std::optional<FaultTimeline> timeline;
    ArrivalStream arrivals;
    PendingQueue queue;
    /** Lost requests awaiting a retry or abandonment, by id. */
    std::unordered_map<std::uint64_t, RetryState> retrying;
    /** Seeded jitter for retry backoff, derived from the fault seed
     *  and drawn in loss order (virtual-time order), so a fixed seed
     *  reproduces every backoff bit-exactly. */
    Prng retryJitter;
    /** Running p99 of completed batch latencies; the p99-derived
     *  hedge delay trusts it after a short warmup. */
    P2Quantile hedgeP99{0.99};
    /** The planning time. */
    double now = 0.0;
    /** The planning step's fleet ready time: the earliest any replica
     *  is both free and up. No replica's freeAt moves between planning
     *  and settlement, so admission reads it instead of recomputing. */
    double ready = 0.0;
    double firstArrival = kInf;
    const std::size_t compilesBefore;
    const std::size_t hitsBefore;
    const std::size_t shapesBefore;
    ServeReport report;
};

ServeReport
ServingEngine::runLoop(const std::vector<InferenceRequest> &initial,
                       const std::vector<unsigned> &warmNetworks,
                       Clients *clients)
{
    std::string broken = opts_.error(replicas_.size());
    if (broken.empty() && !initial.empty())
        broken = outageError(opts_, replicas_.size(),
                             initial.back().arrivalUs);
    if (!broken.empty())
        BF_FATAL(broken);
    Run run(*this, initial, warmNetworks, clients);
    BatchPlan batch;
    Attempt primary;
    while (run.clock()) {
        if (run.queue.empty())
            continue; // everything due was shed; advance the clock
        if (run.plan(batch, primary))
            run.dispatch(batch, primary);
        run.queue.remove(batch.members);
    }
    return run.finish();
}

ServeReport
ServingEngine::run(const std::vector<InferenceRequest> &trace)
{
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const InferenceRequest &req = trace[i];
        if (!withinVirtualClock(req.arrivalUs) ||
            !withinVirtualClock(req.deadlineUs)) {
            BF_FATAL("request ", i, " arrives at ", req.arrivalUs,
                     " us with deadline ", req.deadlineUs,
                     " us, outside the virtual clock's +-", kMaxVirtualUs,
                     " us range");
        }
        if (i > 0 && req.arrivalUs < trace[i - 1].arrivalUs) {
            BF_FATAL("open-loop trace is not arrival-ordered at "
                     "request ",
                     i);
        }
    }
    ServeReport report = runLoop(trace, {}, nullptr);
    report.mode = "open-loop";
    return report;
}

ServeReport
ServingEngine::runClosedLoop(const ClosedLoopSpec &spec)
{
    const std::string broken = spec.error(opts_);
    if (!broken.empty())
        BF_FATAL(broken);

    // The network mix, resolved once; every request draws from it.
    std::vector<unsigned> mix;
    for (const auto &name : spec.networks) {
        mix.push_back(findNetwork(name));
        if (mix.back() == kNoNetwork)
            unknownNetwork(name, "closed-loop network mix");
    }
    if (mix.empty()) {
        for (unsigned id = 0; id < catalog_.size(); ++id)
            mix.push_back(id);
    }
    Clients clients(spec, std::move(mix));

    std::vector<InferenceRequest> initial;
    const std::size_t starters =
        std::min<std::size_t>(spec.clients, spec.requests);
    for (std::size_t c = 0; c < starters; ++c)
        initial.push_back(requestOf(clients.make(0.0)));

    // The whole network mix prewarms, not just the starters' random
    // draws.
    ServeReport report = runLoop(initial, clients.mix, &clients);
    report.mode = "closed-loop";
    return report;
}

} // namespace serve
} // namespace bitfusion
