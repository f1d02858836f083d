/**
 * @file
 * The virtual-clock event loop behind the serving engine: replica
 * selection and cheapest-platform routing, scheduler-planned
 * batches, memoized platform runs, and the report aggregation.
 */

#include "src/serve/serving_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
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
 * in place through a cursor; a min-heap of compact records holds only
 * the requests injected while serving (retries and closed-loop
 * reissues) and merges with the cursor on the same order.
 */
class ArrivalStream
{
  public:
    /** @p nets holds each initial request's interned network id. */
    ArrivalStream(const std::vector<InferenceRequest> &initial,
                  std::vector<unsigned> nets)
        : initial_(initial), nets_(std::move(nets))
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
        return cursor_ == initial_.size() && injected_.empty();
    }

    /** The earliest arrival time; +infinity when the stream is dry. */
    double nextUs() const
    {
        if (cursorFirst())
            return initial_[index(cursor_)].arrivalUs;
        return injected_.empty() ? std::numeric_limits<double>::infinity()
                                 : injected_.front().arrivalUs;
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
            out.network = nets_[i];
            out.samples = req.samples;
            return out;
        }
        std::pop_heap(injected_.begin(), injected_.end(), Later{});
        const PendingRequest out = injected_.back();
        injected_.pop_back();
        return out;
    }

    /** Inject @p req into the stream. */
    void push(const PendingRequest &req)
    {
        injected_.push_back(req);
        std::push_heap(injected_.begin(), injected_.end(), Later{});
    }

  private:
    /** Heap order that keeps the earliest injected arrival on top. */
    struct Later
    {
        bool operator()(const PendingRequest &a, const PendingRequest &b) const
        {
            return arrivesBefore(b, a);
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
        return injected_.empty() ||
               !arrivesBefore(injected_.front(), initial_[index(cursor_)]);
    }

    const std::vector<InferenceRequest> &initial_;
    std::vector<unsigned> nets_;
    /** Admission permutation of initial_; empty when in order. */
    std::vector<std::size_t> order_;
    std::size_t cursor_ = 0;
    std::vector<PendingRequest> injected_;
};

json::Value
percentilesJson(const Percentiles &p)
{
    return json::Value::object()
        .set("p50", p.p50)
        .set("p95", p.p95)
        .set("p99", p.p99)
        .set("mean", p.mean)
        .set("max", p.max);
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
 *  network variant, effective batch, and field-for-field config
 *  equality through the type-erased handle, so two hand-built specs
 *  that share a display name but differ in config land in distinct
 *  classes instead of silently merging. */
bool
sameClass(const PlatformSpec &a, const PlatformSpec &b)
{
    return a.kind == b.kind && a.name == b.name &&
           a.runsQuantized == b.runsQuantized &&
           a.effectiveBatch() == b.effectiveBatch() &&
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
    if (streamingStats)
        return streamPercentiles(latencyStream);
    if (!latencySamples.empty() || requests.empty())
        return percentiles(latencySamples);
    // A hand-assembled report (tests) with records but no sample
    // vector still summarizes.
    std::vector<double> values;
    values.reserve(requests.size());
    for (const auto &r : requests)
        values.push_back(r.latencyUs());
    return percentiles(std::move(values));
}

Percentiles
ServeReport::queueUs() const
{
    if (streamingStats)
        return streamPercentiles(queueStream);
    if (!queueSamples.empty() || requests.empty())
        return percentiles(queueSamples);
    std::vector<double> values;
    values.reserve(requests.size());
    for (const auto &r : requests)
        values.push_back(r.queueUs());
    return percentiles(std::move(values));
}

double
ServeReport::throughputWindowUs() const
{
    // The legacy definition divides by the whole virtual timeline
    // (time 0 to makespan), which understates throughput for parsed
    // traces whose first arrival is far from 0; the opt-in active
    // window divides by first arrival -> makespan instead.
    if (!activeWindow)
        return makespanUs;
    return std::max(0.0, makespanUs - firstArrivalUs);
}

double
ServeReport::requestsPerSec() const
{
    const double windowUs = throughputWindowUs();
    if (windowUs <= 0.0)
        return 0.0;
    return static_cast<double>(requestCount) / (windowUs * 1e-6);
}

double
ServeReport::samplesPerSec() const
{
    const double windowUs = throughputWindowUs();
    if (windowUs <= 0.0)
        return 0.0;
    return static_cast<double>(totalSamples) / (windowUs * 1e-6);
}

double
ServeReport::offeredRequestsPerSec() const
{
    const double windowUs = throughputWindowUs();
    if (windowUs <= 0.0)
        return 0.0;
    return static_cast<double>(requestsIssued) / (windowUs * 1e-6);
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

bool
ServeReport::fleetReport() const
{
    return replicas.size() > 1 || scheduler != "fifo";
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
    if (faultReport &&
        hedgesIssued != hedgesWon + hedgesCancelled + hedgesLost) {
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
    // The fleet-era fields are gated so a one-replica fifo report
    // keeps the engine's original JSON shape byte-for-byte; the
    // admission / streaming / active-window fields are likewise
    // gated on their features so every pre-existing golden stays
    // byte-identical.
    const bool fleet = fleetReport();

    json::Value doc = json::Value::object();
    doc.set("serve", mode).set("platform", platform);
    if (fleet) {
        doc.set("scheduler", scheduler);
        if (sloBudgetUs > 0.0)
            doc.set("slo_budget_us", sloBudgetUs);
    }
    doc.set("timing", toString(timing))
        .set("max_batch", maxBatch)
        .set("max_wait_us", maxWaitUs)
        .set("requests", static_cast<std::uint64_t>(requestCount))
        .set("samples", totalSamples)
        .set("batches", static_cast<std::uint64_t>(batchCount))
        .set("batch_fill", batchFill())
        .set("distinct_batch_shapes",
             static_cast<std::uint64_t>(distinctBatchShapes))
        .set("makespan_us", makespanUs);
    if (activeWindow) {
        doc.set("first_arrival_us", firstArrivalUs)
            .set("active_window_us", throughputWindowUs());
    }
    doc.set("requests_per_sec", requestsPerSec())
        .set("samples_per_sec", samplesPerSec());
    if (streamingStats)
        doc.set("streaming_stats", true);
    doc.set("latency_us", percentilesJson(latencyUs()))
        .set("queue_us", percentilesJson(queueUs()))
        .set("deadline_misses",
             static_cast<std::uint64_t>(deadlineMisses));
    if (admissionControl) {
        doc.set("shed", static_cast<std::uint64_t>(shedRequests))
            .set("shed_by_depth",
                 static_cast<std::uint64_t>(shedByDepth))
            .set("shed_by_deadline",
                 static_cast<std::uint64_t>(shedByDeadline));
        if (faultReport) {
            doc.set("shed_degraded",
                    static_cast<std::uint64_t>(shedDegraded));
        }
    }
    if (switchReport) {
        doc.set("network_switches",
                static_cast<std::uint64_t>(networkSwitches))
            .set("switch_penalty_total_us", switchPenaltyTotalUs);
    }
    doc.set("energy_j", energyJ)
        .set("energy_per_sample_j",
             totalSamples != 0
                 ? energyJ / static_cast<double>(totalSamples)
                 : 0.0);
    if (fleet || faultReport) {
        json::Value reps = json::Value::array();
        for (const auto &r : replicas) {
            json::Value rep =
                json::Value::object()
                    .set("platform", r.platform)
                    .set("batches",
                         static_cast<std::uint64_t>(r.batches))
                    .set("samples", r.samples)
                    .set("busy_us", r.busyUs)
                    .set("utilization", r.utilization)
                    .set("energy_j", r.energyJ);
            if (faultReport) {
                rep.set("down_us", r.downUs)
                    .set("lost_batches",
                         static_cast<std::uint64_t>(r.lostBatches))
                    .set("wasted_us", r.wastedUs);
            }
            reps.push(std::move(rep));
        }
        doc.set("replicas", std::move(reps));
    }
    if (faultReport) {
        doc.set(
            "availability",
            json::Value::object()
                .set("requests_issued",
                     static_cast<std::uint64_t>(requestsIssued))
                .set("requests_served",
                     static_cast<std::uint64_t>(requestCount))
                .set("requests_shed",
                     static_cast<std::uint64_t>(shedRequests))
                .set("requests_abandoned",
                     static_cast<std::uint64_t>(requestsAbandoned))
                .set("requests_recovered",
                     static_cast<std::uint64_t>(requestsRecovered))
                .set("request_loss_events",
                     static_cast<std::uint64_t>(requestLossEvents))
                .set("batches_lost",
                     static_cast<std::uint64_t>(lostBatches))
                .set("retries_issued",
                     static_cast<std::uint64_t>(retriesIssued))
                .set("hedges_issued",
                     static_cast<std::uint64_t>(hedgesIssued))
                .set("hedges_won",
                     static_cast<std::uint64_t>(hedgesWon))
                .set("hedges_cancelled",
                     static_cast<std::uint64_t>(hedgesCancelled))
                .set("hedges_lost",
                     static_cast<std::uint64_t>(hedgesLost))
                .set("fleet_down_us", fleetDownUs)
                .set("fleet_availability", fleetAvailability())
                .set("offered_rps", offeredRequestsPerSec())
                .set("goodput", goodput())
                .set("last_recovery_us", lastRecoveryUs)
                .set("drain_after_recovery_us",
                     drainAfterRecoveryUs));
    }
    doc.set("cache", json::Value::object()
                         .set("compiles",
                              static_cast<std::uint64_t>(compiles))
                         .set("hits", static_cast<std::uint64_t>(
                                          cacheHits)));

    if (per_request) {
        json::Value recs = json::Value::array();
        for (const auto &r : requests) {
            json::Value rec =
                json::Value::object()
                    .set("id", r.request.id)
                    .set("network", r.request.network)
                    .set("samples", r.request.samples)
                    .set("arrival_us", r.request.arrivalUs)
                    .set("dispatch_us", r.dispatchUs)
                    .set("finish_us", r.finishUs)
                    .set("batch_samples", r.batchSamples);
            if (fleet)
                rec.set("replica", r.replica);
            rec.set("deadline_missed", r.deadlineMissed);
            if (faultReport) {
                rec.set("attempts", r.attempts)
                    .set("hedged", r.hedged)
                    .set("recovered", r.recovered);
            }
            recs.push(std::move(rec));
        }
        doc.set("request_records", std::move(recs));
    }
    return doc.dump(2);
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
    if (opts_.replicas == 0)
        BF_FATAL("serving needs at least one replica");
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
            const unsigned batch = spec.effectiveBatch();
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
            maxBatch_ = std::max(maxBatch_, cls.spec.effectiveBatch());
    }

    cache_ = opts_.cache != nullptr ? opts_.cache
                                    : &ArtifactCache::process();
    if (opts_.store != nullptr)
        cache_->attachStore(opts_.store);
    for (const auto &bench : zoo::all())
        catalog_.push_back(bench);
    internCatalog();
}

void
ServingEngine::internCatalog()
{
    networkIds_.clear();
    networkIds_.reserve(catalog_.size());
    for (std::size_t i = 0; i < catalog_.size(); ++i)
        networkIds_.emplace(catalog_[i].name,
                            static_cast<unsigned>(i));
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

unsigned
ServingEngine::networkId(const std::string &name) const
{
    const auto it = networkIds_.find(name);
    if (it == networkIds_.end())
        BF_FATAL("serving catalog has no network '", name, "'");
    return it->second;
}

const Network &
ServingEngine::variant(const zoo::Benchmark &bench,
                       const PlatformSpec &spec) const
{
    return spec.runsQuantized ? bench.quantized : bench.baseline;
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
    const RunStats stats = platform.run(net, runOpts);
    cost.latencyUs = stats.seconds() * 1e6;
    cost.energyJ = stats.energy().totalJ();
    ++shapesMemoized_;
    return cost;
}

double
ServingEngine::cheapestFreeLatencyUs(unsigned netId, unsigned batch,
                                     double now)
{
    // Only classes with a replica free (and outside any fault
    // outage) at the planning time can receive the batch, so the
    // estimate handed to schedulers is an upper bound on the routed
    // latency: the free set only grows between planning and
    // dispatch, and routing takes its minimum.
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        bool free = false;
        for (std::size_t r = 0; r < replicas_.size(); ++r) {
            if (replicas_[r].cls != c || replicas_[r].freeAt > now)
                continue;
            if (timeline_ != nullptr && !timeline_->upAt(r, now))
                continue;
            free = true;
            break;
        }
        if (!free)
            continue;
        best = std::min(best, shape(c, netId, batch).latencyUs);
    }
    return best;
}

std::size_t
ServingEngine::upReplicaCount(double now)
{
    if (timeline_ == nullptr)
        return replicas_.size();
    std::size_t up = 0;
    for (std::size_t r = 0; r < replicas_.size(); ++r)
        up += timeline_->upAt(r, now) ? 1 : 0;
    return up;
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

void
ServingEngine::validateRequest(const PendingRequest &req, unsigned cap) const
{
    if (req.samples == 0 || req.samples > cap) {
        BF_FATAL("request ", req.id, " has ", req.samples,
                 " samples; the engine coalesces whole requests "
                 "up to max batch ",
                 cap);
    }
}

InferenceRequest
ServingEngine::requestOf(const PendingRequest &req) const
{
    InferenceRequest out;
    out.id = req.id;
    out.network = catalog_[req.network].name;
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

/** The scheduler's window into one runLoop's queues. */
class ServingEngine::LoopContext : public SchedulerContext
{
  public:
    LoopContext(ServingEngine &engine, const PendingQueue &pending,
                const ArrivalStream &arrivals, unsigned cap)
        : engine_(engine), pending_(pending), arrivals_(arrivals),
          cap_(cap)
    {}

    const PendingQueue &pending() const override { return pending_; }

    double nextArrivalUs() const override { return arrivals_.nextUs(); }

    RequestHandle absorbNextArrival() override
    {
        BF_ASSERT(!arrivals_.empty());
        return admit_();
    }

    double batchLatencyUs(unsigned network, unsigned samples) override
    {
        return engine_.cheapestFreeLatencyUs(network, samples, now_);
    }

    unsigned maxBatch() const override { return cap_; }
    double windowUs() const override { return engine_.opts_.maxWaitUs; }
    double sloBudgetUs() const override { return engine_.opts_.sloBudgetUs; }
    std::size_t totalReplicas() const override
    {
        return engine_.replicas_.size();
    }
    std::size_t upReplicas() const override
    {
        return engine_.upReplicaCount(now_);
    }

    /** The engine advances this to each plan's virtual time. */
    void setNow(double now) { now_ = now; }
    /** runLoop's admission gate (pops the earliest arrival). */
    void setAdmit(std::function<RequestHandle()> admit)
    {
        admit_ = std::move(admit);
    }

  private:
    ServingEngine &engine_;
    const PendingQueue &pending_;
    const ArrivalStream &arrivals_;
    unsigned cap_;
    double now_ = 0.0;
    std::function<RequestHandle()> admit_;
};

template <typename OnFinish, typename OnShed>
ServeReport
ServingEngine::runLoop(const std::vector<InferenceRequest> &initial,
                       const std::vector<unsigned> &warmNetworks,
                       OnFinish &&onFinish, OnShed &&onShed)
{
    const unsigned cap = maxBatch();
    BF_ASSERT(cap > 0);
    // make() fatals on an unknown name, so find() is non-null; the
    // policy's own validate hook rejects mis-paired knobs.
    std::unique_ptr<Scheduler> scheduler =
        makeScheduler(opts_.scheduler);
    const SchedulerRegistry::Entry *policy =
        SchedulerRegistry::builtin().find(opts_.scheduler);
    if (policy->validate) {
        SchedulerKnobs knobs;
        knobs.maxWaitUs = opts_.maxWaitUs;
        knobs.sloBudgetUs = opts_.sloBudgetUs;
        policy->validate(knobs);
    }

    // The fault era: any fault source or retry/hedge knob switches
    // on loss handling and the availability report. Every new
    // branch below is gated on it (or on the timeline pointer) so a
    // dormant run takes exactly the pre-fault code path and keeps
    // its report bytes.
    const bool faultEra =
        opts_.faults.active() || opts_.retry.active();
    std::optional<FaultTimeline> timeline;
    if (faultEra) {
        opts_.faults.validate(replicas_.size());
        opts_.retry.validate();
        if (opts_.retry.hedgingEnabled() && replicas_.size() < 2) {
            BF_FATAL("hedged dispatch needs at least two replicas, "
                     "the fleet has ",
                     replicas_.size());
        }
        if (opts_.faults.active())
            timeline.emplace(opts_.faults, replicas_.size());
    }
    timeline_ = timeline ? &*timeline : nullptr;

    // Report "compiles" as misses this run resolved, whether by an
    // actual compile or by a persistent-store load: the count is
    // then a pure function of the workload, so a warm store leaves
    // the report -- and the goldens locking it -- byte-identical.
    const std::size_t compilesBefore =
        cache_->compileCount() + cache_->storeHitCount();
    const std::size_t hitsBefore = cache_->hitCount();
    const std::size_t shapesBefore = shapesMemoized_;
    // Intern every initial request's network once (fatal on an
    // unknown name); those networks and @p warmNetworks precompile.
    std::vector<unsigned> initialNets;
    initialNets.reserve(initial.size());
    std::vector<bool> warm(catalog_.size(), false);
    for (const auto &req : initial) {
        initialNets.push_back(networkId(req.network));
        warm[initialNets.back()] = true;
    }
    for (unsigned id : warmNetworks)
        warm[id] = true;
    precompile(warm);

    ServeReport report;
    report.platform = fleetName();
    report.scheduler = scheduler->name();
    report.timing = opts_.timing;
    report.maxBatch = cap;
    report.maxWaitUs = opts_.maxWaitUs;
    report.sloBudgetUs = opts_.sloBudgetUs;
    report.admissionControl =
        opts_.maxQueueDepth > 0 || opts_.shedUnmeetable;
    report.streamingStats = opts_.streamingStats;
    report.activeWindow = opts_.activeWindowStats;
    report.faultReport = faultEra;
    report.switchReport = opts_.switchPenaltyUs > 0.0;

    ArrivalStream arrivals(initial, std::move(initialNets));
    PendingQueue pending(catalog_.size());
    for (auto &replica : replicas_) {
        const std::size_t cls = replica.cls;
        replica = Replica{};
        replica.cls = cls;
    }
    LoopContext ctx(*this, pending, arrivals, cap);

    double firstArrival = std::numeric_limits<double>::infinity();
    // The planning step's fleet ready time: the earliest any replica
    // is both free and up. No replica's freeAt moves between planning
    // and settlement, so admission reads it instead of recomputing.
    double ready = 0.0;

    // Retry bookkeeping: a lost request re-enters the arrival stream
    // under its original id; this side table carries its first
    // arrival (a recovered request's latency spans every attempt)
    // and its consumed dispatches until it serves or is abandoned.
    struct RetryState
    {
        double originalArrivalUs = 0.0;
        /** Dispatches consumed (and lost) so far. */
        unsigned attempts = 0;
    };
    std::unordered_map<std::uint64_t, RetryState> retrying;
    // Seeded jitter for retry backoff, derived from the fault seed
    // and drawn in loss order (virtual-time order), so a fixed seed
    // reproduces every backoff bit-exactly.
    Prng retryJitter(Prng(opts_.faults.seed ^ 0x7265747279ULL).next());
    // Running p99 of completed batch latencies; the p99-derived
    // hedge delay trusts it after a short warmup.
    P2Quantile hedgeP99(0.99);
    const bool hedgeOnP99 = opts_.retry.hedgeP99Multiplier > 0.0;
    constexpr std::size_t kHedgeWarmup = 16;

    // Requests injected while serving (retries and closed-loop
    // reissues), buffered in storage reused across batches.
    std::vector<PendingRequest> injected;
    const auto flushInjected = [&]() {
        for (const PendingRequest &req : injected)
            arrivals.push(req);
        injected.clear();
    };

    // Admission gate: pops the earliest future arrival and either
    // enqueues it (its handle) or sheds it (kNoRequest). Depth shedding bounds
    // the pending queue; deadline shedding refuses a request whose
    // earliest possible dispatch -- max(arrival, the fleet's ready
    // time) -- is already past its deadline, i.e. a guaranteed
    // miss. Sheds are reported separately from misses, and the
    // closed loop's onShed hands the shed client its next request.
    const auto tryAdmit = [&]() -> RequestHandle {
        const PendingRequest req = arrivals.pop();
        validateRequest(req, cap);
        firstArrival = std::min(firstArrival, req.arrivalUs);
        if (faultEra) {
            // A re-entering retry was already admitted (and counted
            // issued) on its first arrival; it bypasses admission so
            // a degraded fleet cannot shed work it has accepted.
            if (retrying.find(req.id) != retrying.end())
                return pending.push(req);
            ++report.requestsIssued;
        }
        bool depthShed = false;
        bool deadlineShed = false;
        if (opts_.maxQueueDepth > 0 &&
            pending.size() >= opts_.maxQueueDepth) {
            depthShed = true;
        } else if (opts_.shedUnmeetable && req.deadlineUs > 0.0) {
            // The ready time accounts for capacity loss: a replica
            // inside an outage cannot free up before it recovers, so
            // deadlines that only an up fleet could meet shed here
            // during the outage.
            deadlineShed = std::max(req.arrivalUs, ready) > req.deadlineUs;
        }
        if (!depthShed && !deadlineShed)
            return pending.push(req);
        ++report.shedRequests;
        report.shedByDepth += depthShed ? 1 : 0;
        report.shedByDeadline += deadlineShed ? 1 : 0;
        if (timeline_ != nullptr &&
            timeline_->anyDownAt(req.arrivalUs))
            ++report.shedDegraded;
        onShed(std::max(req.arrivalUs, ready), injected);
        flushInjected();
        return kNoRequest;
    };
    ctx.setAdmit(tryAdmit);

    // True when running @p net on @p replica pays the reload penalty.
    const auto reloads = [&](const Replica &replica, unsigned net) {
        return opts_.switchPenaltyUs > 0.0 && replica.lastNetId != net;
    };
    // Routing: the replica other than @p skip that is free and up at
    // @p at and serves the batch cheapest, bidding the reload penalty
    // when it would switch networks (ties go to the lowest index);
    // replicas_.size() when none is.
    const auto route = [&](unsigned net, unsigned samples, double at,
                           std::size_t skip) {
        std::size_t best = replicas_.size();
        double bestCost = std::numeric_limits<double>::infinity();
        for (std::size_t r = 0; r < replicas_.size(); ++r) {
            if (r == skip || replicas_[r].freeAt > at)
                continue;
            if (timeline_ != nullptr && !timeline_->upAt(r, at))
                continue;
            double cost = shape(replicas_[r].cls, net, samples).latencyUs;
            if (reloads(replicas_[r], net))
                cost += opts_.switchPenaltyUs;
            if (cost < bestCost) {
                bestCost = cost;
                best = r;
            }
        }
        return best;
    };
    // Charge replica @p r the batch's simulated latency, plus the
    // reload penalty when it changes networks (a cold replica's first
    // batch pays it too).
    const auto charge = [&](std::size_t r, unsigned net, unsigned samples) {
        Replica &replica = replicas_[r];
        double latencyUs = shape(replica.cls, net, samples).latencyUs;
        if (reloads(replica, net)) {
            latencyUs += opts_.switchPenaltyUs;
            ++report.networkSwitches;
            report.switchPenaltyTotalUs += opts_.switchPenaltyUs;
        }
        replica.lastNetId = net;
        return latencyUs;
    };

    while (!pending.empty() || !arrivals.empty()) {
        // The earliest-ready replica sets the planning clock; under
        // faults "ready" means both free of work and outside any
        // outage.
        ready = std::numeric_limits<double>::infinity();
        for (std::size_t r = 0; r < replicas_.size(); ++r) {
            double at = replicas_[r].freeAt;
            if (timeline_ != nullptr)
                at = timeline_->upAfter(r, at);
            ready = std::min(ready, at);
        }
        double now = ready;
        if (faultEra && std::isinf(now)) {
            // Every replica is permanently down: nothing pending can
            // ever be served again. Count the stranded requests as
            // abandoned -- without handing closed-loop clients a
            // next request, which would reissue into the dead fleet
            // forever -- and stop.
            std::size_t stranded = pending.size();
            report.requestsAbandoned += pending.size();
            pending.clear();
            while (!arrivals.empty()) {
                if (retrying.find(arrivals.pop().id) == retrying.end())
                    ++report.requestsIssued;
                ++report.requestsAbandoned;
                ++stranded;
            }
            retrying.clear();
            BF_WARN("serving fleet is permanently down; abandoning ",
                    stranded, " pending requests");
            break;
        }
        if (pending.empty())
            now = std::max(now, arrivals.nextUs());
        while (arrivals.nextUs() <= now)
            tryAdmit();
        ctx.setNow(now);
        if (pending.empty())
            continue; // everything due was shed; advance the clock

        const BatchPlan plan = scheduler->plan(ctx, now);
        BF_ASSERT(!plan.members.empty());
        const unsigned netId = plan.network;
        unsigned planSamples = 0;
        double dispatch = std::max(plan.dispatchUs, now);
        for (RequestHandle member : plan.members) {
            BF_ASSERT(pending.contains(member));
            const PendingRequest &r = pending[member];
            BF_ASSERT(r.network == netId);
            planSamples += r.samples;
            dispatch = std::max(dispatch, r.arrivalUs);
        }
        BF_ASSERT(planSamples == plan.samples);
        BF_ASSERT(planSamples <= cap);

        // Route the batch. Under faults it slides later when no
        // replica is up and free at the planned departure; a slide to
        // infinity means the fleet died for good mid-plan, so the
        // members are abandoned.
        std::size_t chosen =
            route(netId, planSamples, dispatch, replicas_.size());
        while (chosen == replicas_.size()) {
            BF_ASSERT(timeline_ != nullptr);
            double slide = std::numeric_limits<double>::infinity();
            for (std::size_t r = 0; r < replicas_.size(); ++r) {
                slide = std::min(
                    slide,
                    timeline_->upAfter(
                        r, std::max(replicas_[r].freeAt, dispatch)));
            }
            if (std::isinf(slide))
                break;
            dispatch = slide;
            chosen = route(netId, planSamples, dispatch, replicas_.size());
        }
        if (chosen == replicas_.size()) {
            report.requestsAbandoned += plan.members.size();
            for (RequestHandle member : plan.members)
                retrying.erase(pending[member].id);
            pending.remove(plan.members);
            continue;
        }

        Replica &replica = replicas_[chosen];
        const double latencyUs = charge(chosen, netId, planSamples);
        const double energyJ = shape(replica.cls, netId, planSamples).energyJ;
        const double finish = dispatch + latencyUs;

        // Resolve the dispatch against the fault timeline: an
        // outage opening strictly inside (dispatch, finish)
        // destroys the batch at that instant.
        double failAt = std::numeric_limits<double>::infinity();
        if (timeline_ != nullptr) {
            failAt =
                timeline_->nextDownWithin(chosen, dispatch, finish);
        }
        const bool primaryLost = failAt < finish;

        // Hedge: when the primary is still unresolved after the
        // hedge delay, duplicate the batch onto the cheapest other
        // up-and-free replica. The first completion wins; the loser
        // is cancelled at that instant and its burned compute is
        // charged as waste, not busy time.
        bool hedged = false;
        bool hedgeLost = false;
        std::size_t hedgeReplica = 0;
        double hedgeDispatch = 0.0;
        double hedgeFinish = std::numeric_limits<double>::infinity();
        double hedgeFailAt = std::numeric_limits<double>::infinity();
        double hedgeLatencyUs = 0.0;
        double hedgeEnergyJ = 0.0;
        if (faultEra && opts_.retry.hedgingEnabled()) {
            double delay = opts_.retry.hedgeDelayUs;
            if (hedgeOnP99) {
                delay = hedgeP99.count() >= kHedgeWarmup
                            ? opts_.retry.hedgeP99Multiplier *
                                  hedgeP99.value()
                            : -1.0;
            }
            const double outcomeAt = primaryLost ? failAt : finish;
            if (delay >= 0.0 && dispatch + delay < outcomeAt) {
                hedgeDispatch = dispatch + delay;
                hedgeReplica =
                    route(netId, planSamples, hedgeDispatch, chosen);
                hedged = hedgeReplica < replicas_.size();
            }
            if (hedged) {
                hedgeLatencyUs = charge(hedgeReplica, netId, planSamples);
                hedgeFinish = hedgeDispatch + hedgeLatencyUs;
                const Replica &hr = replicas_[hedgeReplica];
                hedgeEnergyJ = shape(hr.cls, netId, planSamples).energyJ;
                if (timeline_ != nullptr) {
                    hedgeFailAt = timeline_->nextDownWithin(
                        hedgeReplica, hedgeDispatch, hedgeFinish);
                }
                hedgeLost = hedgeFailAt < hedgeFinish;
            }
        }

        // First completion wins (the primary wins exact ties).
        const bool hedgeWins = hedged && !hedgeLost &&
                               (primaryLost || hedgeFinish < finish);
        const bool completed = !primaryLost || hedgeWins;
        const double doneAt = hedgeWins ? hedgeFinish : finish;
        const unsigned serveReplica =
            static_cast<unsigned>(hedgeWins ? hedgeReplica : chosen);

        // Settle the primary replica: useful compute counts as busy
        // time and energy; destroyed or cancelled compute counts as
        // waste and charges nothing.
        if (primaryLost) {
            replica.freeAt = timeline_->upAfter(chosen, failAt);
            replica.wastedUs += failAt - dispatch;
            replica.lostBatches += 1;
            ++report.lostBatches;
        } else if (hedgeWins) {
            replica.freeAt = doneAt;
            replica.wastedUs += doneAt - dispatch;
        } else {
            replica.freeAt = finish;
            replica.batches += 1;
            replica.samples += planSamples;
            replica.busyUs += latencyUs;
            replica.energyJ += energyJ;
        }

        // Settle the hedge replica.
        bool hedgeDied = false;
        if (hedged) {
            Replica &hr = replicas_[hedgeReplica];
            if (hedgeWins) {
                hr.freeAt = hedgeFinish;
                hr.batches += 1;
                hr.samples += planSamples;
                hr.busyUs += hedgeLatencyUs;
                hr.energyJ += hedgeEnergyJ;
            } else if (hedgeLost &&
                       (!completed || hedgeFailAt <= doneAt)) {
                // Its replica died under it before the primary
                // completed.
                hedgeDied = true;
                hr.freeAt =
                    timeline_->upAfter(hedgeReplica, hedgeFailAt);
                hr.wastedUs += hedgeFailAt - hedgeDispatch;
                hr.lostBatches += 1;
                ++report.lostBatches;
            } else {
                // Cancelled when the primary completed first.
                hr.freeAt = doneAt;
                hr.wastedUs += doneAt - hedgeDispatch;
            }
        }

        if (completed) {
            report.energyJ += hedgeWins ? hedgeEnergyJ : energyJ;
            report.totalSamples += planSamples;
            report.makespanUs = std::max(report.makespanUs, doneAt);
            report.batchCount += 1;
            if (hedgeOnP99) {
                hedgeP99.add(doneAt - (hedgeWins ? hedgeDispatch
                                                 : dispatch));
            }
            if (opts_.retainRecords) {
                BatchRecord batch;
                batch.network = catalog_[netId].name;
                batch.samples = planSamples;
                batch.requests = plan.members.size();
                batch.dispatchUs =
                    hedgeWins ? hedgeDispatch : dispatch;
                batch.latencyUs =
                    hedgeWins ? hedgeLatencyUs : latencyUs;
                batch.replica = serveReplica;
                report.batches.push_back(std::move(batch));
            }
            for (RequestHandle member : plan.members) {
                const PendingRequest &req = pending[member];
                double arrivalUs = req.arrivalUs;
                unsigned attempts = 1;
                bool recovered = false;
                if (faultEra) {
                    const auto it = retrying.find(req.id);
                    if (it != retrying.end()) {
                        // A recovered request's latency spans every
                        // attempt since its first arrival.
                        arrivalUs = it->second.originalArrivalUs;
                        attempts = it->second.attempts + 1;
                        recovered = true;
                        ++report.requestsRecovered;
                        retrying.erase(it);
                    }
                    if (hedged) {
                        ++report.hedgesIssued;
                        if (hedgeWins)
                            ++report.hedgesWon;
                        else if (hedgeDied)
                            ++report.hedgesLost;
                        else
                            ++report.hedgesCancelled;
                    }
                }
                const bool missed =
                    req.deadlineUs > 0.0 && dispatch > req.deadlineUs;
                report.deadlineMisses += missed ? 1 : 0;
                report.requestCount += 1;
                if (opts_.streamingStats) {
                    report.latencyStream.add(doneAt - arrivalUs);
                    report.queueStream.add(dispatch - arrivalUs);
                } else {
                    report.latencySamples.push_back(doneAt - arrivalUs);
                    report.queueSamples.push_back(dispatch - arrivalUs);
                }
                onFinish(doneAt, injected);
                if (opts_.retainRecords) {
                    RequestRecord rec;
                    rec.request = requestOf(req);
                    rec.request.arrivalUs = arrivalUs;
                    rec.dispatchUs = dispatch;
                    rec.finishUs = doneAt;
                    rec.batchSamples = planSamples;
                    rec.replica = serveReplica;
                    rec.deadlineMissed = missed;
                    rec.attempts = attempts;
                    rec.hedged = hedged;
                    rec.recovered = recovered;
                    report.requests.push_back(std::move(rec));
                }
            }
        } else {
            // The batch is gone: every member either re-enters the
            // queue after its backoff or is abandoned when its
            // attempts or the global retry budget run out.
            const double lostAt =
                hedged ? std::max(failAt, hedgeFailAt) : failAt;
            for (RequestHandle member : plan.members) {
                PendingRequest req = pending[member];
                const auto emplaced = retrying.try_emplace(req.id);
                RetryState &st = emplaced.first->second;
                if (emplaced.second)
                    st.originalArrivalUs = req.arrivalUs;
                st.attempts += 1;
                ++report.requestLossEvents;
                if (hedged) {
                    ++report.hedgesIssued;
                    ++report.hedgesLost;
                }
                const bool canRetry =
                    opts_.retry.maxAttempts > st.attempts &&
                    (opts_.retry.retryBudget == 0 ||
                     report.retriesIssued < opts_.retry.retryBudget);
                if (canRetry) {
                    ++report.retriesIssued;
                    double backoff =
                        opts_.retry.backoffBaseUs *
                        std::ldexp(1.0,
                                   static_cast<int>(st.attempts) - 1);
                    if (opts_.retry.jitterFrac > 0.0) {
                        backoff *= 1.0 + opts_.retry.jitterFrac *
                                             retryJitter.nextDouble();
                    }
                    req.arrivalUs = lostAt + backoff;
                    injected.push_back(req);
                } else {
                    ++report.requestsAbandoned;
                    retrying.erase(req.id);
                    // A closed-loop client whose request died gives
                    // up here and issues its next one.
                    onShed(lostAt, injected);
                }
            }
        }
        flushInjected();
        pending.remove(plan.members);
    }

    std::stable_sort(report.requests.begin(), report.requests.end(),
                     [](const RequestRecord &a, const RequestRecord &b) {
                         return a.request.id < b.request.id;
                     });
    report.firstArrivalUs =
        std::isfinite(firstArrival) ? firstArrival : 0.0;
    const double utilizationWindowUs = report.throughputWindowUs();
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
        const Replica &replica = replicas_[r];
        ReplicaUsage usage;
        usage.platform = classes_[replica.cls].spec.name;
        usage.batches = replica.batches;
        usage.samples = replica.samples;
        usage.busyUs = replica.busyUs;
        usage.utilization = utilizationWindowUs > 0.0
                                ? replica.busyUs / utilizationWindowUs
                                : 0.0;
        usage.energyJ = replica.energyJ;
        if (faultEra) {
            usage.lostBatches = replica.lostBatches;
            usage.wastedUs = replica.wastedUs;
            if (timeline_ != nullptr)
                usage.downUs =
                    timeline_->downUsWithin(r, report.makespanUs);
            report.fleetDownUs += usage.downUs;
        }
        report.replicas.push_back(std::move(usage));
    }
    if (timeline_ != nullptr) {
        report.lastRecoveryUs =
            timeline_->lastRecoveryBefore(report.makespanUs);
        report.drainAfterRecoveryUs =
            report.lastRecoveryUs > 0.0
                ? report.makespanUs - report.lastRecoveryUs
                : 0.0;
    }
    timeline_ = nullptr;
    report.distinctBatchShapes = shapesMemoized_ - shapesBefore;
    report.compiles = cache_->compileCount() +
                      cache_->storeHitCount() - compilesBefore;
    report.cacheHits = cache_->hitCount() - hitsBefore;
#ifndef NDEBUG
    const std::string broken = report.checkInvariants();
    if (!broken.empty())
        BF_PANIC("serve report invariants violated: ", broken);
#endif
    return report;
}

ServeReport
ServingEngine::run(const std::vector<InferenceRequest> &trace)
{
    for (std::size_t i = 1; i < trace.size(); ++i) {
        if (trace[i].arrivalUs < trace[i - 1].arrivalUs) {
            BF_FATAL("open-loop trace is not arrival-ordered at "
                     "request ",
                     i);
        }
    }
    const auto none = [](double, std::vector<PendingRequest> &) {};
    ServeReport report = runLoop(trace, {}, none, none);
    report.mode = "open-loop";
    return report;
}

ServeReport
ServingEngine::runClosedLoop(const ClosedLoopSpec &spec)
{
    if (spec.clients == 0)
        BF_FATAL("closed loop needs at least one client");
    if (spec.samples == 0)
        BF_FATAL("closed loop needs at least one sample per request");
    if (opts_.maxQueueDepth > 0) {
        BF_FATAL("closed-loop runs cannot shed by queue depth: a "
                 "shed client would reissue at the same instant and "
                 "shed forever (use shedUnmeetable or an open-loop "
                 "trace)");
    }

    // The network mix, interned once; every request draws from it.
    std::vector<unsigned> mix;
    for (const auto &name : spec.networks)
        mix.push_back(networkId(name));
    if (mix.empty()) {
        for (unsigned id = 0; id < catalog_.size(); ++id)
            mix.push_back(id);
    }

    Prng prng(spec.seed);
    std::uint64_t nextId = 0;
    std::size_t issued = 0;
    const auto makeRequest = [&](double arrivalUs) {
        PendingRequest req;
        req.id = nextId++;
        req.network = mix[prng.below(mix.size())];
        req.samples = spec.samples;
        req.arrivalUs = arrivalUs;
        if (spec.deadlineSlackUs > 0.0)
            req.deadlineUs = arrivalUs + spec.deadlineSlackUs;
        ++issued;
        return req;
    };

    std::vector<InferenceRequest> initial;
    const std::size_t starters =
        std::min<std::size_t>(spec.clients, spec.requests);
    for (std::size_t c = 0; c < starters; ++c)
        initial.push_back(requestOf(makeRequest(0.0)));

    // Each completion hands its client the next request (arrival =
    // completion time) until the quota is issued; a shed or an
    // abandonment hands the client its next request at that time the
    // same way. The whole network mix prewarms, not just the
    // starters' random draws.
    const auto reissue = [&](double atUs, std::vector<PendingRequest> &out) {
        if (issued < spec.requests)
            out.push_back(makeRequest(atUs));
    };
    ServeReport report = runLoop(initial, mix, reissue, reissue);
    report.mode = "closed-loop";
    return report;
}

} // namespace serve
} // namespace bitfusion
