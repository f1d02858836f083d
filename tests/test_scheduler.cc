/**
 * @file
 * Scheduler and fleet invariants: EDF ordering and its miss
 * advantage over FIFO on a contended deadlined trace, the lookahead
 * scheduler's head-of-line starvation bound, SLO-aware batching
 * meeting a p99 budget FIFO misses, heterogeneous routing to the
 * cheapest platform, determinism across replica and thread counts,
 * fleet parsing, and the R=1 fifo byte-parity lock against the
 * pre-scheduler golden report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>

#include "src/baselines/gpu.h"
#include "src/common/prng.h"
#include "src/core/artifact_cache.h"
#include "src/dnn/model_zoo.h"
#include "src/serve/pending_queue.h"
#include "src/serve/scheduler.h"
#include "src/serve/serving_engine.h"
#include "src/sim/bitfusion_platform.h"

namespace bitfusion {
namespace {

using serve::BatchPlan;
using serve::ClosedLoopSpec;
using serve::InferenceRequest;
using serve::NetworkName;
using serve::PendingQueue;
using serve::QueueOrder;
using serve::RequestHandle;
using serve::Percentiles;
using serve::ServeOptions;
using serve::ServeReport;
using serve::ServingEngine;
using serve::TraceSpec;

/** Small two-layer network so engine runs stay fast. */
Network
tinyNet(const std::string &name, unsigned out_c)
{
    Network net(name, {});
    net.add(Layer::fc("fc1", 64, out_c, zoo::cfg8x8()));
    net.add(Layer::fc("fc2", out_c, 16, zoo::cfg4x4()));
    return net;
}

/** Catalog entry whose quantized and baseline variants coincide. */
zoo::Benchmark
tinyBench(const std::string &name, unsigned out_c)
{
    zoo::Benchmark bench;
    bench.name = name;
    bench.quantized = tinyNet(name, out_c);
    bench.baseline = bench.quantized;
    return bench;
}

PlatformSpec
bfSpec()
{
    return bitfusionPlatform(AcceleratorConfig::eyerissMatched45(), "bf");
}

std::vector<zoo::Benchmark>
tinyCatalog()
{
    return {tinyBench("netA", 64), tinyBench("netB", 128)};
}

/** Engine over tiny networks with a private cache. */
ServingEngine
tinyEngine(ArtifactCache &cache, ServeOptions opts,
           std::vector<PlatformSpec> fleet = {bfSpec()})
{
    opts.threads = opts.threads != 0 ? opts.threads : 1;
    opts.cache = &cache;
    ServingEngine engine(std::move(fleet), opts);
    engine.setCatalog(tinyCatalog());
    return engine;
}

InferenceRequest
req(std::uint64_t id, const std::string &network, unsigned samples,
    double arrivalUs, double deadlineUs = 0.0)
{
    InferenceRequest r;
    r.id = id;
    r.network = network;
    r.samples = samples;
    r.arrivalUs = arrivalUs;
    r.deadlineUs = deadlineUs;
    return r;
}

/** Simulated latency of @p net at @p batch on @p spec (us). */
double
platformLatencyUs(PlatformSpec spec, const Network &net, unsigned batch)
{
    spec.batch = batch;
    const auto platform = PlatformRegistry::builtin().build(spec);
    return platform->run(net).seconds() * 1e6;
}

/** @p report, once its conservation invariants are checked. */
ServeReport
checked(ServeReport report)
{
    EXPECT_EQ(report.checkInvariants(), "");
    return report;
}

TEST(ServeSchedRegistry, KnowsTheFourPolicies)
{
    for (const char *name : {"fifo", "lookahead", "edf", "slo"}) {
        const auto sched = serve::makeScheduler(name);
        EXPECT_STREQ(sched->name(), name);
    }
    EXPECT_DEATH(serve::makeScheduler("lifo"), "unknown scheduler");
}

TEST(ServeSchedDeath, RejectsMisconfiguredPolicies)
{
    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 4;
    opts.scheduler = "lookahead"; // window left at 0
    {
        ServingEngine engine = tinyEngine(cache, opts);
        EXPECT_DEATH(engine.run({req(0, "netA", 1, 0.0)}), "starvation bound");
    }
    opts.scheduler = "slo"; // budget left at 0
    {
        ServingEngine engine = tinyEngine(cache, opts);
        EXPECT_DEATH(engine.run({req(0, "netA", 1, 0.0)}), "latency budget");
    }
    // One spec + replicas is fine; an explicit fleet + replicas is
    // ambiguous and fatal, as is an empty fleet.
    ServeOptions fleetOpts;
    fleetOpts.replicas = 2;
    EXPECT_DEATH(ServingEngine({bfSpec(), bfSpec()}, fleetOpts),
                 "explicit fleet");
    EXPECT_DEATH(ServingEngine(std::vector<PlatformSpec>{}, {}),
                 "must not be empty");
}

TEST(ServeSchedEdf, TightestDeadlinePicksTheBatch)
{
    // All arrive together; FIFO would serve the netA head first, but
    // the netB requests hold the tight deadlines. Within netB, the
    // 400 us deadline outranks the earlier-queued 500 us one when
    // the cap forces them apart.
    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 1;
    opts.scheduler = "edf";
    ServingEngine engine = tinyEngine(cache, opts);
    const ServeReport report = checked(engine.run(
        {req(0, "netA", 1, 0.0, 50000.0), req(1, "netB", 1, 0.0, 500.0),
         req(2, "netB", 1, 0.0, 400.0)}));
    ASSERT_EQ(report.batches.size(), 3u);
    EXPECT_EQ(report.batches[0].network, "netB");
    EXPECT_EQ(report.batches[1].network, "netB");
    EXPECT_EQ(report.batches[2].network, "netA");
    ASSERT_EQ(report.requests.size(), 3u);
    // id 2 (deadline 400) dispatches before id 1 (deadline 500).
    EXPECT_LT(report.requests[2].dispatchUs, report.requests[1].dispatchUs);
    EXPECT_DOUBLE_EQ(report.requests[2].dispatchUs, 0.0);
}

TEST(ServeSchedEdf, DeadlineFreeRequestsSortLast)
{
    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 1;
    opts.scheduler = "edf";
    ServingEngine engine = tinyEngine(cache, opts);
    const ServeReport report = checked(engine.run(
        {req(0, "netA", 1, 0.0), req(1, "netB", 1, 0.0, 900.0)}));
    ASSERT_EQ(report.batches.size(), 2u);
    EXPECT_EQ(report.batches[0].network, "netB");
}

/** Seeded contended trace with alternating tight/loose deadlines. */
std::vector<InferenceRequest>
contendedDeadlineTrace(double tightUs, double looseUs)
{
    TraceSpec spec;
    spec.seed = 11;
    spec.requests = 120;
    spec.meanGapUs = 0.5; // well past saturation for the tiny nets
    spec.maxSamples = 2;
    spec.networks = {"netA", "netB"};
    auto trace = serve::syntheticTrace(spec);
    for (auto &r : trace)
        r.deadlineUs = r.arrivalUs + (r.id % 2 == 0 ? tightUs : looseUs);
    return trace;
}

TEST(ServeSchedEdf, StrictlyFewerMissesThanFifoUnderContention)
{
    const double latFull =
        platformLatencyUs(bfSpec(), tinyNet("netB", 128), 4);
    const auto trace = contendedDeadlineTrace(4.0 * latFull, 400.0 * latFull);

    ServeOptions opts;
    opts.maxBatch = 4;
    ArtifactCache cacheF, cacheE;
    opts.scheduler = "fifo";
    ServingEngine fifo = tinyEngine(cacheF, opts);
    opts.scheduler = "edf";
    ServingEngine edf = tinyEngine(cacheE, opts);

    const ServeReport fifoReport = checked(fifo.run(trace));
    const ServeReport edfReport = checked(edf.run(trace));
    // The trace is contended enough that FIFO misses tight deadlines.
    EXPECT_GT(fifoReport.deadlineMisses, 0u);
    EXPECT_LT(edfReport.deadlineMisses, fifoReport.deadlineMisses);
}

TEST(ServeSchedLookahead, PrefersTheFullerBatch)
{
    // Head is a lone netA request; three netB requests coalesce into
    // a fuller batch, so lookahead serves netB first (FIFO would
    // serve netA).
    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 4;
    opts.scheduler = "lookahead";
    opts.maxWaitUs = 1e6; // head far from overdue
    ServingEngine engine = tinyEngine(cache, opts);
    const ServeReport report = checked(engine.run(
        {req(0, "netA", 1, 0.0), req(1, "netB", 1, 0.0),
         req(2, "netB", 1, 0.0), req(3, "netB", 1, 0.0)}));
    ASSERT_EQ(report.batches.size(), 2u);
    EXPECT_EQ(report.batches[0].network, "netB");
    EXPECT_EQ(report.batches[0].samples, 3u);
    EXPECT_EQ(report.batches[1].network, "netA");
}

TEST(ServeSchedLookahead, NeverStarvesHeadBeyondTheWindow)
{
    // A lone netA head against a deep netB backlog that always
    // forms fuller batches. Lookahead may bypass the head, but once
    // it has waited out the window the head's network must be
    // served, so its queueing delay is bounded by the window plus
    // one in-flight batch.
    const double window = 20.0;
    std::vector<InferenceRequest> trace;
    trace.push_back(req(0, "netA", 1, 0.0));
    for (std::uint64_t i = 1; i <= 60; ++i)
        trace.push_back(req(i, "netB", 2, 0.0));

    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 4;
    opts.scheduler = "lookahead";
    opts.maxWaitUs = window;
    ServingEngine engine = tinyEngine(cache, opts);
    const ServeReport report = checked(engine.run(trace));

    // The head was actually bypassed at least once...
    ASSERT_GT(report.batches.size(), 1u);
    EXPECT_EQ(report.batches[0].network, "netB");
    // ...but never starved past the window + one in-flight batch.
    double longestBatchUs = 0.0;
    for (const auto &b : report.batches)
        longestBatchUs = std::max(longestBatchUs, b.latencyUs);
    ASSERT_EQ(report.requests[0].request.network, "netA");
    EXPECT_LE(report.requests[0].queueUs(), window + longestBatchUs + 1e-9);
}

TEST(ServeSchedSlo, MeetsAP99BudgetFifoMisses)
{
    // Sparse lone arrivals under a long batching window: FIFO holds
    // every unfilled batch for the whole window, so its p99 blows
    // the budget; the SLO scheduler derives its batch timer from the
    // budget instead, so every request's end-to-end latency stays
    // inside it (up to float reassociation of the large arrivals).
    const double lat1 = platformLatencyUs(bfSpec(), tinyNet("netA", 64), 1);
    const double budget = 3.0 * lat1;
    const double window = std::max(30000.0, 10.0 * lat1);

    std::vector<InferenceRequest> trace;
    for (std::uint64_t i = 0; i < 40; ++i)
        trace.push_back(
            req(i, "netA", 1, static_cast<double>(i) * 20.0 * window));

    ServeOptions opts;
    opts.maxBatch = 4;
    opts.maxWaitUs = window;
    ArtifactCache cacheF, cacheS;
    opts.scheduler = "fifo";
    ServingEngine fifo = tinyEngine(cacheF, opts);
    opts.scheduler = "slo";
    opts.sloBudgetUs = budget;
    opts.maxWaitUs = 0.0; // slo derives its own timer
    ServingEngine slo = tinyEngine(cacheS, opts);

    const double fifoP99 = checked(fifo.run(trace)).latencyUs().p99;
    const ServeReport sloReport = checked(slo.run(trace));
    EXPECT_GT(fifoP99, budget);
    EXPECT_LE(sloReport.latencyUs().p99, budget + 1e-6);
    EXPECT_LE(sloReport.latencyUs().max, budget + 1e-6);
}

TEST(ServeSchedSlo, GrowsTheBatchOnlyWithinTheBudget)
{
    // The head's budget-derived timer admits the 0.4*B arrival, but
    // the 0.95*B arrival lands after the timer's last viable firing
    // time (budget - lat2), so the batch leaves without it -- at
    // exactly that causal firing time, not at the head's arrival.
    const double lat2 = platformLatencyUs(bfSpec(), tinyNet("netA", 64), 2);
    const double budget = 3.0 * lat2;

    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 4;
    opts.scheduler = "slo";
    opts.sloBudgetUs = budget;
    ServingEngine engine = tinyEngine(cache, opts);
    const ServeReport report = checked(engine.run(
        {req(0, "netA", 1, 0.0), req(1, "netA", 1, 0.4 * budget),
         req(2, "netA", 1, 0.95 * budget)}));
    ASSERT_EQ(report.batches.size(), 2u);
    EXPECT_EQ(report.batches[0].samples, 2u);
    EXPECT_NEAR(report.batches[0].dispatchUs, budget - lat2, 1e-9);
    EXPECT_EQ(report.batches[1].samples, 1u);
    // Every member of the waited batch stays inside its budget.
    EXPECT_LE(report.requests[0].latencyUs(), budget + 1e-6);
    EXPECT_LE(report.requests[1].latencyUs(), budget + 1e-6);
}

TEST(ServeSchedSlo, HeterogeneousFleetEstimatesOnlyFreeReplicas)
{
    // Fast bitfusion replica + slow GPU replica. While the fast
    // replica is busy, only the slow one can take the next batch, so
    // the scheduler's latency oracle must quote the slow platform:
    // the head's budget is then unmeetable and the batch falls back
    // to an immediate FIFO fill instead of admitting a future joiner
    // into a batch that would blow its budget on the slow replica.
    const double lat1 = platformLatencyUs(bfSpec(), tinyNet("netA", 64), 1);
    const PlatformSpec slow = gpuPlatform(GpuSpec::tegraX2Fp32());
    const double latSlow = platformLatencyUs(slow, tinyNet("netA", 64), 1);
    const double budget = 3.0 * lat1;
    ASSERT_GT(latSlow, budget);

    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 3;
    opts.scheduler = "slo";
    opts.sloBudgetUs = budget;
    ServingEngine engine = tinyEngine(cache, opts, {bfSpec(), slow});
    // req0-2 fill the fast replica; req3 must plan against the slow
    // one; req4 arrives while the fast replica is still busy.
    const ServeReport report = checked(engine.run(
        {req(0, "netA", 1, 0.0), req(1, "netA", 1, 0.0),
         req(2, "netA", 1, 0.0), req(3, "netA", 1, 0.0),
         req(4, "netA", 1, 0.5)}));
    ASSERT_EQ(report.batches.size(), 3u);
    EXPECT_EQ(report.batches[0].samples, 3u);
    EXPECT_EQ(report.batches[0].replica, 0u);
    // The slow-replica batch is a lone fallback fill: req4 was NOT
    // pulled into a budget-blown batch...
    EXPECT_EQ(report.batches[1].samples, 1u);
    EXPECT_EQ(report.batches[1].replica, 1u);
    // ...and instead meets its budget on the fast replica later.
    EXPECT_EQ(report.batches[2].replica, 0u);
    EXPECT_LE(report.requests[4].latencyUs(), budget + 1e-6);
}

TEST(ServeFleet, ReplicasIncreaseThroughputDeterministically)
{
    // A backlog of whole-batch requests: R replicas drain it ~R
    // times faster, and the usage accounting adds up.
    std::vector<InferenceRequest> trace;
    for (std::uint64_t i = 0; i < 16; ++i)
        trace.push_back(req(i, i % 2 == 0 ? "netA" : "netB", 4, 0.0));

    ServeOptions opts;
    opts.maxBatch = 4;
    ArtifactCache cache1, cache4;
    ServingEngine one = tinyEngine(cache1, opts);
    opts.replicas = 4;
    ServingEngine four = tinyEngine(cache4, opts);

    const ServeReport r1 = checked(one.run(trace));
    const ServeReport r4 = checked(four.run(trace));
    ASSERT_EQ(r1.replicas.size(), 1u);
    ASSERT_EQ(r4.replicas.size(), 4u);
    EXPECT_LT(r4.makespanUs, 0.5 * r1.makespanUs);

    std::uint64_t samples = 0;
    std::size_t batches = 0;
    double energy = 0.0;
    for (const auto &rep : r4.replicas) {
        EXPECT_EQ(rep.platform, "bf");
        EXPECT_GE(rep.utilization, 0.0);
        EXPECT_LE(rep.utilization, 1.0);
        samples += rep.samples;
        batches += rep.batches;
        energy += rep.energyJ;
    }
    EXPECT_EQ(samples, r4.totalSamples);
    EXPECT_EQ(batches, r4.batches.size());
    EXPECT_NEAR(energy, r4.energyJ, 1e-12);
}

TEST(ServeFleet, HeterogeneousRoutingPicksTheCheapestPlatform)
{
    // Two single-replica classes with different speeds; sparse lone
    // requests see both replicas free, so every batch must land on
    // whichever platform serves the network cheapest.
    const PlatformSpec fast = bfSpec();
    const PlatformSpec slow = gpuPlatform(GpuSpec::tegraX2Fp32());
    const double latFast = platformLatencyUs(fast, tinyNet("netA", 64), 1);
    const double latSlow = platformLatencyUs(slow, tinyNet("netA", 64), 1);
    ASSERT_NE(latFast, latSlow);
    const unsigned cheaper = latFast < latSlow ? 0u : 1u;

    std::vector<InferenceRequest> trace;
    for (std::uint64_t i = 0; i < 6; ++i)
        trace.push_back(req(i, "netA", 1, static_cast<double>(i) * 1e9));

    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 1;
    ServingEngine engine = tinyEngine(cache, opts, {fast, slow});
    const ServeReport report = checked(engine.run(trace));
    ASSERT_EQ(report.replicas.size(), 2u);
    ASSERT_EQ(report.batches.size(), 6u);
    for (const auto &batch : report.batches)
        EXPECT_EQ(batch.replica, cheaper);
    EXPECT_EQ(report.replicas[cheaper].batches, 6u);
    EXPECT_EQ(report.replicas[1u - cheaper].batches, 0u);
}

TEST(ServeFleet, SameNameDifferentConfigsStayDistinctClasses)
{
    // Class identity folds in the built platform's configuration,
    // so two hand-built specs sharing a display name but holding
    // different configs must not merge into one class.
    const PlatformSpec a = bitfusionPlatform(
        AcceleratorConfig::eyerissMatched45(), "twin");
    const PlatformSpec b =
        bitfusionPlatform(AcceleratorConfig::gpuScale16(), "twin");
    const double latA = platformLatencyUs(a, tinyNet("netA", 64), 1);
    const double latB = platformLatencyUs(b, tinyNet("netA", 64), 1);
    ASSERT_NE(latA, latB);

    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 1;
    ServingEngine engine = tinyEngine(cache, opts, {a, b});
    // Two simultaneous lone requests land on both replicas, each
    // charged its own config's latency.
    const ServeReport report =
        checked(engine.run({req(0, "netA", 1, 0.0), req(1, "netA", 1, 0.0)}));
    ASSERT_EQ(report.batches.size(), 2u);
    EXPECT_NE(report.batches[0].latencyUs, report.batches[1].latencyUs);
}

TEST(ServeFleet, DeterministicAcrossThreadCountsAndRuns)
{
    TraceSpec traceSpec;
    traceSpec.seed = 11;
    traceSpec.requests = 200;
    traceSpec.meanGapUs = 50.0;
    traceSpec.maxSamples = 4;
    traceSpec.deadlineSlackUs = 5000.0;
    traceSpec.networks = {"netA", "netB"};
    const auto trace = serve::syntheticTrace(traceSpec);

    const std::vector<PlatformSpec> fleet = {
        bfSpec(), bfSpec(), gpuPlatform(GpuSpec::titanXpInt8()),
        gpuPlatform(GpuSpec::tegraX2Fp32())};

    ServeOptions opts;
    opts.maxBatch = 4;
    opts.scheduler = "edf";
    ArtifactCache cache1, cacheN;
    opts.threads = 1;
    ServingEngine serial = tinyEngine(cache1, opts, fleet);
    opts.threads = 8;
    ServingEngine parallel = tinyEngine(cacheN, opts, fleet);

    const std::string a = checked(serial.run(trace)).json(true);
    const std::string b = checked(parallel.run(trace)).json(true);
    EXPECT_EQ(a, b);
    // A fresh engine over a fresh cache reproduces the report
    // byte-for-byte (same seed, same fleet).
    ArtifactCache cacheAgain;
    opts.threads = 1;
    ServingEngine again = tinyEngine(cacheAgain, opts, fleet);
    EXPECT_EQ(checked(again.run(trace)).json(true), a);
}

TEST(ServeFleet, ClosedLoopGrantsDeadlineSlack)
{
    ArtifactCache cache;
    ServeOptions opts;
    opts.maxBatch = 4;
    ServingEngine engine = tinyEngine(cache, opts);
    ClosedLoopSpec load;
    load.clients = 2;
    load.requests = 8;
    load.networks = {"netA"};
    load.deadlineSlackUs = 1234.0;
    const ServeReport report = checked(engine.runClosedLoop(load));
    ASSERT_EQ(report.requests.size(), 8u);
    for (const auto &r : report.requests) {
        EXPECT_DOUBLE_EQ(r.request.deadlineUs, r.request.arrivalUs + 1234.0);
    }
}

TEST(ServeFleet, ParseFleetRoundTripsTokens)
{
    const auto fleet = PlatformRegistry::builtin().parseFleet(
        "bitfusion,bitfusion:16nm,eyeriss,gpu:titan-xp-int8");
    ASSERT_EQ(fleet.size(), 4u);
    EXPECT_EQ(fleet[0].kind, "bitfusion");
    EXPECT_EQ(fleet[1].name, "bitfusion-4096fu-16nm");
    EXPECT_EQ(fleet[2].kind, "eyeriss");
    EXPECT_EQ(fleet[3].name, "titan-xp-int8");
    EXPECT_DEATH(PlatformRegistry::builtin().parseFleet("bitfusion,,eyeriss"),
                 "empty element");
    EXPECT_DEATH(PlatformRegistry::builtin().parseFleet(""),
                 "at least one platform");
}

TEST(ServeParity, FifoR1ReportMatchesThePreSchedulerGolden)
{
    // The exact workload behind tests/golden/serve_fifo_r1.json
    // (first generated by the pre-scheduler engine; every value it
    // had then is unchanged): default platform and catalog, seeded
    // open-loop trace, 500 us window.
    std::ifstream in(std::string(BITFUSION_SOURCE_DIR) +
                     "/tests/golden/serve_fifo_r1.json");
    ASSERT_TRUE(in.good());
    std::stringstream golden;
    golden << in.rdbuf();
    std::string expected = golden.str();
    ASSERT_FALSE(expected.empty());
    if (expected.back() == '\n')
        expected.pop_back(); // the CLI appends one newline

    TraceSpec traceSpec;
    traceSpec.seed = 7;
    traceSpec.requests = 400;
    traceSpec.meanGapUs = 1500.0;
    traceSpec.deadlineSlackUs = 20000.0;

    ServeOptions opts;
    opts.threads = 1;
    opts.maxWaitUs = 500.0;
    ServingEngine engine(PlatformRegistry::builtin().parse("bitfusion"), opts);
    const ServeReport report =
        checked(engine.run(serve::syntheticTrace(traceSpec)));
    EXPECT_EQ(report.json(true), expected);
}

// ------------------------------------------------ differential planning

/**
 * Deterministic stand-in for the engine's batch-latency oracle;
 * deliberately not monotone in the batch size.
 */
double
oracleUs(unsigned network, unsigned samples)
{
    return 2.0 + 1.5 * samples + 0.75 * ((network * 5 + samples * 3) % 4);
}

/** Network names of the differential runs are "n0", "n1", ... */
unsigned
netIdOf(NetworkName name)
{
    return static_cast<unsigned>(std::stoul(name.str().substr(1)));
}

/** The differential runs' admission control: a fixed id subset. */
bool
shedsAtAdmission(const InferenceRequest &r)
{
    return r.id % 17 == 16;
}

/** Insert @p r into an (arrival, id)-ordered future stream. */
void
injectArrival(std::vector<InferenceRequest> &future,
              const InferenceRequest &r)
{
    const auto at = std::upper_bound(
        future.begin(), future.end(), r,
        [](const InferenceRequest &a, const InferenceRequest &b) {
            if (a.arrivalUs != b.arrivalUs)
                return a.arrivalUs < b.arrivalUs;
            return a.id < b.id;
        });
    future.insert(at, r);
}

/**
 * The deque-scanning policies the indexed pending queue replaced,
 * kept over a plain vector as the reference every indexed plan must
 * reproduce exactly.
 */
namespace naive {

struct Context
{
    std::vector<InferenceRequest> queue;
    /** Future arrivals, (arrival, id)-ordered. */
    std::vector<InferenceRequest> future;
    unsigned cap = 0;
    double windowUs = 0.0;
    double sloBudgetUs = 0.0;
    std::vector<std::pair<unsigned, unsigned>> oracleCalls;

    double nextArrivalUs() const
    {
        return future.empty() ? std::numeric_limits<double>::infinity()
                              : future.front().arrivalUs;
    }

    bool absorbNextArrival()
    {
        const InferenceRequest r = future.front();
        future.erase(future.begin());
        if (shedsAtAdmission(r))
            return false;
        queue.push_back(r);
        return true;
    }

    double batchLatencyUs(NetworkName network, unsigned samples)
    {
        oracleCalls.emplace_back(netIdOf(network), samples);
        return oracleUs(netIdOf(network), samples);
    }
};

struct Plan
{
    std::vector<std::size_t> members;
    NetworkName network;
    unsigned samples = 0;
    double dispatchUs = 0.0;
};

double
deadlineKey(const InferenceRequest &r)
{
    return r.deadlineUs > 0.0 ? r.deadlineUs
                              : std::numeric_limits<double>::infinity();
}

unsigned
coalesceFifo(const std::vector<InferenceRequest> &queue,
             NetworkName network, unsigned cap, Plan &plan)
{
    unsigned samples = 0;
    for (std::size_t i = 0; i < queue.size() && samples < cap; ++i) {
        const InferenceRequest &r = queue[i];
        if (r.network == network && samples + r.samples <= cap) {
            plan.members.push_back(i);
            samples += r.samples;
        }
    }
    return samples;
}

double
memberDispatch(const std::vector<InferenceRequest> &queue,
               const Plan &plan, double now)
{
    double dispatch = now;
    for (std::size_t i : plan.members)
        dispatch = std::max(dispatch, queue[i].arrivalUs);
    return dispatch;
}

Plan
fifo(Context &ctx, double now)
{
    const std::vector<InferenceRequest> &queue = ctx.queue;
    const unsigned cap = ctx.cap;
    const InferenceRequest head = queue.front();

    Plan out;
    out.network = head.network;
    unsigned samples = coalesceFifo(queue, head.network, cap, out);
    double dispatch = memberDispatch(queue, out, now);
    if (samples < cap && ctx.windowUs > 0.0) {
        double windowEnd = head.arrivalUs + ctx.windowUs;
        for (std::size_t i : out.members) {
            if (queue[i].deadlineUs > 0.0)
                windowEnd = std::min(windowEnd, queue[i].deadlineUs);
        }
        windowEnd = std::max(windowEnd, now);
        const bool waited = windowEnd > now;
        while (samples < cap && ctx.nextArrivalUs() <= windowEnd) {
            if (!ctx.absorbNextArrival())
                continue;
            const InferenceRequest &next = queue.back();
            if (next.network == head.network &&
                samples + next.samples <= cap) {
                out.members.push_back(queue.size() - 1);
                samples += next.samples;
                dispatch = std::max(dispatch, next.arrivalUs);
                if (next.deadlineUs > 0.0) {
                    windowEnd = std::min(
                        windowEnd, std::max(next.deadlineUs, dispatch));
                }
            }
        }
        if (samples < cap && waited)
            dispatch = windowEnd;
    }
    out.samples = samples;
    out.dispatchUs = dispatch;
    return out;
}

Plan
lookahead(Context &ctx, double now)
{
    const std::vector<InferenceRequest> &queue = ctx.queue;
    const InferenceRequest &head = queue.front();
    NetworkName network = head.network;
    if (now < head.arrivalUs + ctx.windowUs) {
        unsigned bestFill = 0;
        std::set<std::uint32_t> seen;
        for (const InferenceRequest &r : queue) {
            if (!seen.insert(r.network.index()).second)
                continue;
            Plan scratch;
            const unsigned fill =
                coalesceFifo(queue, r.network, ctx.cap, scratch);
            if (fill > bestFill) {
                bestFill = fill;
                network = r.network;
            }
        }
    }
    Plan out;
    out.network = network;
    out.samples = coalesceFifo(queue, network, ctx.cap, out);
    out.dispatchUs = memberDispatch(queue, out, now);
    return out;
}

Plan
edf(Context &ctx, double now)
{
    const std::vector<InferenceRequest> &queue = ctx.queue;
    std::size_t headIdx = 0;
    for (std::size_t i = 1; i < queue.size(); ++i) {
        if (deadlineKey(queue[i]) < deadlineKey(queue[headIdx]))
            headIdx = i;
    }
    Plan out;
    out.network = queue[headIdx].network;
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        if (queue[i].network == out.network)
            candidates.push_back(i);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](std::size_t a, std::size_t b) {
                         return deadlineKey(queue[a]) <
                                deadlineKey(queue[b]);
                     });
    unsigned samples = 0;
    for (std::size_t i : candidates) {
        if (samples >= ctx.cap)
            break;
        if (samples + queue[i].samples <= ctx.cap) {
            out.members.push_back(i);
            samples += queue[i].samples;
        }
    }
    out.samples = samples;
    out.dispatchUs = memberDispatch(queue, out, now);
    return out;
}

Plan
slo(Context &ctx, double now)
{
    const std::vector<InferenceRequest> &queue = ctx.queue;
    const unsigned cap = ctx.cap;
    const double budget = ctx.sloBudgetUs;
    const InferenceRequest head = queue.front();

    Plan out;
    out.network = head.network;
    out.members.push_back(0);
    unsigned samples = head.samples;
    double dispatch = std::max(now, head.arrivalUs);
    double budgetEnd = head.arrivalUs + budget;
    if (dispatch + ctx.batchLatencyUs(head.network, samples) > budgetEnd) {
        out.members.clear();
        out.samples = coalesceFifo(queue, head.network, cap, out);
        out.dispatchUs = memberDispatch(queue, out, now);
        return out;
    }
    for (std::size_t i = 1; i < queue.size() && samples < cap; ++i) {
        const InferenceRequest &r = queue[i];
        if (r.network != head.network || samples + r.samples > cap)
            continue;
        const double d = std::max(dispatch, r.arrivalUs);
        const double end = std::min(budgetEnd, r.arrivalUs + budget);
        if (d + ctx.batchLatencyUs(head.network, samples + r.samples) <=
            end) {
            out.members.push_back(i);
            samples += r.samples;
            dispatch = d;
            budgetEnd = end;
        }
    }
    while (samples < cap) {
        const double latest =
            budgetEnd - ctx.batchLatencyUs(head.network, samples);
        if (latest <= dispatch)
            break;
        if (ctx.nextArrivalUs() > latest) {
            dispatch = latest;
            break;
        }
        if (!ctx.absorbNextArrival())
            continue;
        const InferenceRequest &joined = queue.back();
        if (joined.network == head.network &&
            samples + joined.samples <= cap) {
            const double d = std::max(dispatch, joined.arrivalUs);
            const double end =
                std::min(budgetEnd, joined.arrivalUs + budget);
            if (d + ctx.batchLatencyUs(head.network,
                                       samples + joined.samples) <=
                end) {
                out.members.push_back(queue.size() - 1);
                samples += joined.samples;
                dispatch = d;
                budgetEnd = end;
            }
        }
    }
    out.samples = samples;
    out.dispatchUs = dispatch;
    return out;
}

Plan
plan(const std::string &policy, Context &ctx, double now)
{
    if (policy == "fifo")
        return fifo(ctx, now);
    if (policy == "lookahead")
        return lookahead(ctx, now);
    if (policy == "edf")
        return edf(ctx, now);
    return slo(ctx, now);
}

} // namespace naive

/** The indexed policies' context, mirroring naive::Context. */
class IndexedContext : public serve::SchedulerContext
{
  public:
    explicit IndexedContext(std::size_t networks) : queue(networks) {}

    const PendingQueue &pending() const override { return queue; }

    double nextArrivalUs() const override
    {
        return future.empty() ? std::numeric_limits<double>::infinity()
                              : future.front().arrivalUs;
    }

    RequestHandle absorbNextArrival() override
    {
        const InferenceRequest r = future.front();
        future.erase(future.begin());
        if (shedsAtAdmission(r))
            return serve::kNoRequest;
        serve::PendingRequest p;
        p.id = r.id;
        p.arrivalUs = r.arrivalUs;
        p.deadlineUs = r.deadlineUs;
        p.network = netIdOf(r.network);
        p.samples = r.samples;
        return queue.push(p);
    }

    double batchLatencyUs(unsigned network, unsigned samples) override
    {
        oracleCalls.emplace_back(network, samples);
        return oracleUs(network, samples);
    }

    unsigned maxBatch() const override { return cap; }
    double windowUs() const override { return window; }
    double sloBudgetUs() const override { return budget; }

    PendingQueue queue;
    std::vector<InferenceRequest> future;
    unsigned cap = 0;
    double window = 0.0;
    double budget = 0.0;
    std::vector<std::pair<unsigned, unsigned>> oracleCalls;
};

/** One seeded planning scenario: knobs and an arrival stream. */
struct PlanScenario
{
    std::size_t networks = 1;
    unsigned cap = 1;
    double windowUs = 0.0;
    double sloBudgetUs = 0.0;
    /** (arrival, id)-ordered. */
    std::vector<InferenceRequest> arrivals;
};

PlanScenario
planScenario(std::uint64_t seed)
{
    Prng prng(seed);
    PlanScenario s;
    s.networks = 1 + prng.below(3);
    const unsigned caps[] = {1, 2, 4, 5, 16};
    s.cap = caps[prng.below(5)];
    const double windows[] = {0.0, 3.0, 25.0, 400.0};
    s.windowUs = windows[prng.below(4)];
    s.sloBudgetUs = 10.0 + 120.0 * prng.nextDouble();
    // A quarter of the scenarios use one request size; with cap 16
    // it is 3, so a batch never fills the cap exactly.
    const bool fixedSize = prng.below(4) == 0;
    const unsigned fixed =
        s.cap == 16 ? 3 : 1 + static_cast<unsigned>(prng.below(s.cap));
    // Deadlines: 0 none, 1 non-monotone, 2 a few shared (equal)
    // values, 3 half of the requests without one.
    const std::uint64_t deadlines = prng.below(4);
    const std::size_t n = 5 + prng.below(70);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (prng.below(3) != 0)
            t += prng.nextExponential(4.0); // otherwise an equal arrival
        InferenceRequest r;
        r.id = i;
        r.network = "n" + std::to_string(prng.below(s.networks));
        r.samples = fixedSize
                        ? fixed
                        : 1 + static_cast<unsigned>(prng.below(s.cap));
        r.arrivalUs = t;
        if (deadlines == 1)
            r.deadlineUs = t + 200.0 * prng.nextDouble();
        else if (deadlines == 2)
            r.deadlineUs = 50.0 * static_cast<double>(1 + prng.below(3));
        else if (deadlines == 3 && prng.below(2) == 0)
            r.deadlineUs = t + 100.0 * prng.nextDouble();
        s.arrivals.push_back(r);
    }
    return s;
}

/** What the differential corpus exercised. */
struct PlanCoverage
{
    std::size_t plans = 0;
    /** Arrivals a plan absorbed while waiting on a timer. */
    std::size_t absorbed = 0;
    /** Batch members that re-entered the stream as retries. */
    std::size_t retries = 0;
};

/**
 * Serve @p s under @p policy twice in lockstep -- the naive reference
 * and the indexed scheduler -- and describe the first plan on which
 * they differ ("" when every plan agrees). Each batch leaves the
 * queue as planned, one member in eight fails and re-enters later as
 * a retry, and the planning clock sometimes trails the last dispatch
 * the way a second replica's would.
 */
std::string
planDivergence(const PlanScenario &s, const std::string &policy,
               std::uint64_t seed, PlanCoverage &coverage)
{
    naive::Context ref;
    ref.cap = s.cap;
    ref.windowUs = s.windowUs;
    ref.sloBudgetUs = s.sloBudgetUs;
    ref.future = s.arrivals;
    IndexedContext idx(s.networks);
    idx.cap = s.cap;
    idx.window = s.windowUs;
    idx.budget = s.sloBudgetUs;
    idx.future = s.arrivals;
    const std::unique_ptr<serve::Scheduler> scheduler =
        serve::makeScheduler(policy);
    Prng prng(seed ^ 0x9e3779b97f4a7c15ULL);

    // One plan buffer for every step, as the engine keeps; only its
    // members are cleared, so a policy that left a field stale fails.
    BatchPlan got;
    double now = 0.0;
    for (std::size_t step = 0; step < 500; ++step) {
        if (ref.queue.empty() && ref.future.empty())
            break;
        if (ref.queue.empty())
            now = std::max(now, ref.future.front().arrivalUs);
        while (!ref.future.empty() && ref.future.front().arrivalUs <= now) {
            ref.absorbNextArrival();
            idx.absorbNextArrival();
        }
        if (ref.queue.size() != idx.queue.size())
            return "queue sizes differ after admission";
        if (ref.queue.empty())
            continue;

        const std::size_t futureBefore = ref.future.size();
        const naive::Plan want = naive::plan(policy, ref, now);
        got.members.clear();
        scheduler->plan(idx, now, got);
        ++coverage.plans;
        coverage.absorbed += futureBefore - ref.future.size();

        std::vector<std::uint64_t> wantIds, gotIds;
        for (std::size_t i : want.members)
            wantIds.push_back(ref.queue[i].id);
        for (RequestHandle h : got.members)
            gotIds.push_back(idx.queue[h].id);
        std::ostringstream where;
        where << "plan " << step << " at t=" << now << ": ";
        if (gotIds != wantIds)
            return where.str() + "members differ";
        if (got.network != netIdOf(want.network))
            return where.str() + "network differs";
        if (got.samples != want.samples)
            return where.str() + "samples differ";
        if (got.dispatchUs != want.dispatchUs)
            return where.str() + "dispatch differs";
        if (idx.oracleCalls != ref.oracleCalls)
            return where.str() + "latency-oracle calls differ";
        if (idx.queue.size() != ref.queue.size())
            return where.str() + "queue sizes differ";
        ref.oracleCalls.clear();
        idx.oracleCalls.clear();

        std::vector<InferenceRequest> retries;
        for (std::size_t i : want.members) {
            if (prng.below(8) == 0) {
                InferenceRequest r = ref.queue[i];
                r.arrivalUs = want.dispatchUs + prng.nextExponential(10.0);
                retries.push_back(r);
            }
        }
        std::vector<std::size_t> gone = want.members;
        std::sort(gone.rbegin(), gone.rend());
        for (std::size_t i : gone)
            ref.queue.erase(ref.queue.begin() +
                            static_cast<std::ptrdiff_t>(i));
        idx.queue.remove(got.members);
        for (const InferenceRequest &r : retries) {
            injectArrival(ref.future, r);
            injectArrival(idx.future, r);
        }
        coverage.retries += retries.size();

        if (prng.below(3) != 0)
            now = std::max(now, want.dispatchUs);
        now += oracleUs(got.network, got.samples) * prng.nextDouble();
    }
    return "";
}

TEST(ServeSchedDifferential, IndexedPlansMatchTheDequeScanReference)
{
    // 2000 seeded scenarios per policy: one to three networks, caps
    // 1..16 with fixed sizes that never fill the cap, non-monotone,
    // equal and missing deadlines, batching windows that absorb
    // future arrivals, admission sheds, and retries re-entering.
    PlanCoverage coverage;
    std::size_t failures = 0;
    for (std::uint64_t seed = 0; seed < 2000 && failures < 5; ++seed) {
        const PlanScenario scenario = planScenario(seed);
        for (const char *policy : {"fifo", "lookahead", "edf", "slo"}) {
            const std::string diff =
                planDivergence(scenario, policy, seed, coverage);
            if (!diff.empty()) {
                ++failures;
                ADD_FAILURE() << policy << ", seed " << seed << ": "
                              << diff;
            }
        }
    }
    EXPECT_GT(coverage.plans, 100000u);
    EXPECT_GT(coverage.absorbed, 1000u);
    EXPECT_GT(coverage.retries, 1000u);
}

TEST(ServePendingQueue, IndexesMatchASortedScan)
{
    // Random pushes and removals against a brute-force scan: the
    // head, the tightest deadline, and every walk order and room.
    Prng prng(77);
    PendingQueue queue(3);
    std::vector<RequestHandle> live;
    std::uint64_t nextId = 0;
    for (int step = 0; step < 3000; ++step) {
        if (live.empty() || prng.below(5) < 3) {
            serve::PendingRequest r;
            r.id = nextId++;
            r.samples = 1 + static_cast<unsigned>(prng.below(6));
            r.arrivalUs = static_cast<double>(step);
            if (prng.below(3) != 0)
                r.deadlineUs = 1.0 + static_cast<double>(prng.below(40));
            r.network = static_cast<unsigned>(prng.below(3));
            live.push_back(queue.push(r));
        } else {
            const std::size_t k = prng.below(live.size());
            queue.remove({live[k]});
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        }
        ASSERT_EQ(queue.size(), live.size());

        const auto seqLess = [&](RequestHandle a, RequestHandle b) {
            return queue[a].seq < queue[b].seq;
        };
        const auto deadlineLess = [&](RequestHandle a, RequestHandle b) {
            if (queue[a].deadlineKey() != queue[b].deadlineKey())
                return queue[a].deadlineKey() < queue[b].deadlineKey();
            return queue[a].seq < queue[b].seq;
        };
        if (live.empty()) {
            EXPECT_EQ(queue.oldest(), serve::kNoRequest);
            continue;
        }
        EXPECT_EQ(queue.oldest(),
                  *std::min_element(live.begin(), live.end(), seqLess));
        EXPECT_EQ(queue.tightestDeadline(),
                  *std::min_element(live.begin(), live.end(),
                                    deadlineLess));

        const unsigned net = static_cast<unsigned>(prng.below(3));
        const bool byDeadline = prng.below(2) == 0;
        const unsigned room = 1 + static_cast<unsigned>(prng.below(6));
        std::vector<RequestHandle> want;
        for (RequestHandle h : live) {
            if (queue[h].network == net && queue[h].samples <= room)
                want.push_back(h);
        }
        if (byDeadline)
            std::sort(want.begin(), want.end(), deadlineLess);
        else
            std::sort(want.begin(), want.end(), seqLess);
        PendingQueue::Walk walk = queue.walk(
            net, byDeadline ? QueueOrder::Deadline : QueueOrder::Admission);
        std::vector<RequestHandle> got;
        for (RequestHandle h = walk.next(room); h != serve::kNoRequest;
             h = walk.next(room))
            got.push_back(h);
        EXPECT_EQ(got, want) << "step " << step;
    }
}

TEST(ServePendingQueue, RingsAndDeadlineHeapsMatchASortedScan)
{
    // Deep buckets against a brute-force scan. Deadlines are arrival
    // plus a constant slack, so a bucket's admission ring doubles as
    // its deadline order, until an earlier deadline, or a deadlined
    // request after a deadline-free one, moves the bucket onto a
    // deadline heap. Fill phases run buckets hundreds deep, so their
    // rings compact; drain phases empty them, which returns them to
    // the ring. Batches leave through walks, as dispatches do, single
    // requests leave from the middle, freed handles come back past
    // their stale ring entries, and one clear() drops everything.
    Prng prng(2024);
    PendingQueue queue(2);
    std::vector<RequestHandle> live;
    std::uint64_t nextId = 0;
    std::size_t peak = 0;
    std::size_t outOfOrder = 0;
    std::size_t emptied = 0;

    const auto seqLess = [&](RequestHandle a, RequestHandle b) {
        return queue[a].seq < queue[b].seq;
    };
    const auto deadlineLess = [&](RequestHandle a, RequestHandle b) {
        if (queue[a].deadlineKey() != queue[b].deadlineKey())
            return queue[a].deadlineKey() < queue[b].deadlineKey();
        return queue[a].seq < queue[b].seq;
    };
    // A greedy fill of `room` over `net`'s requests in `order`.
    const auto scanned = [&](unsigned net, QueueOrder order, unsigned room) {
        std::vector<RequestHandle> sorted;
        for (RequestHandle h : live) {
            if (queue[h].network == net)
                sorted.push_back(h);
        }
        if (order == QueueOrder::Deadline)
            std::sort(sorted.begin(), sorted.end(), deadlineLess);
        else
            std::sort(sorted.begin(), sorted.end(), seqLess);
        std::vector<RequestHandle> fill;
        for (RequestHandle h : sorted) {
            if (queue[h].samples <= room) {
                fill.push_back(h);
                room -= queue[h].samples;
            }
        }
        return fill;
    };
    const auto walked = [&](unsigned net, QueueOrder order, unsigned room) {
        PendingQueue::Walk walk = queue.walk(net, order);
        std::vector<RequestHandle> fill;
        for (RequestHandle h = walk.next(room); h != serve::kNoRequest;
             h = walk.next(room)) {
            fill.push_back(h);
            room -= queue[h].samples;
        }
        return fill;
    };
    const auto orderOf = [&]() {
        return prng.below(2) == 0 ? QueueOrder::Deadline
                                  : QueueOrder::Admission;
    };
    const auto drop = [&](RequestHandle h) {
        live.erase(std::find(live.begin(), live.end(), h));
    };

    for (int step = 0; step < 12000; ++step) {
        const double now = static_cast<double>(step);
        const bool filling = (step / 1500) % 2 == 0;
        if (step == 7000) {
            // Dropped mid-fill, the queue starts over from scratch.
            queue.clear();
            live.clear();
        }
        if (live.empty() || prng.below(8) < (filling ? 7u : 2u)) {
            serve::PendingRequest r;
            r.id = nextId++;
            r.network = static_cast<unsigned>(prng.below(2));
            r.samples = 1 + static_cast<unsigned>(prng.below(3));
            r.arrivalUs = now;
            r.deadlineUs = now + 500.0;
            const std::uint64_t odd = prng.below(64);
            if (odd == 0)
                r.deadlineUs -= 1.0 + static_cast<double>(prng.below(400));
            else if (odd == 1)
                r.deadlineUs = 0.0;
            outOfOrder += odd <= 1 ? 1 : 0;
            live.push_back(queue.push(r));
        } else if (prng.below(4) != 0) {
            // A dispatch: one walk's fill leaves as a batch.
            const unsigned net = static_cast<unsigned>(prng.below(2));
            const QueueOrder order = orderOf();
            const unsigned cap = 1 + static_cast<unsigned>(prng.below(16));
            const std::vector<RequestHandle> batch = walked(net, order, cap);
            ASSERT_EQ(batch, scanned(net, order, cap)) << "step " << step;
            queue.remove(batch);
            for (RequestHandle h : batch)
                drop(h);
        } else {
            const RequestHandle h = live[prng.below(live.size())];
            queue.remove({h});
            drop(h);
        }
        peak = std::max(peak, live.size());
        emptied += live.empty() ? 1 : 0;

        ASSERT_EQ(queue.size(), live.size());
        if (live.empty()) {
            EXPECT_EQ(queue.oldest(), serve::kNoRequest);
            EXPECT_EQ(queue.tightestDeadline(), serve::kNoRequest);
            continue;
        }
        EXPECT_EQ(queue.oldest(),
                  *std::min_element(live.begin(), live.end(), seqLess));
        EXPECT_EQ(queue.tightestDeadline(),
                  *std::min_element(live.begin(), live.end(),
                                    deadlineLess));
        for (unsigned net = 0; net < 2; ++net) {
            std::vector<RequestHandle> mine;
            for (RequestHandle h : live) {
                if (queue[h].network == net)
                    mine.push_back(h);
            }
            ASSERT_EQ(queue.count(net), mine.size());
            RequestHandle want = serve::kNoRequest;
            if (!mine.empty())
                want = *std::min_element(mine.begin(), mine.end(), seqLess);
            EXPECT_EQ(queue.oldest(net), want);
        }
        // One walk per step, whole or a capped fill.
        const unsigned net = static_cast<unsigned>(prng.below(2));
        const QueueOrder order = orderOf();
        unsigned room = std::numeric_limits<unsigned>::max();
        if (prng.below(2) == 0)
            room = 1 + static_cast<unsigned>(prng.below(16));
        ASSERT_EQ(walked(net, order, room), scanned(net, order, room))
            << "step " << step;
    }
    EXPECT_GT(peak, 500u);
    EXPECT_GT(outOfOrder, 200u);
    EXPECT_GT(emptied, 10u);
}

TEST(ServePendingQueueDeath, WalkUsedAfterAChangePanics)
{
#ifdef NDEBUG
    GTEST_SKIP() << "the walk check is compiled out under NDEBUG";
#endif
    // Any push(), remove(), clear() or newer walk() invalidates an
    // open walk.
    serve::PendingRequest r;
    r.samples = 1;
    PendingQueue queue(1);
    const RequestHandle first = queue.push(r);
    const char *const panic = "walk used after its queue changed";

    PendingQueue::Walk pushed = queue.walk(0, QueueOrder::Admission);
    EXPECT_EQ(pushed.next(1), first);
    queue.push(r);
    EXPECT_DEATH(pushed.next(1), panic);

    PendingQueue::Walk removed = queue.walk(0, QueueOrder::Deadline);
    queue.remove({first});
    EXPECT_DEATH(removed.next(1), panic);

    PendingQueue::Walk older = queue.walk(0, QueueOrder::Admission);
    PendingQueue::Walk newer = queue.walk(0, QueueOrder::Admission);
    EXPECT_NE(newer.next(1), serve::kNoRequest);
    EXPECT_DEATH(older.next(1), panic);

    PendingQueue::Walk cleared = queue.walk(0, QueueOrder::Admission);
    queue.clear();
    EXPECT_DEATH(cleared.next(1), panic);
}

} // namespace
} // namespace bitfusion
