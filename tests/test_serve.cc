/**
 * @file
 * Serving-engine tests: batch coalescing against the max batch and
 * deadlines, the batching window, latency percentiles on hand-built
 * traces, open- and closed-loop determinism across worker-thread
 * counts, trace round-trips, the process-level artifact cache
 * shared between the serving engine and the sweep runner, and the
 * arrival-shift metamorphic relation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "src/core/artifact_cache.h"
#include "src/dnn/model_zoo.h"
#include "src/runner/sweep.h"
#include "src/serve/serving_engine.h"
#include "src/sim/bitfusion_platform.h"
#include "src/sim/simulator.h"

namespace bitfusion {
namespace {

using serve::ClosedLoopSpec;
using serve::InferenceRequest;
using serve::NetworkName;
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

/** Engine over tiny networks with a private cache and fixed options. */
ServingEngine
tinyEngine(ArtifactCache &cache, unsigned maxBatch = 4,
           double maxWaitUs = 0.0)
{
    ServeOptions opts;
    opts.threads = 1;
    opts.maxBatch = maxBatch;
    opts.maxWaitUs = maxWaitUs;
    opts.cache = &cache;
    ServingEngine engine(bfSpec(), opts);
    engine.setCatalog({tinyBench("netA", 64), tinyBench("netB", 128)});
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

/** @p report, once its conservation invariants are checked. */
ServeReport
checked(ServeReport report)
{
    EXPECT_EQ(report.checkInvariants(), "");
    return report;
}

TEST(ServePercentiles, NearestRankOnKnownSample)
{
    std::vector<double> values;
    for (int i = 100; i >= 1; --i)
        values.push_back(i);
    const Percentiles p = serve::percentiles(values);
    EXPECT_DOUBLE_EQ(p.p50, 50.0);
    EXPECT_DOUBLE_EQ(p.p95, 95.0);
    EXPECT_DOUBLE_EQ(p.p99, 99.0);
    EXPECT_DOUBLE_EQ(p.mean, 50.5);
    EXPECT_DOUBLE_EQ(p.max, 100.0);

    const Percentiles one = serve::percentiles({42.0});
    EXPECT_DOUBLE_EQ(one.p50, 42.0);
    EXPECT_DOUBLE_EQ(one.p99, 42.0);

    const Percentiles none = serve::percentiles({});
    EXPECT_DOUBLE_EQ(none.p50, 0.0);
    EXPECT_DOUBLE_EQ(none.max, 0.0);
}

TEST(ServeBatching, CoalescesFifoUpToMaxBatch)
{
    ArtifactCache cache;
    ServingEngine engine = tinyEngine(cache, 4);
    std::vector<InferenceRequest> trace;
    for (std::uint64_t i = 0; i < 6; ++i)
        trace.push_back(req(i, "netA", 1, 0.0));

    const ServeReport report = checked(engine.run(trace));
    ASSERT_EQ(report.batches.size(), 2u);
    EXPECT_EQ(report.batches[0].samples, 4u);
    EXPECT_EQ(report.batches[0].requests, 4u);
    EXPECT_EQ(report.batches[1].samples, 2u);
    ASSERT_EQ(report.requests.size(), 6u);
    // FIFO: the first four requests ride the first batch.
    for (std::uint64_t i = 0; i < 6; ++i) {
        EXPECT_EQ(report.requests[i].request.id, i);
        EXPECT_EQ(report.requests[i].batchSamples, i < 4 ? 4u : 2u);
    }
    EXPECT_EQ(report.totalSamples, 6u);
}

TEST(ServeBatching, CoalescesWholeRequestsOnly)
{
    // 3+2 exceeds the cap, so the 2-sample requests pair up in the
    // second batch; a request's samples never split across batches.
    ArtifactCache cache;
    ServingEngine engine = tinyEngine(cache, 4);
    const ServeReport report = checked(engine.run({req(0, "netA", 3, 0.0),
                                           req(1, "netA", 2, 0.0),
                                           req(2, "netA", 2, 0.0)}));
    ASSERT_EQ(report.batches.size(), 2u);
    EXPECT_EQ(report.batches[0].samples, 3u);
    EXPECT_EQ(report.batches[0].requests, 1u);
    EXPECT_EQ(report.batches[1].samples, 4u);
    EXPECT_EQ(report.batches[1].requests, 2u);
}

TEST(ServeBatching, HeadOfLineNetworkPicksTheBatch)
{
    ArtifactCache cache;
    ServingEngine engine = tinyEngine(cache, 4);
    const ServeReport report = checked(engine.run(
        {req(0, "netA", 1, 0.0), req(1, "netB", 1, 0.0),
         req(2, "netA", 1, 0.0), req(3, "netB", 1, 0.0)}));
    ASSERT_EQ(report.batches.size(), 2u);
    EXPECT_EQ(report.batches[0].network, "netA");
    EXPECT_EQ(report.batches[0].samples, 2u);
    EXPECT_EQ(report.batches[1].network, "netB");
    EXPECT_EQ(report.batches[1].samples, 2u);
}

TEST(ServeBatching, WindowWaitsThenTimerFires)
{
    // A lone unfilled batch waits out the full batching window.
    ArtifactCache cache;
    ServingEngine engine = tinyEngine(cache, 4, 500.0);
    const ServeReport report = checked(engine.run({req(0, "netA", 1, 0.0)}));
    ASSERT_EQ(report.batches.size(), 1u);
    EXPECT_DOUBLE_EQ(report.batches[0].dispatchUs, 500.0);
    EXPECT_DOUBLE_EQ(report.requests[0].queueUs(), 500.0);
}

TEST(ServeBatching, WindowDispatchesEarlyWhenFull)
{
    ArtifactCache cache;
    ServingEngine engine = tinyEngine(cache, 2, 1000.0);
    const ServeReport report = checked(
        engine.run({req(0, "netA", 1, 0.0), req(1, "netA", 1, 300.0)}));
    ASSERT_EQ(report.batches.size(), 1u);
    EXPECT_EQ(report.batches[0].samples, 2u);
    // The batch fills at the second arrival, not at the timer.
    EXPECT_DOUBLE_EQ(report.batches[0].dispatchUs, 300.0);
}

TEST(ServeBatching, DeadlineCutsTheWindowShort)
{
    // The head's 200 us deadline overrides the 1000 us window; the
    // 500 us arrival misses the batch and is served next.
    ArtifactCache cache;
    ServingEngine engine = tinyEngine(cache, 4, 1000.0);
    const ServeReport report = checked(engine.run(
        {req(0, "netA", 1, 0.0, 200.0), req(1, "netA", 1, 500.0)}));
    ASSERT_EQ(report.batches.size(), 2u);
    EXPECT_DOUBLE_EQ(report.batches[0].dispatchUs, 200.0);
    EXPECT_EQ(report.batches[0].requests, 1u);
    EXPECT_EQ(report.deadlineMisses, 0u);
}

TEST(ServeBatching, LateDispatchCountsAsDeadlineMiss)
{
    // The cap-filling head batch occupies the platform; the second
    // request's 1 us deadline passes while it queues.
    ArtifactCache cache;
    ServingEngine engine = tinyEngine(cache, 4);
    const ServeReport report = checked(engine.run(
        {req(0, "netA", 4, 0.0), req(1, "netA", 1, 0.0, 1.0)}));
    ASSERT_EQ(report.requests.size(), 2u);
    EXPECT_FALSE(report.requests[0].deadlineMissed);
    EXPECT_TRUE(report.requests[1].deadlineMissed);
    EXPECT_EQ(report.deadlineMisses, 1u);
    EXPECT_GT(report.requests[1].dispatchUs, 1.0);
}

TEST(ServeLatency, MatchesThePlatformBatchLatency)
{
    // Widely spaced arrivals with no window: each request's latency
    // is exactly its own batch-size simulation on the platform.
    ArtifactCache cache;
    ServingEngine engine = tinyEngine(cache, 4);
    const ServeReport report =
        checked(engine.run({req(0, "netA", 1, 0.0), req(1, "netA", 4, 1e6)}));

    PlatformSpec spec = bfSpec();
    spec.batch = 1;
    const auto p1 = PlatformRegistry::builtin().build(spec);
    const double lat1 =
        p1->run(tinyNet("netA", 64)).seconds() * 1e6;
    spec.batch = 4;
    const auto p4 = PlatformRegistry::builtin().build(spec);
    const double lat4 =
        p4->run(tinyNet("netA", 64)).seconds() * 1e6;

    ASSERT_EQ(report.requests.size(), 2u);
    EXPECT_DOUBLE_EQ(report.requests[0].latencyUs(), lat1);
    EXPECT_DOUBLE_EQ(report.requests[0].queueUs(), 0.0);
    // finish - arrival reassociates the sum, so allow one ulp of the
    // 1e6 us arrival offset.
    EXPECT_NEAR(report.requests[1].latencyUs(), lat4, 1e-6);
}

TEST(ServeDeterminism, ThreadCountDoesNotChangeTheReport)
{
    TraceSpec traceSpec;
    traceSpec.seed = 11;
    traceSpec.requests = 200;
    traceSpec.meanGapUs = 50.0;
    traceSpec.maxSamples = 4;
    traceSpec.networks = {"netA", "netB"};
    const auto trace = serve::syntheticTrace(traceSpec);

    ArtifactCache cache1, cacheN;
    ServeOptions opts;
    opts.maxBatch = 4;
    opts.maxWaitUs = 100.0;
    opts.threads = 1;
    opts.cache = &cache1;
    ServingEngine serial(bfSpec(), opts);
    serial.setCatalog({tinyBench("netA", 64), tinyBench("netB", 128)});
    opts.threads = 8;
    opts.cache = &cacheN;
    ServingEngine parallel(bfSpec(), opts);
    parallel.setCatalog({tinyBench("netA", 64), tinyBench("netB", 128)});

    const std::string a = checked(serial.run(trace)).json(true);
    const std::string b = checked(parallel.run(trace)).json(true);
    EXPECT_EQ(a, b);
}

TEST(ServeDeterminism, SyntheticTraceIsSeedStable)
{
    TraceSpec spec;
    spec.seed = 5;
    spec.requests = 50;
    const auto a = serve::syntheticTrace(spec);
    const auto b = serve::syntheticTrace(spec);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].network, b[i].network);
        EXPECT_EQ(a[i].samples, b[i].samples);
        EXPECT_DOUBLE_EQ(a[i].arrivalUs, b[i].arrivalUs);
    }
    spec.seed = 6;
    const auto c = serve::syntheticTrace(spec);
    bool differs = false;
    for (std::size_t i = 0; i < a.size() && !differs; ++i)
        differs = a[i].network != c[i].network ||
                  a[i].arrivalUs != c[i].arrivalUs;
    EXPECT_TRUE(differs);
}

TEST(ServeClosedLoop, ServesExactlyTheQuota)
{
    ArtifactCache cache;
    ServingEngine engine = tinyEngine(cache, 4);
    ClosedLoopSpec load;
    load.clients = 3;
    load.requests = 10;
    load.samples = 2;
    load.networks = {"netA"};
    const ServeReport report = checked(engine.runClosedLoop(load));
    EXPECT_EQ(report.mode, "closed-loop");
    ASSERT_EQ(report.requests.size(), 10u);
    EXPECT_EQ(report.totalSamples, 20u);
    for (std::size_t i = 0; i < report.requests.size(); ++i)
        EXPECT_EQ(report.requests[i].request.id, i);

    // Same seed, fresh engine: byte-identical report.
    ArtifactCache cache2;
    ServingEngine again = tinyEngine(cache2, 4);
    EXPECT_EQ(checked(again.runClosedLoop(load)).json(true),
              report.json(true));
}

TEST(ServeCache, SharedWithTheSweepRunnerAcrossSubsystems)
{
    // A sweep compiles (netA, batch 16); the serving engine then
    // serves a 16-sample request of the same network on the same
    // platform configuration without recompiling.
    ArtifactCache cache;
    SweepSpec spec;
    spec.name = "warm";
    spec.platforms = {bfSpec()};
    spec.networks = {SweepNetwork::uniform("netA", tinyNet("netA", 64))};
    SweepOptions sweepOpts;
    sweepOpts.threads = 1;
    sweepOpts.cache = &cache;
    const SweepResult sweep = SweepRunner(sweepOpts).run(spec);
    EXPECT_EQ(sweep.compileCount(), 1u);
    EXPECT_EQ(cache.compileCount(), 1u);

    ServeOptions opts;
    opts.threads = 1;
    opts.cache = &cache;
    ServingEngine engine(bfSpec(), opts); // platform batch 16
    engine.setCatalog({tinyBench("netA", 64)});
    const ServeReport report = checked(engine.run({req(0, "netA", 16, 0.0)}));
    EXPECT_EQ(report.compiles, 0u);
    EXPECT_GE(report.cacheHits, 1u);
    EXPECT_EQ(cache.compileCount(), 1u);

    // And the reverse: a repeated sweep performs no new compilation
    // (the cache's compile counter stays put).
    const SweepResult again = SweepRunner(sweepOpts).run(spec);
    EXPECT_EQ(again.compileCount(), 1u);
    EXPECT_EQ(cache.compileCount(), 1u);
}

TEST(ServeCache, OneCompilePerDistinctShape)
{
    // Three batch shapes of netA, one of netB: four compiles, and
    // repeating every shape adds only hits.
    ArtifactCache cache;
    ServingEngine engine = tinyEngine(cache, 4);
    const ServeReport report = checked(engine.run(
        {req(0, "netA", 1, 0.0), req(1, "netA", 2, 1e7),
         req(2, "netA", 1, 2e7), req(3, "netA", 4, 3e7),
         req(4, "netB", 4, 4e7), req(5, "netA", 4, 5e7)}));
    // Prewarm compiles both networks at the cap (4); the 1- and
    // 2-sample shapes compile lazily at dispatch.
    EXPECT_EQ(cache.compileCount(), 4u);
    EXPECT_EQ(report.compiles, 4u);
    EXPECT_EQ(report.distinctBatchShapes, 4u);
    EXPECT_EQ(report.batches.size(), 6u);
}

/** Serve a small two-replica trace on @p fleet with a fresh cache. */
ServeReport
serveFleet(std::vector<PlatformSpec> fleet)
{
    ArtifactCache cache;
    ServeOptions opts;
    opts.threads = 1;
    opts.maxBatch = 4;
    opts.cache = &cache;
    ServingEngine engine(std::move(fleet), opts);
    engine.setCatalog({tinyBench("netA", 64), tinyBench("netB", 128)});
    return checked(engine.run(
        {req(0, "netA", 4, 0.0), req(1, "netA", 4, 0.0),
         req(2, "netB", 4, 1e7)}));
}

TEST(ServeFleet, ClassIdentityIsConfigEquality)
{
    const AcceleratorConfig base = AcceleratorConfig::eyerissMatched45();
    const PlatformSpec spec = bitfusionPlatform(base, "bitfusion");

    // Equal specs share one class (the report names the fleet by
    // class): the fleet prewarms each network at the cap once, and
    // every (network, batch) shape compiles and simulates once.
    const ServeReport shared = serveFleet({spec, spec});
    EXPECT_EQ(shared.platform, "bitfusion x2");
    EXPECT_EQ(shared.compiles, 2u);
    EXPECT_EQ(shared.distinctBatchShapes, 2u);

    // Same name, kind and batch, one different config field: two
    // classes, each simulating its own shapes. The array geometry is
    // not part of the compile key, so the artifacts are still shared.
    AcceleratorConfig taller = base;
    taller.rows *= 2;
    const ServeReport geometry =
        serveFleet({spec, bitfusionPlatform(taller, "bitfusion")});
    EXPECT_EQ(geometry.platform, "bitfusion + bitfusion");
    EXPECT_EQ(geometry.compiles, shared.compiles);
    EXPECT_EQ(geometry.distinctBatchShapes,
              2 * shared.distinctBatchShapes);

    // A differing field the compiler reads doubles the compiles too.
    AcceleratorConfig smallerBuffer = base;
    smallerBuffer.wbufBits /= 2;
    const ServeReport buffer =
        serveFleet({spec, bitfusionPlatform(smallerBuffer, "bitfusion")});
    EXPECT_EQ(buffer.platform, "bitfusion + bitfusion");
    EXPECT_EQ(buffer.compiles, 2 * shared.compiles);
}

TEST(ServeTrace, FormatParseRoundTrip)
{
    TraceSpec spec;
    spec.seed = 9;
    spec.requests = 20;
    spec.deadlineSlackUs = 1234.5;
    const auto trace = serve::syntheticTrace(spec);
    const std::string text = serve::formatTrace(trace);
    const auto parsed = serve::parseTrace(text);
    ASSERT_EQ(parsed.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(parsed[i].id, i);
        EXPECT_EQ(parsed[i].network, trace[i].network);
        EXPECT_EQ(parsed[i].samples, trace[i].samples);
        EXPECT_EQ(parsed[i].arrivalUs, trace[i].arrivalUs);
        EXPECT_EQ(parsed[i].deadlineUs, trace[i].deadlineUs);
    }
    // Formatting the parsed trace reproduces the text byte-for-byte.
    EXPECT_EQ(serve::formatTrace(parsed), text);

    EXPECT_TRUE(serve::parseTrace("# only a comment\n\n").empty());
}

TEST(ServeDeath, RejectsBadTracesAndRequests)
{
    EXPECT_DEATH(serve::parseTrace("12.0 netA\n"), "malformed");
    EXPECT_DEATH(serve::parseTrace("5.0 netA 1\n1.0 netA 1\n"),
                 "out of order");
    EXPECT_DEATH(serve::parseTrace("5.0 netA 0\n"),
                 "bad sample count");
    EXPECT_DEATH(serve::parseTrace("5.0 netA -1\n"),
                 "bad sample count");
    EXPECT_DEATH(serve::parseTrace("5.0 netA 1 garbage\n"),
                 "malformed deadline");
    EXPECT_DEATH(serve::parseTrace("5.0 netA 1 9.0 extra\n"),
                 "trailing");

    ArtifactCache cache;
    ServingEngine engine = tinyEngine(cache, 4);
    EXPECT_DEATH(engine.run({req(0, "netA", 5, 0.0)}), "max batch");
    EXPECT_DEATH(engine.run({req(0, "nope", 1, 0.0)}), "no network");
    EXPECT_DEATH(engine.run({req(0, "netA", 1, 5.0),
                             req(1, "netA", 1, 0.0)}),
                 "arrival-ordered");

    // Times past the virtual clock's ceiling would overflow the event
    // loop's sums to infinity; every one is rejected where it enters.
    EXPECT_DEATH(engine.run({req(0, "netA", 1, 0.0),
                             req(1, "netA", 1, 1.7e308)}),
                 "request 1 arrives at 1.7e\\+308 us");
    EXPECT_DEATH(engine.run({req(0, "netA", 1, 0.0, 1e19)}),
                 "deadline 1e\\+19 us");
    ClosedLoopSpec loop;
    loop.clients = 2;
    loop.requests = 10;
    loop.networks = {"netA"};
    loop.deadlineSlackUs = 1e308;
    EXPECT_DEATH(engine.runClosedLoop(loop),
                 "closed-loop deadline slack 1e\\+308 us");
    loop.deadlineSlackUs = 0.0;

    const auto withOptions = [&cache](double maxWaitUs, double sloUs,
                                      double switchUs) {
        ServeOptions opts;
        opts.threads = 1;
        opts.maxBatch = 4;
        opts.cache = &cache;
        opts.replicas = 2;
        opts.maxWaitUs = maxWaitUs;
        opts.scheduler = sloUs > 0.0 ? "slo" : "fifo";
        opts.sloBudgetUs = sloUs;
        opts.switchPenaltyUs = switchUs;
        ServingEngine out(bfSpec(), opts);
        out.setCatalog({tinyBench("netA", 64)});
        return out;
    };
    const std::vector<InferenceRequest> two = {req(0, "netA", 1, 0.0),
                                               req(1, "netA", 1, 1.0)};
    ServingEngine penalty = withOptions(0.0, 0.0, 1e308);
    EXPECT_DEATH(penalty.run(two), "switch penalty 1e\\+308 us");
    EXPECT_DEATH(penalty.runClosedLoop(loop), "switch penalty 1e\\+308");
    ServingEngine window = withOptions(1e308, 0.0, 0.0);
    EXPECT_DEATH(window.run(two), "batching window 1e\\+308 us");
    ServingEngine slo = withOptions(0.0, 1e308, 0.0);
    EXPECT_DEATH(slo.run(two), "SLO budget 1e\\+308 us");
    // At the ceiling itself every sum stays finite.
    ServingEngine edge = withOptions(1e18, 0.0, 1e18);
    const ServeReport report = checked(edge.run(two));
    EXPECT_EQ(report.requestCount, 2u);
    EXPECT_TRUE(std::isfinite(report.latencyUs().max));
}

/** Simulated latency of a lone one-sample @p network request, exactly
 *  as the engine charges it. */
double
soloLatencyUs(const std::string &network)
{
    ArtifactCache cache;
    ServingEngine engine = tinyEngine(cache, 1);
    const ServeReport report = checked(engine.run({req(0, network, 1, 0.0)}));
    return report.batches.at(0).latencyUs;
}

TEST(ServeArrivals, EqualArrivalsAdmitInIdOrder)
{
    // Three requests share arrival 0 but are listed out of id order.
    // Admission -- and so queue position, which fifo serves -- runs
    // in (arrival, id) order, not trace order.
    const double latA = soloLatencyUs("netA");
    const double latB = soloLatencyUs("netB");
    ArtifactCache cache;
    ServingEngine engine = tinyEngine(cache, 1);
    const ServeReport report = checked(
        engine.run({req(3, "netA", 1, 0.0), req(1, "netB", 1, 0.0),
                    req(2, "netA", 1, 0.0), req(0, "netB", 1, 1e6)}));

    ASSERT_EQ(report.requests.size(), 4u);
    const double dispatch[] = {1e6, 0.0, latB, latB + latA};
    const double finish[] = {1e6 + latB, latB, latB + latA,
                             latB + latA + latA};
    for (std::size_t id = 0; id < 4; ++id) {
        const serve::RequestRecord &rec = report.requests[id];
        EXPECT_EQ(rec.request.id, id);
        EXPECT_EQ(rec.dispatchUs, dispatch[id]) << "request " << id;
        EXPECT_EQ(rec.finishUs, finish[id]) << "request " << id;
        EXPECT_EQ(rec.batchSamples, 1u);
        EXPECT_FALSE(rec.deadlineMissed);
    }
}

TEST(ServeArrivals, RetryTiedWithATraceArrivalMergesById)
{
    // Request x dies mid-compute at 0.5 L and retries after a 2 L
    // backoff, at exactly the microsecond trace request y arrives.
    // The tie breaks on id, as it does between two trace arrivals:
    // the lower id is admitted, and so served, first.
    const double lat = soloLatencyUs("netA");
    const double retryAt = 0.5 * lat + 2.0 * lat;
    for (const bool retryFirst : {true, false}) {
        const std::uint64_t x = retryFirst ? 0 : 1;
        const std::uint64_t y = retryFirst ? 1 : 0;
        ArtifactCache cache;
        ServeOptions opts;
        opts.threads = 1;
        opts.maxBatch = 1;
        opts.cache = &cache;
        opts.faults.replicaEvents.push_back(
            serve::FaultEvent{0, 0.5 * lat, lat});
        opts.retry.maxAttempts = 2;
        opts.retry.backoffBaseUs = 2.0 * lat;
        ServingEngine engine(bfSpec(), opts);
        engine.setCatalog({tinyBench("netA", 64), tinyBench("netB", 128)});
        const ServeReport report = checked(engine.run(
            {req(x, "netA", 1, 0.0), req(y, "netA", 1, retryAt)}));

        ASSERT_EQ(report.requests.size(), 2u);
        const serve::RequestRecord &retried = report.requests[x];
        const serve::RequestRecord &fresh = report.requests[y];
        const serve::RequestRecord &first = retryFirst ? retried : fresh;
        const serve::RequestRecord &second = retryFirst ? fresh : retried;
        EXPECT_EQ(first.dispatchUs, retryAt);
        EXPECT_EQ(first.finishUs, retryAt + lat);
        EXPECT_EQ(second.dispatchUs, retryAt + lat);
        EXPECT_EQ(second.finishUs, retryAt + lat + lat);
        EXPECT_EQ(retried.attempts, 2u);
        EXPECT_TRUE(retried.recovered);
        EXPECT_EQ(retried.request.arrivalUs, 0.0);
        EXPECT_EQ(fresh.attempts, 1u);
        EXPECT_FALSE(fresh.recovered);
        EXPECT_EQ(report.retriesIssued, 1u);
    }
}

/**
 * The arrival-shift scenario: two replicas under a batch cap and a
 * batching window, deadlines, a network-switch penalty, one explicit
 * outage with retries, and depth-bounded admission, over a seeded
 * trace whose times are whole microseconds. Every arrival, deadline
 * and the outage onset move by @p shiftUs.
 */
ServeReport
shiftScenario(const std::string &scheduler, double shiftUs)
{
    std::uint64_t state = 0x5eed;
    auto draw = [&state](std::uint64_t range) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<unsigned>((state >> 33) % range);
    };
    std::vector<InferenceRequest> trace;
    double arrivalUs = shiftUs;
    for (std::uint64_t id = 0; id < 96; ++id) {
        arrivalUs += draw(3);
        const std::string network = draw(2) == 0 ? "netA" : "netB";
        const unsigned samples = 1 + draw(3);
        const double slackUs = draw(4);
        trace.push_back(req(id, network, samples, arrivalUs,
                            slackUs > 0.0 ? arrivalUs + slackUs : 0.0));
    }

    ArtifactCache cache;
    ServeOptions opts;
    opts.threads = 1;
    opts.replicas = 2;
    opts.scheduler = scheduler;
    opts.maxBatch = 4;
    opts.maxWaitUs = 2.0;
    opts.switchPenaltyUs = 1.0;
    opts.maxQueueDepth = 6;
    opts.cache = &cache;
    opts.faults.replicaEvents.push_back(
        serve::FaultEvent{1, trace[24].arrivalUs + 1.0, 12.0});
    opts.retry.maxAttempts = 3;
    ServingEngine engine(bfSpec(), opts);
    engine.setCatalog({tinyBench("netA", 64), tinyBench("netB", 128)});
    return checked(engine.run(trace));
}

/** Index of each served request's batch in report.batches. */
std::vector<std::size_t>
batchMembership(const ServeReport &report)
{
    std::vector<std::size_t> member;
    for (const serve::RequestRecord &rec : report.requests) {
        std::size_t b = 0;
        while (b < report.batches.size() &&
               (report.batches[b].replica != rec.replica ||
                report.batches[b].dispatchUs != rec.dispatchUs))
            ++b;
        member.push_back(b);
    }
    return member;
}

TEST(ServeMetamorphic, ArrivalShiftMovesTimesAndKeepsDecisions)
{
    // Δ = 2^20 µs keeps every integer trace time exact after the
    // shift, so no decision can flip on rounding: the same batches
    // form on the same replicas, the same requests shed, miss and
    // are lost, and only the absolute times move by Δ.
    const double delta = 1048576.0;
    for (const char *scheduler : {"fifo", "edf"}) {
        SCOPED_TRACE(scheduler);
        const ServeReport base = shiftScenario(scheduler, 0.0);
        const ServeReport moved = shiftScenario(scheduler, delta);

        // The scenario exercises every decision it claims to.
        EXPECT_GT(base.shedRequests, 0u);
        EXPECT_GT(base.deadlineMisses, 0u);
        EXPECT_GT(base.lostBatches, 0u);
        EXPECT_GT(base.networkSwitches, 0u);
        EXPECT_LT(base.batchCount, base.requestCount);
        ASSERT_EQ(base.replicas.size(), 2u);
        EXPECT_GT(base.replicas[0].batches, 0u);
        EXPECT_GT(base.replicas[1].batches, 0u);

        EXPECT_EQ(moved.requestCount, base.requestCount);
        EXPECT_EQ(moved.batchCount, base.batchCount);
        EXPECT_EQ(moved.totalSamples, base.totalSamples);
        EXPECT_EQ(moved.shedRequests, base.shedRequests);
        EXPECT_EQ(moved.shedByDepth, base.shedByDepth);
        EXPECT_EQ(moved.shedByDeadline, base.shedByDeadline);
        EXPECT_EQ(moved.deadlineMisses, base.deadlineMisses);
        EXPECT_EQ(moved.lostBatches, base.lostBatches);
        EXPECT_EQ(moved.requestLossEvents, base.requestLossEvents);
        EXPECT_EQ(moved.requestsAbandoned, base.requestsAbandoned);
        EXPECT_EQ(moved.retriesIssued, base.retriesIssued);
        EXPECT_EQ(moved.requestsRecovered, base.requestsRecovered);
        EXPECT_EQ(moved.networkSwitches, base.networkSwitches);
        EXPECT_EQ(moved.energyJ, base.energyJ);
        EXPECT_NEAR(moved.makespanUs, base.makespanUs + delta, 1e-6);
        for (std::size_t r = 0; r < base.replicas.size(); ++r) {
            EXPECT_EQ(moved.replicas[r].batches, base.replicas[r].batches);
            EXPECT_EQ(moved.replicas[r].samples, base.replicas[r].samples);
            EXPECT_EQ(moved.replicas[r].energyJ, base.replicas[r].energyJ);
        }

        ASSERT_EQ(moved.batches.size(), base.batches.size());
        for (std::size_t b = 0; b < base.batches.size(); ++b) {
            const serve::BatchRecord &x = base.batches[b];
            const serve::BatchRecord &y = moved.batches[b];
            EXPECT_EQ(y.network, x.network) << "batch " << b;
            EXPECT_EQ(y.samples, x.samples) << "batch " << b;
            EXPECT_EQ(y.requests, x.requests) << "batch " << b;
            EXPECT_EQ(y.replica, x.replica) << "batch " << b;
            EXPECT_NEAR(y.dispatchUs, x.dispatchUs + delta, 1e-6);
            EXPECT_NEAR(y.latencyUs, x.latencyUs, 1e-6);
        }

        ASSERT_EQ(moved.requests.size(), base.requests.size());
        EXPECT_EQ(batchMembership(moved), batchMembership(base));
        for (std::size_t i = 0; i < base.requests.size(); ++i) {
            const serve::RequestRecord &x = base.requests[i];
            const serve::RequestRecord &y = moved.requests[i];
            EXPECT_EQ(y.request.id, x.request.id);
            EXPECT_EQ(y.replica, x.replica) << "request " << x.request.id;
            EXPECT_EQ(y.batchSamples, x.batchSamples);
            EXPECT_EQ(y.deadlineMissed, x.deadlineMissed);
            EXPECT_EQ(y.attempts, x.attempts);
            EXPECT_EQ(y.recovered, x.recovered);
            EXPECT_NEAR(y.latencyUs(), x.latencyUs(), 1e-6);
            EXPECT_NEAR(y.dispatchUs, x.dispatchUs + delta, 1e-6);
            EXPECT_NEAR(y.finishUs, x.finishUs + delta, 1e-6);
        }
    }
}

TEST(ServeDeath, UnknownNetworkNamesTheRequestAndTheCatalog)
{
    ArtifactCache cache;
    ServingEngine engine = tinyEngine(cache);
    EXPECT_DEATH(engine.run({req(0, "netA", 1, 0.0), req(1, "Foo", 2, 5.0)}),
                 "serving catalog has no network 'Foo' \\(request 1, "
                 "arrival 5 us\\); it has netA, netB");
    ClosedLoopSpec loop;
    loop.networks = {"netB", "Bar"};
    EXPECT_DEATH(engine.runClosedLoop(loop),
                 "no network 'Bar' \\(closed-loop network mix\\); it has "
                 "netA, netB");
}

TEST(ServeNetworkName, InternsOverlappingNamesFromFourThreads)
{
    // Every thread interns the same names, each in its own order, so
    // most first interns race with another thread's lookup.
    constexpr std::size_t kNames = 512; // odd strides permute it
    const auto nameOf = [](std::size_t i) {
        return (i % 2 == 0 ? "t" : "a-name-past-the-small-string-buffer-") +
               std::to_string(i);
    };
    std::vector<std::vector<NetworkName>> got(
        4, std::vector<NetworkName>(kNames));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t) {
        threads.emplace_back([&got, &nameOf, t] {
            for (std::size_t k = 0; k < kNames; ++k) {
                const std::size_t i = (k * (2 * t + 1) + 97 * t) % kNames;
                got[t][i] = NetworkName(nameOf(i));
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    std::vector<std::uint32_t> indexes;
    for (std::size_t i = 0; i < kNames; ++i) {
        for (std::size_t t = 1; t < got.size(); ++t)
            EXPECT_EQ(got[t][i], got[0][i]) << nameOf(i);
        EXPECT_EQ(got[0][i].str(), nameOf(i));
        EXPECT_EQ(NetworkName(nameOf(i)), got[0][i]);
        indexes.push_back(got[0][i].index());
    }
    std::sort(indexes.begin(), indexes.end());
    EXPECT_EQ(std::adjacent_find(indexes.begin(), indexes.end()),
              indexes.end());
    EXPECT_EQ(NetworkName().str(), "");
    EXPECT_EQ(NetworkName(""), NetworkName());
}

} // namespace
} // namespace bitfusion
