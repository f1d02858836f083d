/**
 * @file
 * Million-request serving tests: P-squared streaming percentiles
 * against the exact nearest-rank values, bursty arrival generation
 * (MMPP / diurnal / flash crowd), admission-control shed accounting,
 * the shortest-round-trip trace format, active-window throughput,
 * byte-parity of the contended and closed-loop chaos goldens, the
 * report's ledger invariants, and outcome parity with and without
 * per-request record retention.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/prng.h"
#include "src/common/streaming_stats.h"
#include "src/core/artifact_cache.h"
#include "src/dnn/model_zoo.h"
#include "src/serve/serving_engine.h"
#include "src/sim/bitfusion_platform.h"

namespace bitfusion {
namespace {

using serve::ArrivalProcess;
using serve::InferenceRequest;
using serve::Percentiles;
using serve::RequestRecord;
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

/** Engine over tiny networks with a private cache. */
ServingEngine
tinyEngine(ArtifactCache &cache, ServeOptions opts)
{
    opts.threads = 1;
    if (opts.maxBatch == 0)
        opts.maxBatch = 4;
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

/**
 * Assert the streaming estimate lands within the documented bound of
 * the exact nearest-rank value: 2% relative plus a small absolute
 * floor (src/common/streaming_stats.h).
 */
void
expectWithinBounds(double estimate, double exact, double absFloor)
{
    EXPECT_NEAR(estimate, exact, 0.02 * std::abs(exact) + absFloor)
        << "estimate " << estimate << " vs exact " << exact;
}

/** Exact-vs-streaming comparison over one generated sample. */
template <typename Draw>
void
checkStreamingAccuracy(Draw &&draw, std::size_t n, double absFloor)
{
    StreamingSummary stream;
    std::vector<double> values;
    values.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double x = draw();
        stream.add(x);
        values.push_back(x);
    }
    const Percentiles exact = serve::percentiles(values);
    ASSERT_EQ(stream.count(), n);
    EXPECT_NEAR(stream.mean(), exact.mean,
                1e-9 * std::abs(exact.mean));
    EXPECT_DOUBLE_EQ(stream.max(), exact.max);
    expectWithinBounds(stream.p50(), exact.p50, absFloor);
    expectWithinBounds(stream.p95(), exact.p95, absFloor);
    expectWithinBounds(stream.p99(), exact.p99, absFloor);
}

/** @p report, once its conservation invariants are checked. */
ServeReport
checked(ServeReport report)
{
    EXPECT_EQ(report.checkInvariants(), "");
    return report;
}

TEST(StreamingStats, ExactNearestRankUpToFiveObservations)
{
    // Until the markers prime, value() must equal serve::percentiles
    // over the prefix -- the estimator degrades gracefully on tiny
    // runs instead of reporting half-initialized markers.
    const double sample[] = {42.0, 7.0, 99.0, 1.0, 60.0};
    for (double q : {0.5, 0.95, 0.99}) {
        P2Quantile estimator(q);
        std::vector<double> prefix;
        EXPECT_DOUBLE_EQ(estimator.value(), 0.0);
        for (double x : sample) {
            estimator.add(x);
            prefix.push_back(x);
            std::vector<double> sorted = prefix;
            std::sort(sorted.begin(), sorted.end());
            std::size_t idx = static_cast<std::size_t>(
                std::ceil(q * static_cast<double>(sorted.size())));
            if (idx == 0)
                idx = 1;
            EXPECT_DOUBLE_EQ(estimator.value(), sorted[idx - 1])
                << "q=" << q << " after " << prefix.size();
        }
    }
}

TEST(StreamingStats, UniformWithinDocumentedBounds)
{
    Prng prng(11);
    checkStreamingAccuracy([&] { return 1000.0 * prng.nextDouble(); },
                           20000, 2.0);
}

TEST(StreamingStats, ExponentialWithinDocumentedBounds)
{
    Prng prng(12);
    checkStreamingAccuracy([&] { return prng.nextExponential(100.0); },
                           20000, 2.0);
}

TEST(StreamingStats, BimodalWithinDocumentedBounds)
{
    // 80% fast mode near 100 us, 20% slow mode near 950 us -- the
    // shape a latency distribution with a saturated tail takes.
    Prng prng(13);
    checkStreamingAccuracy(
        [&] {
            if (prng.nextDouble() < 0.8)
                return 50.0 + 100.0 * prng.nextDouble();
            return 900.0 + 100.0 * prng.nextDouble();
        },
        20000, 5.0);
}

TEST(StreamingStats, DeterministicForFixedOrder)
{
    const auto run = [] {
        StreamingSummary s;
        Prng prng(5);
        for (int i = 0; i < 5000; ++i)
            s.add(prng.nextExponential(40.0));
        return s;
    };
    const StreamingSummary a = run();
    const StreamingSummary b = run();
    EXPECT_DOUBLE_EQ(a.p50(), b.p50());
    EXPECT_DOUBLE_EQ(a.p95(), b.p95());
    EXPECT_DOUBLE_EQ(a.p99(), b.p99());
    EXPECT_DOUBLE_EQ(a.mean(), b.mean());
    EXPECT_DOUBLE_EQ(a.max(), b.max());
}

// --------------------------------------------------- streaming engine

TEST(ServeStreaming, MatchesExactRunWithinBounds)
{
    TraceSpec spec;
    spec.seed = 21;
    spec.requests = 600;
    spec.meanGapUs = 400.0;
    spec.networks = {"netA", "netB"};

    ArtifactCache cacheExact, cacheStream;
    ServeOptions exactOpts;
    ServingEngine exact = tinyEngine(cacheExact, exactOpts);
    ServeOptions streamOpts;
    streamOpts.streamingStats = true;
    streamOpts.retainRecords = false;
    ServingEngine streaming = tinyEngine(cacheStream, streamOpts);

    const auto trace = serve::syntheticTrace(spec);
    const ServeReport exactReport = checked(exact.run(trace));
    const ServeReport streamReport = checked(streaming.run(trace));

    // Everything except the percentile estimates is exact.
    EXPECT_TRUE(streamReport.streamingStats);
    EXPECT_FALSE(exactReport.streamingStats);
    EXPECT_TRUE(streamReport.requests.empty());
    EXPECT_TRUE(streamReport.batches.empty());
    EXPECT_EQ(streamReport.requestCount, exactReport.requestCount);
    EXPECT_EQ(streamReport.batchCount, exactReport.batchCount);
    EXPECT_EQ(streamReport.totalSamples, exactReport.totalSamples);
    EXPECT_EQ(streamReport.deadlineMisses, exactReport.deadlineMisses);
    EXPECT_DOUBLE_EQ(streamReport.energyJ, exactReport.energyJ);
    EXPECT_DOUBLE_EQ(streamReport.makespanUs, exactReport.makespanUs);

    const Percentiles pe = exactReport.latencyUs();
    const Percentiles ps = streamReport.latencyUs();
    EXPECT_NEAR(ps.mean, pe.mean, 1e-9 * std::abs(pe.mean));
    EXPECT_DOUBLE_EQ(ps.max, pe.max);
    // 600 observations is far below the 2e4 the 2% bound is
    // documented at; allow 5% + floor here.
    const auto close = [](double est, double ref) {
        EXPECT_NEAR(est, ref, 0.05 * std::abs(ref) + 25.0)
            << est << " vs " << ref;
    };
    close(ps.p50, pe.p50);
    close(ps.p95, pe.p95);
    close(ps.p99, pe.p99);
}

TEST(ServeStreaming, DeterministicAcrossThreadsAndReruns)
{
    TraceSpec spec;
    spec.seed = 8;
    spec.requests = 300;
    spec.meanGapUs = 500.0;
    spec.networks = {"netA", "netB"};
    const auto trace = serve::syntheticTrace(spec);

    const auto runWith = [&](unsigned threads) {
        ArtifactCache cache;
        ServeOptions opts;
        opts.streamingStats = true;
        opts.retainRecords = false;
        opts.maxBatch = 4;
        opts.cache = &cache;
        opts.threads = threads;
        ServingEngine engine(bfSpec(), opts);
        engine.setCatalog(
            {tinyBench("netA", 64), tinyBench("netB", 128)});
        return checked(engine.run(trace)).json();
    };
    const std::string serial = runWith(1);
    EXPECT_EQ(runWith(8), serial);
    EXPECT_EQ(runWith(1), serial);
}

// -------------------------------------------------- admission control

TEST(ServeAdmission, DepthBoundShedsAndCountsSeparately)
{
    ArtifactCache cache;
    ServeOptions opts;
    opts.maxQueueDepth = 4;
    ServingEngine engine = tinyEngine(cache, opts);
    std::vector<InferenceRequest> trace;
    for (std::uint64_t i = 0; i < 8; ++i)
        trace.push_back(req(i, "netA", 1, 0.0));

    const ServeReport report = checked(engine.run(trace));
    EXPECT_TRUE(report.admissionControl);
    EXPECT_EQ(report.requestCount, 4u);
    EXPECT_EQ(report.shedRequests, 4u);
    EXPECT_EQ(report.shedByDepth, 4u);
    EXPECT_EQ(report.shedByDeadline, 0u);
    EXPECT_EQ(report.deadlineMisses, 0u);
    // Served records never include shed requests.
    ASSERT_EQ(report.requests.size(), 4u);
    for (const auto &r : report.requests)
        EXPECT_LT(r.request.id, 4u);
    EXPECT_NE(report.json().find("\"shed\": 4"), std::string::npos);
}

TEST(ServeAdmission, UnmeetableDeadlineShedsInsteadOfMissing)
{
    // B's deadline (50 us) already passed when it arrives (100 us):
    // a guaranteed miss. Without shedUnmeetable it serves and counts
    // as a miss; with it, admission control sheds it.
    const std::vector<InferenceRequest> trace = {
        req(0, "netA", 1, 0.0),
        req(1, "netA", 1, 100.0, 50.0),
    };

    ArtifactCache cacheMiss;
    ServeOptions missOpts;
    ServingEngine missing = tinyEngine(cacheMiss, missOpts);
    const ServeReport missed = checked(missing.run(trace));
    EXPECT_FALSE(missed.admissionControl);
    EXPECT_EQ(missed.requestCount, 2u);
    EXPECT_EQ(missed.deadlineMisses, 1u);
    EXPECT_EQ(missed.shedRequests, 0u);
    EXPECT_EQ(missed.json().find("\"shed\""), std::string::npos);

    ArtifactCache cacheShed;
    ServeOptions shedOpts;
    shedOpts.shedUnmeetable = true;
    ServingEngine shedding = tinyEngine(cacheShed, shedOpts);
    const ServeReport shed = checked(shedding.run(trace));
    EXPECT_TRUE(shed.admissionControl);
    EXPECT_EQ(shed.requestCount, 1u);
    EXPECT_EQ(shed.deadlineMisses, 0u);
    EXPECT_EQ(shed.shedRequests, 1u);
    EXPECT_EQ(shed.shedByDeadline, 1u);
    EXPECT_EQ(shed.shedByDepth, 0u);
}

TEST(ServeAdmission, MeetableDeadlineIsNotShed)
{
    // An idle replica can dispatch at arrival, so a future deadline
    // is meetable and the request must be admitted even if the
    // dispatch later turns out tight.
    ArtifactCache cache;
    ServeOptions opts;
    opts.shedUnmeetable = true;
    ServingEngine engine = tinyEngine(cache, opts);
    const ServeReport report =
        checked(engine.run({req(0, "netA", 1, 0.0, 500000.0)}));
    EXPECT_EQ(report.requestCount, 1u);
    EXPECT_EQ(report.shedRequests, 0u);
}

TEST(ServeAdmission, ClosedLoopDepthShedIsFatal)
{
    ArtifactCache cache;
    ServeOptions opts;
    opts.maxQueueDepth = 2;
    ServingEngine engine = tinyEngine(cache, opts);
    serve::ClosedLoopSpec load;
    load.clients = 4;
    load.requests = 8;
    load.networks = {"netA"};
    EXPECT_DEATH(engine.runClosedLoop(load),
                 "cannot shed by queue depth");
}

TEST(ServeAdmission, ClosedLoopDeadlineShedReissuesAndTerminates)
{
    // Impossible slack: every request sheds at absorption, the shed
    // client reissues with a fresh deadline at the shed time, and the
    // issued quota still bounds the run. Served + shed covers the
    // whole quota.
    ArtifactCache cache;
    ServeOptions opts;
    opts.shedUnmeetable = true;
    ServingEngine engine = tinyEngine(cache, opts);
    serve::ClosedLoopSpec load;
    load.clients = 2;
    load.requests = 12;
    load.networks = {"netA"};
    load.deadlineSlackUs = 1.0;
    const ServeReport report = checked(engine.runClosedLoop(load));
    EXPECT_TRUE(report.admissionControl);
    EXPECT_EQ(report.requestCount + report.shedRequests, 12u);
    EXPECT_EQ(report.shedByDepth, 0u);
    EXPECT_EQ(report.shedRequests, report.shedByDeadline);
}

// ------------------------------------------------------ bursty traces

TEST(ServeTrace, BurstyFlagTracksTheKnobs)
{
    TraceSpec spec;
    EXPECT_FALSE(spec.bursty());
    // Dormant MMPP knobs do not make a Poisson spec bursty.
    spec.burstRateMultiplier = 99.0;
    spec.meanBurstUs = 1.0;
    EXPECT_FALSE(spec.bursty());
    spec.process = ArrivalProcess::Mmpp;
    EXPECT_TRUE(spec.bursty());
    spec = TraceSpec{};
    spec.diurnalPeriodUs = 1000.0;
    spec.diurnalAmplitude = 0.5;
    EXPECT_TRUE(spec.bursty());
    spec = TraceSpec{};
    spec.flashDurationUs = 100.0;
    spec.flashMultiplier = 4.0;
    EXPECT_TRUE(spec.bursty());
}

TEST(ServeTrace, DormantKnobsPreserveTheLegacyPoissonStream)
{
    TraceSpec legacy;
    legacy.seed = 3;
    legacy.requests = 500;
    legacy.meanGapUs = 700.0;
    legacy.deadlineSlackUs = 9000.0;

    TraceSpec knobs = legacy;
    knobs.burstRateMultiplier = 17.0;
    knobs.meanBurstUs = 5.0;
    knobs.meanCalmUs = 5.0;
    knobs.flashMultiplier = 50.0; // no window -> dormant

    EXPECT_EQ(serve::formatTrace(serve::syntheticTrace(knobs)),
              serve::formatTrace(serve::syntheticTrace(legacy)));
}

TEST(ServeTrace, MmppIsSeededAndArrivalOrdered)
{
    TraceSpec spec;
    spec.seed = 19;
    spec.requests = 2000;
    spec.meanGapUs = 500.0;
    spec.process = ArrivalProcess::Mmpp;
    spec.burstRateMultiplier = 6.0;
    spec.meanBurstUs = 10000.0;
    spec.meanCalmUs = 50000.0;

    const auto trace = serve::syntheticTrace(spec);
    ASSERT_EQ(trace.size(), 2000u);
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i].arrivalUs, trace[i - 1].arrivalUs);
    EXPECT_EQ(serve::formatTrace(serve::syntheticTrace(spec)),
              serve::formatTrace(trace));

    // The modulated stream is a different draw sequence than the
    // constant-rate one.
    TraceSpec poisson = spec;
    poisson.process = ArrivalProcess::Poisson;
    EXPECT_NE(serve::formatTrace(serve::syntheticTrace(poisson)),
              serve::formatTrace(trace));
}

TEST(ServeTrace, FlashCrowdConcentratesArrivals)
{
    TraceSpec calm;
    calm.seed = 4;
    calm.requests = 2000;
    calm.meanGapUs = 100.0;

    TraceSpec flash = calm;
    flash.flashStartUs = 0.0;
    flash.flashDurationUs = 50000.0;
    flash.flashMultiplier = 10.0;

    const auto countInWindow = [](const TraceSpec &spec) {
        std::size_t inWindow = 0;
        for (const auto &r : serve::syntheticTrace(spec))
            if (r.arrivalUs < 50000.0)
                ++inWindow;
        return inWindow;
    };
    const std::size_t base = countInWindow(calm);
    const std::size_t crowded = countInWindow(flash);
    // A 10x window should pull several times the baseline mass
    // forward; assert a loose 2x so the test is not seed-brittle.
    EXPECT_GE(crowded, 2 * base);
}

TEST(ServeTrace, DiurnalEnvelopeIsDeterministicAndOrdered)
{
    TraceSpec spec;
    spec.seed = 6;
    spec.requests = 1500;
    spec.meanGapUs = 200.0;
    spec.diurnalPeriodUs = 100000.0;
    spec.diurnalAmplitude = 0.9;

    const auto trace = serve::syntheticTrace(spec);
    ASSERT_EQ(trace.size(), 1500u);
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i].arrivalUs, trace[i - 1].arrivalUs);
    EXPECT_EQ(serve::formatTrace(serve::syntheticTrace(spec)),
              serve::formatTrace(trace));
}

TEST(ServeTrace, RejectsInvalidBurstKnobs)
{
    TraceSpec mmpp;
    mmpp.process = ArrivalProcess::Mmpp;
    mmpp.burstRateMultiplier = 0.5;
    EXPECT_DEATH(serve::syntheticTrace(mmpp), "must be >= 1");

    TraceSpec dwell;
    dwell.process = ArrivalProcess::Mmpp;
    dwell.meanBurstUs = 0.0;
    EXPECT_DEATH(serve::syntheticTrace(dwell),
                 "dwell time means must be positive");

    TraceSpec diurnal;
    diurnal.diurnalPeriodUs = 1000.0;
    diurnal.diurnalAmplitude = 1.0;
    EXPECT_DEATH(serve::syntheticTrace(diurnal),
                 "amplitude must lie in \\[0, 1\\)");

    TraceSpec flash;
    flash.flashDurationUs = 100.0;
    flash.flashMultiplier = 0.0;
    EXPECT_DEATH(serve::syntheticTrace(flash),
                 "flash crowd multiplier must be >= 1");

    // An arrival clock that overflows is an error, not a trace of
    // infinite arrivals that the parser would then reject.
    TraceSpec gap;
    gap.requests = 5;
    gap.meanGapUs = 1e308;
    EXPECT_DEATH(serve::syntheticTrace(gap),
                 "arrival clock overflowed at request [0-9]+: mean "
                 "inter-arrival gap 1e\\+308 us");
    gap.diurnalPeriodUs = 1000.0;
    gap.diurnalAmplitude = 0.5;
    EXPECT_DEATH(serve::syntheticTrace(gap), "arrival clock overflowed");

    // The MMPP chain flips about gap / dwell times per arrival, so a
    // gap far beyond the dwell means is rejected up front instead of
    // walking the chain for hours (ASSERT: without the check, the
    // death tests below would hang rather than fail).
    TraceSpec longGap;
    longGap.requests = 10;
    longGap.process = ArrivalProcess::Mmpp;
    longGap.meanGapUs = 1e17;
    ASSERT_NE(longGap.error(), "");
    EXPECT_DEATH(serve::syntheticTrace(longGap),
                 "flips per request scale with that ratio");
    TraceSpec shortDwell;
    shortDwell.requests = 10;
    shortDwell.process = ArrivalProcess::Mmpp;
    shortDwell.meanBurstUs = 1e-6;
    shortDwell.meanCalmUs = 1e-6;
    ASSERT_NE(shortDwell.error(), "");
    EXPECT_DEATH(serve::syntheticTrace(shortDwell),
                 "over the shorter MMPP dwell mean 1e-06 us exceeds 1024");
    // The bound is inclusive, and a Poisson spec ignores its dormant
    // dwell knobs.
    shortDwell.meanGapUs = serve::kMaxGapPerDwell * 1e-6;
    EXPECT_EQ(shortDwell.error(), "");
    shortDwell.meanGapUs = 5000.0;
    shortDwell.process = ArrivalProcess::Poisson;
    EXPECT_EQ(shortDwell.error(), "");
}

TEST(ServeTrace, PeakFactorIsBounded)
{
    // Thinning draws candidates at the peak rate, so generation cost
    // scales with the peak factor even when a flash window never
    // fires: burst 1e3 with a never-active 1e3 flash is rejected.
    TraceSpec spec;
    spec.requests = 200;
    spec.process = ArrivalProcess::Mmpp;
    spec.burstRateMultiplier = 1e3;
    spec.flashStartUs = 1e18;
    spec.flashDurationUs = 1.0;
    spec.flashMultiplier = 1e3;
    EXPECT_EQ(spec.peakFactor(), 1e6);
    EXPECT_DEATH(serve::syntheticTrace(spec),
                 "draws per request scale with the peak factor");

    spec.flashDurationUs = 0.0;
    spec.burstRateMultiplier = serve::kMaxPeakFactor;
    EXPECT_EQ(spec.error(), "");
    spec.burstRateMultiplier = serve::kMaxPeakFactor * 1.001;
    EXPECT_NE(spec.error(), "");

    // 99, the largest factor any test, CI step or golden uses, runs.
    spec.burstRateMultiplier = 99.0;
    EXPECT_EQ(serve::syntheticTrace(spec).size(), 200u);
}

TEST(ServeTrace, TenThousandRequestsRoundTripExactly)
{
    // The shortest-round-trip format must reproduce every double
    // bit-for-bit through format -> parse, and reformatting the
    // parsed trace must be byte-identical.
    TraceSpec spec;
    spec.seed = 77;
    spec.requests = 10000;
    spec.meanGapUs = 333.3;
    spec.deadlineSlackUs = 12345.6789;
    spec.process = ArrivalProcess::Mmpp;
    spec.burstRateMultiplier = 5.0;

    const auto trace = serve::syntheticTrace(spec);
    ASSERT_EQ(trace.size(), 10000u);
    const std::string text = serve::formatTrace(trace);
    const auto parsed = serve::parseTrace(text);
    ASSERT_EQ(parsed.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(parsed[i].network, trace[i].network);
        EXPECT_EQ(parsed[i].samples, trace[i].samples);
        EXPECT_EQ(parsed[i].arrivalUs, trace[i].arrivalUs);
        EXPECT_EQ(parsed[i].deadlineUs, trace[i].deadlineUs);
    }
    EXPECT_EQ(serve::formatTrace(parsed), text);
}

// --------------------------------------------- active-window throughput

TEST(ServeWindow, ActiveWindowDropsTheLeadingIdleTime)
{
    // Same trace, offset one second: the virtual-time-0 definition
    // dilutes throughput with the idle lead-in; the active window
    // does not.
    const std::vector<InferenceRequest> trace = {
        req(0, "netA", 1, 1000000.0),
        req(1, "netA", 1, 1000050.0),
    };

    ArtifactCache cacheOff, cacheOn;
    ServeOptions off;
    ServingEngine plain = tinyEngine(cacheOff, off);
    ServeOptions on = off;
    on.activeWindowStats = true;
    ServingEngine windowed = tinyEngine(cacheOn, on);

    const ServeReport whole = checked(plain.run(trace));
    const ServeReport active = checked(windowed.run(trace));
    EXPECT_FALSE(whole.activeWindow);
    EXPECT_TRUE(active.activeWindow);
    EXPECT_DOUBLE_EQ(whole.throughputWindowUs(), whole.makespanUs);
    EXPECT_DOUBLE_EQ(active.firstArrivalUs, 1000000.0);
    EXPECT_DOUBLE_EQ(active.throughputWindowUs(),
                     active.makespanUs - 1000000.0);
    EXPECT_GT(active.requestsPerSec(), whole.requestsPerSec());
    // The gate keeps the default report format untouched.
    EXPECT_EQ(whole.json().find("active_window"), std::string::npos);
    EXPECT_NE(active.json().find("\"active_window_us\""),
              std::string::npos);
}

// ------------------------------------------------- contended goldens

std::string
readGolden(const char *name)
{
    std::ifstream in(std::string(BITFUSION_SOURCE_DIR) +
                     "/tests/golden/" + name);
    EXPECT_TRUE(in.good()) << name;
    std::stringstream text;
    text << in.rdbuf();
    std::string expected = text.str();
    EXPECT_FALSE(expected.empty()) << name;
    if (!expected.empty() && expected.back() == '\n')
        expected.pop_back(); // the CLI appends one newline
    return expected;
}

TEST(ServeParity, EdfContendedReportMatchesTheGolden)
{
    // The exact workload behind tests/golden/serve_edf_contended.json
    // (bitfusion_serve --replicas 2 --scheduler edf --requests 400
    // --seed 13 --mean-gap-us 300 --deadline-us 15000 --per-request):
    // locks the queue-compaction and interning rewrite as
    // behavior-preserving under contention.
    TraceSpec traceSpec;
    traceSpec.seed = 13;
    traceSpec.requests = 400;
    traceSpec.meanGapUs = 300.0;
    traceSpec.deadlineSlackUs = 15000.0;

    // A private cache reproduces the CLI's cold process: the
    // report's compile/hit counters are part of the golden.
    ArtifactCache cache;
    ServeOptions opts;
    opts.cache = &cache;
    opts.threads = 1;
    opts.replicas = 2;
    opts.scheduler = "edf";
    ServingEngine engine(PlatformRegistry::builtin().parse("bitfusion"),
                         opts);
    const ServeReport report =
        checked(engine.run(serve::syntheticTrace(traceSpec)));
    EXPECT_EQ(report.json(true), readGolden("serve_edf_contended.json"));
}

TEST(ServeParity, LookaheadContendedReportMatchesTheGolden)
{
    // tests/golden/serve_lookahead_contended.json: --replicas 2
    // --scheduler lookahead --max-wait-us 800 --requests 400
    // --seed 13 --mean-gap-us 300 --per-request.
    TraceSpec traceSpec;
    traceSpec.seed = 13;
    traceSpec.requests = 400;
    traceSpec.meanGapUs = 300.0;

    ArtifactCache cache;
    ServeOptions opts;
    opts.cache = &cache;
    opts.threads = 1;
    opts.replicas = 2;
    opts.scheduler = "lookahead";
    opts.maxWaitUs = 800.0;
    ServingEngine engine(PlatformRegistry::builtin().parse("bitfusion"),
                         opts);
    const ServeReport report =
        checked(engine.run(serve::syntheticTrace(traceSpec)));
    EXPECT_EQ(report.json(true),
              readGolden("serve_lookahead_contended.json"));
}

// ------------------------------------------------- closed-loop chaos

/**
 * The exact workload behind tests/golden/serve_chaos_closed.json:
 * bitfusion_serve --fleet bitfusion,bitfusion:16nm,mxu,dadiannao
 * --closed-loop 32 --requests 800 --scheduler edf --deadline-us 20000
 * --shed-unmeetable --switch-penalty-us 200
 * --fail-rack 1@50000:for=100000 --rack-size 2 --mtbf-us 400000
 * --mttr-us 20000 --fault-seed 1 --retry-max 4 --retry-backoff-us 500
 * --retry-jitter 0.25 --hedge-p99-x 2 --seed 1 --per-request. Every
 * request is issued from the closed loop's reissue path, through
 * faults, retries, hedges, sheds and network switches.
 */
ServeReport
serveChaosClosed(bool retainRecords)
{
    ArtifactCache cache; // a cold process, as the CLI's counters saw
    ServeOptions opts;
    opts.cache = &cache;
    opts.threads = 1;
    opts.retainRecords = retainRecords;
    opts.scheduler = "edf";
    opts.shedUnmeetable = true;
    opts.switchPenaltyUs = 200.0;
    opts.faults.rackEvents.push_back(
        serve::parseFaultEvent("1@50000:for=100000", "--fail-rack"));
    opts.faults.rackSize = 2;
    opts.faults.mtbfUs = 400000.0;
    opts.faults.mttrUs = 20000.0;
    opts.faults.seed = 1;
    opts.retry.maxAttempts = 4;
    opts.retry.backoffBaseUs = 500.0;
    opts.retry.jitterFrac = 0.25;
    opts.retry.hedgeP99Multiplier = 2.0;
    const char *fleet = "bitfusion,bitfusion:16nm,mxu,dadiannao";
    ServingEngine engine(PlatformRegistry::builtin().parseFleet(fleet), opts);

    serve::ClosedLoopSpec load;
    load.clients = 32;
    load.requests = 800;
    load.seed = 1;
    load.deadlineSlackUs = 20000.0;
    return checked(engine.runClosedLoop(load));
}

TEST(ServeParity, ClosedLoopChaosReportMatchesTheGolden)
{
    const ServeReport report = serveChaosClosed(true);
    // The golden locks every fault-era path, not a quiet run.
    EXPECT_GT(report.requestLossEvents, 0u);
    EXPECT_GT(report.retriesIssued, 0u);
    EXPECT_GT(report.hedgesIssued, 0u);
    EXPECT_GT(report.shedRequests, 0u);
    EXPECT_GT(report.networkSwitches, 0u);
    EXPECT_EQ(report.json(true), readGolden("serve_chaos_closed.json"));
}

TEST(ServeParity, RecordRetentionNeverChangesOutcomes)
{
    // Records are built on a side path of completion; the closed
    // loop's reissues and an overloaded open-loop EDF day must come
    // out the same whether or not they are kept.
    EXPECT_EQ(serveChaosClosed(true).json(false),
              serveChaosClosed(false).json(false));

    TraceSpec traceSpec;
    traceSpec.seed = 3;
    traceSpec.requests = 20000;
    traceSpec.meanGapUs = 200.0;
    traceSpec.deadlineSlackUs = 20000.0;
    const std::vector<InferenceRequest> trace =
        serve::syntheticTrace(traceSpec);
    const auto serveOverload = [&trace](bool retainRecords) {
        ArtifactCache cache;
        ServeOptions opts;
        opts.cache = &cache;
        opts.threads = 1;
        opts.replicas = 8;
        opts.scheduler = "edf";
        opts.retainRecords = retainRecords;
        ServingEngine engine(PlatformRegistry::builtin().parse("bitfusion"),
                             opts);
        return checked(engine.run(trace));
    };
    const ServeReport kept = serveOverload(true);
    const ServeReport dropped = serveOverload(false);
    EXPECT_GT(kept.deadlineMisses, traceSpec.requests / 2); // overloaded
    EXPECT_EQ(kept.requests.size(), traceSpec.requests);
    EXPECT_TRUE(dropped.requests.empty());
    EXPECT_EQ(kept.json(false), dropped.json(false));
}

TEST(ServeInvariants, NamesEveryBrokenLedgerIdentity)
{
    const ServeReport good = serveChaosClosed(true);
    ASSERT_EQ(good.checkInvariants(), "");
    ASSERT_EQ(good.replicas.size(), 4u);
    std::size_t onTime = 0;
    while (onTime < good.requests.size() &&
           good.requests[onTime].deadlineMissed)
        ++onTime;
    ASSERT_LT(onTime, good.requests.size());

    // One hand-broken copy per identity; the check must name it.
    const auto expectNamed = [](const ServeReport &report,
                                const std::string &identity) {
        const std::string what = report.checkInvariants();
        EXPECT_NE(what.find(identity), std::string::npos)
            << "'" << what << "' does not name '" << identity << "'";
    };
    ServeReport batches = good;
    batches.replicas[0].batches += 1;
    expectNamed(batches, "replica batches");
    ServeReport samples = good;
    samples.replicas[1].samples += 1;
    expectNamed(samples, "replica samples");
    ServeReport energy = good;
    energy.replicas[2].energyJ *= 1.001;
    expectNamed(energy, "replica energy");
    ServeReport down = good;
    down.replicas[3].downUs = down.makespanUs;
    expectNamed(down, "replica 3 busy + down > makespan");
    ServeReport early = good;
    early.requests[onTime].dispatchUs =
        early.requests[onTime].request.arrivalUs - 1.0;
    expectNamed(early, "dispatched before its arrival");
    ServeReport reversed = good;
    reversed.requests[onTime].finishUs =
        reversed.requests[onTime].dispatchUs - 1.0;
    expectNamed(reversed, "finished before its dispatch");
    ServeReport flipped = good;
    flipped.requests[onTime].deadlineMissed = true;
    expectNamed(flipped, "deadlineMissed disagrees");

    // A second batch started on replica r while its first still ran.
    ServeReport overlap = good;
    const unsigned r = overlap.batches.at(0).replica;
    std::size_t later = 1;
    while (later < overlap.batches.size() &&
           overlap.batches[later].replica != r)
        ++later;
    ASSERT_LT(later, overlap.batches.size());
    overlap.batches[later].dispatchUs =
        overlap.batches[0].dispatchUs + 0.5 * overlap.batches[0].latencyUs;
    expectNamed(overlap,
                "replica " + std::to_string(r) + " runs two batches at once");
}

} // namespace
} // namespace bitfusion
