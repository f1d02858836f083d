/**
 * @file
 * bfbench: one repetition of one benchmark workload.
 *
 *   bfbench gen --workload W --seed S --dir DIR
 *   bfbench run --workload W --seed S --threads T --dir DIR
 *               --result FILE [--trace FILE]
 *
 * `gen` writes the workload's input files (request traces) into DIR.
 * `run` performs the workload once through the library's public calls
 * -- the ones the bitfusion_sweep and bitfusion_serve mains make --
 * writes its outputs (reports, JSON dumps) into DIR and stdout, and
 * writes one JSON result to FILE: host times, peak memory, the
 * virtual-clock digest run.py checks, and per-layer counts. With
 * --trace it also records host-time spans (tracing.h), adds their
 * per-layer breakdown to the result, and writes them to the given
 * path as Chrome Trace Event JSON at exit.
 *
 * run.py drives this binary; see README.md in this directory.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/tracing.h"
#include "src/common/json.h"
#include "src/common/prng.h"
#include "src/core/artifact_cache.h"
#include "src/runner/figures.h"
#include "src/serve/serving_engine.h"

namespace {

using namespace bitfusion;
using namespace bitfusion::serve;
using perfbench::Clock;
using perfbench::Scope;
using perfbench::secondsSince;

// Workload sizes. The scaling probe of every workload runs its main
// layer at n and at 2n; these are the 2n sizes.
constexpr std::size_t kOverloadRequests = 40000;
constexpr std::size_t kChaosRequests = 500000;
const char *const kChaosFleet = "bitfusion,bitfusion:16nm,mxu,dadiannao";

struct Args
{
    std::string command;
    std::string workload;
    std::uint64_t seed = 1;
    unsigned threads = 1;
    std::string dir;
    std::string result;
    std::string trace;
};

/** Host seconds @p fn takes. */
template <typename Fn>
double
timed(Fn &&fn)
{
    const Clock::time_point t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

/** What one repetition measured besides its spans. */
struct Rep
{
    explicit Rep(Clock::time_point start) : start(start) {}

    /** Call right before the first call into the main layer. */
    void
    markSetup()
    {
        if (setupS < 0.0)
            setupS = secondsSince(start);
    }

    /** Call when the workload's work is done; digests come after. */
    void markDone() { wallS = secondsSince(start); }

    /**
     * Host ns per request over both main-layer runs, of @p n and
     * @p n2 requests: twice the timed work of the 2n run alone.
     */
    void
    setNsPerReq(std::size_t n, std::size_t n2)
    {
        nsPerReq = (runNS + run2NS) * 1e9 / static_cast<double>(n + n2);
    }

    Clock::time_point start;
    double setupS = -1.0;
    double wallS = 0.0;
    /** Main-layer host time at size n and 2n (the scaling probe). */
    double runNS = 0.0;
    double run2NS = 0.0;
    /** Host ns of the main layer per request (or sweep cell). */
    double nsPerReq = 0.0;
    json::Value digest = json::Value::object();
    json::Value counts = json::Value::object();
};

std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** 64-bit FNV-1a over the lines of a digest. */
class Fnv
{
  public:
    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            hash_ ^= c;
            hash_ *= 1099511628211ULL;
        }
    }

    std::string
    hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    std::uint64_t hash_ = 1469598103934665603ULL;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "bfbench: cannot read %s\n", path.c_str());
        std::exit(1);
    }
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out) {
        std::fprintf(stderr, "bfbench: cannot write %s\n", path.c_str());
        std::exit(1);
    }
}

json::Value
count(std::size_t v)
{
    return json::Value(static_cast<std::uint64_t>(v));
}

/** Share of the process artifact cache's lookups served as hits. */
double
cacheHitRatio()
{
    const ArtifactCache &cache = ArtifactCache::process();
    const double hits = static_cast<double>(cache.hitCount());
    const double lookups =
        hits + static_cast<double>(cache.compileCount());
    return lookups > 0.0 ? hits / lookups : 0.0;
}

// ------------------------------------------------------------- sweeps

/** Append every cell's cycles and energy to the digest hash. */
void
hashCells(Fnv &fnv, const SweepResult &result)
{
    for (const SweepCellResult &c : result.cells()) {
        fnv.add(result.name() + "|" + c.platform + "|" + c.network + "|" +
                std::to_string(c.batch) + "|" +
                std::to_string(c.stats.totalCycles) + "|" +
                exact(c.stats.energy().totalJ()) + "\n");
    }
}

/**
 * The dse grid with its network axis doubled by renamed copies: twice
 * the cells and twice the distinct compilations of the plain grid.
 */
SweepSpec
doubledNetworks(SweepSpec spec)
{
    const std::size_t n = spec.networks.size();
    for (std::size_t i = 0; i < n; ++i) {
        const SweepNetwork &net = spec.networks[i];
        SweepNetwork copy;
        copy.name = net.name + "#2";
        copy.quantized =
            Network(net.quantized.name() + "#2", net.quantized.layers());
        copy.baseline =
            Network(net.baseline.name() + "#2", net.baseline.layers());
        spec.networks.push_back(std::move(copy));
    }
    spec.name += "x2";
    return spec;
}

/**
 * bitfusion_sweep --all --json, with the grid figures in a seeded
 * order, then the scaling probe: the dse grid at n and 2n networks,
 * each from a cleared artifact cache.
 */
void
sweepAll(const Args &args, Rep &rep, bool traced)
{
    const std::vector<figures::Figure> &figs = figures::all();
    figures::FigureOptions options;
    options.threads = args.threads;
    const SweepRunner runner({args.threads, TimingModel::Simple});

    std::vector<SweepSpec> specs(figs.size());
    for (std::size_t i = 0; i < figs.size(); ++i) {
        Scope span("runner.spec");
        specs[i] = figs[i].spec();
        if (traced)
            perfbench::useTracedKinds(specs[i].platforms);
    }
    std::vector<std::size_t> grids, statics;
    for (std::size_t i = 0; i < figs.size(); ++i)
        (specs[i].platforms.empty() ? statics : grids).push_back(i);
    Prng prng(args.seed);
    for (std::size_t i = grids.size(); i > 1; --i)
        std::swap(grids[i - 1], grids[prng.below(i)]);

    std::vector<SweepResult> results(figs.size());
    std::size_t cells = 0;
    double sweepS = 0.0;
    for (std::size_t i : grids) {
        {
            Scope span("runner.expand");
            cells += SweepRunner::expand(specs[i]).size();
        }
        rep.markSetup();
        sweepS += timed([&] {
            Scope span("runner.sweep");
            results[i] = runner.run(specs[i]);
        });
        {
            Scope span("runner.report");
            figs[i].report(results[i], options);
            std::printf("\n");
        }
        Scope span("runner.json");
        writeFile(args.dir + "/sweep." + figs[i].id + ".json",
                  results[i].json() + "\n");
    }
    for (std::size_t i : statics) {
        Scope span("runner.report");
        figs[i].report(results[i], options);
        std::printf("\n");
    }
    std::fflush(stdout);
    // Read before the probe clears the cache.
    const double hitRatio = cacheHitRatio();

    const SweepSpec &probeN =
        specs[static_cast<std::size_t>(figures::find("dse") - figs.data())];
    SweepSpec probe2N;
    {
        Scope span("bench.input");
        probe2N = doubledNetworks(probeN);
    }
    const SweepSpec *probeSpecs[2] = {&probeN, &probe2N};
    SweepResult probe[2];
    for (int k = 0; k < 2; ++k) {
        ArtifactCache::process().clear();
        (k == 0 ? rep.runNS : rep.run2NS) = timed([&] {
            Scope span("runner.sweep");
            probe[k] = runner.run(*probeSpecs[k]);
        });
    }
    rep.markDone();
    rep.nsPerReq = sweepS * 1e9 / static_cast<double>(cells);

    // Grid order is seeded; the hash follows registry order.
    Fnv gridHash, probeHash;
    std::uint64_t gridCompiles = 0;
    for (std::size_t i = 0; i < figs.size(); ++i) {
        hashCells(gridHash, results[i]);
        gridCompiles += results[i].compileCount();
    }
    hashCells(probeHash, probe[0]);
    hashCells(probeHash, probe[1]);
    const std::size_t probeCells =
        probe[0].cells().size() + probe[1].cells().size();
    rep.digest.set("cells", count(cells))
        .set("grids", count(grids.size()))
        .set("grid_compiles", gridCompiles)
        .set("cells_hash", gridHash.hex())
        .set("probe_cells", count(probeCells))
        .set("probe_hash", probeHash.hex());
    rep.counts.set("runner.cells", count(cells + probeCells))
        .set("core.cache_hit_ratio", hitRatio);
}

// ------------------------------------------------------------ serving

/** The virtual-clock facts of one serving run that the check locks. */
json::Value
serveDigest(const ServeReport &r, std::size_t offered)
{
    return json::Value::object()
        .set("issued", count(offered))
        .set("engine_issued", count(r.requestsIssued))
        .set("served", count(r.requestCount))
        .set("shed", count(r.shedRequests))
        .set("abandoned", count(r.requestsAbandoned))
        .set("misses", count(r.deadlineMisses))
        .set("batches", count(r.batchCount))
        .set("p99_us", exact(r.latencyUs().p99))
        .set("energy_j", exact(r.energyJ))
        .set("switches", count(r.networkSwitches))
        .set("hedges_issued", count(r.hedgesIssued))
        .set("hedges_won", count(r.hedgesWon))
        .set("hedges_cancelled", count(r.hedgesCancelled))
        .set("hedges_lost", count(r.hedgesLost));
}

/** Per-layer counts of the workload's main (2n) serving run. */
void
serveCounts(json::Value &counts, const ServeReport &r, std::size_t offered)
{
    double busyUs = 0.0, wastedUs = 0.0;
    for (const ReplicaUsage &u : r.replicas) {
        busyUs += u.busyUs;
        wastedUs += u.wastedUs;
    }
    counts.set("serve.batches", count(r.batchCount))
        .set("serve.batch_fill", r.batchFill())
        .set("serve.shed", count(r.shedRequests))
        .set("serve.deadline_misses", count(r.deadlineMisses))
        .set("serve.network_switches", count(r.networkSwitches))
        .set("serve.distinct_shapes", count(r.distinctBatchShapes))
        .set("serve.goodput", static_cast<double>(r.requestCount) /
                                  static_cast<double>(offered))
        .set("serve.compiles", count(r.compiles))
        .set("serve.cache_hits", count(r.cacheHits))
        .set("faults.lost_batches", count(r.lostBatches))
        .set("faults.retries", count(r.retriesIssued))
        .set("faults.hedges_issued", count(r.hedgesIssued))
        .set("faults.hedge_win_ratio",
             r.hedgesIssued > 0 ? static_cast<double>(r.hedgesWon) /
                                      static_cast<double>(r.hedgesIssued)
                                : 0.0)
        .set("faults.wasted_ratio",
             busyUs > 0.0 ? wastedUs / busyUs : 0.0)
        .set("core.cache_hit_ratio", cacheHitRatio());
}

/**
 * Build an engine, serve @p offered requests through @p serve, and
 * write the report JSON to DIR/<label>.json. Returns the report and
 * the host time of the serve call alone.
 */
ServeReport
serveOnce(const Args &args, Rep &rep, const std::string &label,
          const std::vector<PlatformSpec> &fleet, const ServeOptions &opts,
          std::size_t offered,
          const std::function<ServeReport(ServingEngine &)> &serve,
          double &runS)
{
    std::unique_ptr<ServingEngine> engine;
    {
        Scope span("serve.engine.ctor");
        engine = std::make_unique<ServingEngine>(fleet, opts);
    }
    rep.markSetup();
    ServeReport report;
    runS = timed([&] {
        Scope span("serve.engine.run");
        report = serve(*engine);
    });
    {
        Scope span("serve.report.json");
        writeFile(args.dir + "/" + label + ".json", report.json() + "\n");
    }
    rep.digest.set(label, serveDigest(report, offered));
    return report;
}

std::vector<InferenceRequest>
parseTraceFile(const std::string &path)
{
    Scope span("serve.trace.parse");
    return parseTrace(readFile(path), path);
}

std::vector<InferenceRequest>
firstHalf(const std::vector<InferenceRequest> &trace)
{
    Scope span("bench.input");
    return {trace.begin(),
            trace.begin() + static_cast<std::ptrdiff_t>(trace.size() / 2)};
}

std::function<ServeReport(ServingEngine &)>
openLoop(const std::vector<InferenceRequest> &trace)
{
    return [&trace](ServingEngine &e) { return e.run(trace); };
}

std::vector<PlatformSpec>
fleetOf(const std::string &csv, bool traced)
{
    std::vector<PlatformSpec> fleet =
        PlatformRegistry::builtin().parseFleet(csv);
    if (traced)
        perfbench::useTracedKinds(fleet);
    return fleet;
}

/** Deadlined arrivals far above an eight-replica fleet's capacity. */
TraceSpec
overloadTrace(std::uint64_t seed)
{
    TraceSpec spec;
    spec.seed = seed;
    spec.requests = kOverloadRequests;
    spec.meanGapUs = 200.0;
    spec.deadlineSlackUs = 20000.0;
    return spec;
}

void
serveOverloadEdf(const Args &args, Rep &rep, bool traced)
{
    const std::vector<InferenceRequest> trace =
        parseTraceFile(args.dir + "/overload.trace");
    const std::vector<InferenceRequest> half = firstHalf(trace);
    ServeOptions opts;
    opts.threads = args.threads;
    opts.replicas = 8;
    opts.scheduler = "edf";
    opts.streamingStats = true;
    opts.retainRecords = false;
    const auto fleet = fleetOf("bitfusion", traced);
    serveOnce(args, rep, "edf_n", fleet, opts, half.size(), openLoop(half),
              rep.runNS);
    const ServeReport report =
        serveOnce(args, rep, "edf_2n", fleet, opts, trace.size(),
                  openLoop(trace), rep.run2NS);
    opts.scheduler = "fifo";
    double fifoS = 0.0;
    serveOnce(args, rep, "fifo_2n", fleet, opts, trace.size(),
              openLoop(trace), fifoS);
    rep.markDone();
    serveCounts(rep.counts, report, trace.size());
    rep.counts.set("scheduler.edf_n_s", rep.runNS)
        .set("scheduler.edf_2n_s", rep.run2NS)
        .set("scheduler.fifo_2n_s", fifoS)
        .set("scheduler.edf_over_fifo", rep.run2NS / fifoS);
    rep.setNsPerReq(half.size(), trace.size());
}

/**
 * Closed-loop clients on a four-kind fleet with a switch penalty, a
 * rack outage plus seeded MTBF/MTTR churn, retries, p99 hedging and
 * unmeetable-deadline shedding.
 */
void
serveChaosClosed(const Args &args, Rep &rep, bool traced)
{
    ServeOptions opts;
    opts.threads = args.threads;
    opts.scheduler = "edf";
    opts.streamingStats = true;
    opts.retainRecords = false;
    opts.shedUnmeetable = true;
    opts.switchPenaltyUs = 200.0;
    opts.faults.seed = args.seed;
    opts.faults.rackSize = 2;
    opts.faults.rackEvents.push_back({1, 50000.0, 100000.0});
    opts.faults.mtbfUs = 400000.0;
    opts.faults.mttrUs = 20000.0;
    opts.retry.maxAttempts = 4;
    opts.retry.backoffBaseUs = 500.0;
    opts.retry.jitterFrac = 0.25;
    opts.retry.hedgeP99Multiplier = 2.0;
    const auto fleet = fleetOf(kChaosFleet, traced);

    ClosedLoopSpec spec;
    spec.clients = 32;
    spec.seed = args.seed;
    spec.deadlineSlackUs = 20000.0;
    const auto closedLoop = [&spec](ServingEngine &e) {
        return e.runClosedLoop(spec);
    };
    spec.requests = kChaosRequests / 2;
    serveOnce(args, rep, "closed_n", fleet, opts, spec.requests, closedLoop,
              rep.runNS);
    spec.requests = kChaosRequests;
    const ServeReport report =
        serveOnce(args, rep, "closed_2n", fleet, opts, spec.requests,
                  closedLoop, rep.run2NS);
    rep.markDone();
    serveCounts(rep.counts, report, spec.requests);
    rep.setNsPerReq(kChaosRequests / 2, kChaosRequests);
}

// --------------------------------------------------------------- main

int
usage()
{
    std::fprintf(stderr,
                 "usage: bfbench gen --workload W --seed S --dir DIR\n"
                 "       bfbench run --workload W --seed S --threads T "
                 "--dir DIR --result FILE [--trace FILE]\n"
                 "workloads: sweep_all serve_overload_edf "
                 "serve_chaos_closed\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    if (argc < 2)
        return false;
    args.command = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                return false;
        } else if (flag == "--threads") {
            const unsigned long t = std::strtoul(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0' || t == 0 || t > 1024)
                return false;
            args.threads = static_cast<unsigned>(t);
        } else if (flag == "--dir") {
            args.dir = value;
        } else if (flag == "--result") {
            args.result = value;
        } else if (flag == "--trace") {
            args.trace = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 0 && !args.workload.empty() && !args.dir.empty() &&
           (args.command == "gen" ||
            (args.command == "run" && !args.result.empty()));
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point start = Clock::now();
    Args args;
    if (!parseArgs(argc, argv, args))
        return usage();

    using Workload = void (*)(const Args &, Rep &, bool);
    Workload workload = nullptr;
    if (args.workload == "sweep_all")
        workload = sweepAll;
    else if (args.workload == "serve_overload_edf")
        workload = serveOverloadEdf;
    else if (args.workload == "serve_chaos_closed")
        workload = serveChaosClosed;
    else
        return usage();

    if (args.command == "gen") {
        if (args.workload == "serve_overload_edf") {
            writeFile(args.dir + "/overload.trace",
                      formatTrace(syntheticTrace(overloadTrace(args.seed))));
        }
        return 0;
    }

    const bool traced = !args.trace.empty();
    if (traced) {
        perfbench::Tracer::instance().enable(start);
        perfbench::registerTracedKinds();
    }
    Rep rep(start);
    workload(args, rep, traced);

    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    json::Value result = json::Value::object();
    result.set("workload", args.workload)
        .set("seed", args.seed)
        .set("threads", args.threads)
        .set("traced", traced)
        .set("wall_s", rep.wallS)
        .set("setup_s", rep.setupS)
        .set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
        .set("run_n_s", rep.runNS)
        .set("run_2n_s", rep.run2NS)
        .set("ns_per_req", rep.nsPerReq)
        .set("digest", std::move(rep.digest))
        .set("counts", std::move(rep.counts));
    if (traced) {
        const auto &spans = perfbench::Tracer::instance().spans();
        const perfbench::Breakdown b = perfbench::breakdown(spans);
        json::Value layers = json::Value::object();
        for (const auto &[name, t] : b.layers) {
            layers.set(name, json::Value::object()
                                 .set("spans", count(t.spans))
                                 .set("total_s", t.totalS)
                                 .set("self_s", t.selfS)
                                 .set("wall_s", t.wallS));
        }
        result.set("covered_s", b.coveredS).set("layers", std::move(layers));
        writeFile(args.trace, perfbench::chromeTrace(spans) + "\n");
    }
    writeFile(args.result, result.dump(1) + "\n");
    return 0;
}
