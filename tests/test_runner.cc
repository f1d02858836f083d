/**
 * @file
 * Sweep-runner tests: grid expansion, compiled-network cache
 * behavior, determinism across thread counts, result lookup, and
 * the JSON output shape.
 */

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/compiler/codegen.h"
#include "src/core/artifact_cache.h"
#include "src/dnn/model_zoo.h"
#include "src/runner/figures.h"
#include "src/baselines/eyeriss.h"
#include "src/runner/sweep.h"
#include "src/sim/bitfusion_platform.h"

namespace bitfusion {
namespace {

/**
 * Sweep options with a caller-owned artifact cache, so each test's
 * hit/miss accounting is isolated from the process-level cache the
 * other tests (and the serving engine) share.
 */
SweepOptions
isolated(unsigned threads, ArtifactCache &cache)
{
    SweepOptions opts;
    opts.threads = threads;
    opts.cache = &cache;
    return opts;
}

/** Small two-layer network so sweeps stay fast. */
Network
tinyNet(const std::string &name, unsigned out_c)
{
    Network net(name, {});
    net.add(Layer::fc("fc1", 64, out_c, zoo::cfg8x8()));
    net.add(Layer::fc("fc2", out_c, 16, zoo::cfg4x4()));
    return net;
}

/** Sweep row whose quantized and baseline variants coincide. */
zoo::Benchmark
tinyBench(const std::string &name, unsigned out_c)
{
    const Network net = tinyNet(name, out_c);
    return {name, net, net};
}

SweepSpec
tinySpec(std::vector<unsigned> batches = {})
{
    SweepSpec spec;
    spec.name = "tiny";
    spec.platforms = {
        bitfusionPlatform(AcceleratorConfig::eyerissMatched45(), "bf-a"),
        bitfusionPlatform(AcceleratorConfig::stripesTileMatched45(), "bf-b"),
        eyerissPlatform(),
    };
    spec.networks = {tinyBench("net64", 64), tinyBench("net128", 128)};
    spec.batches = std::move(batches);
    return spec;
}

TEST(SweepGrid, ExpansionIsPlatformMajor)
{
    const SweepSpec spec = tinySpec();
    const auto cells = SweepRunner::expand(spec);
    ASSERT_EQ(cells.size(), spec.cellCount());
    ASSERT_EQ(cells.size(), 3u * 2u);
    // Platform-major, then network; batch 0 = platform default.
    EXPECT_EQ(cells[0].platformIndex, 0u);
    EXPECT_EQ(cells[0].networkIndex, 0u);
    EXPECT_EQ(cells[0].batch, 0u);
    EXPECT_EQ(cells[1].platformIndex, 0u);
    EXPECT_EQ(cells[1].networkIndex, 1u);
    EXPECT_EQ(cells[5].platformIndex, 2u);
    EXPECT_EQ(cells[5].networkIndex, 1u);
}

TEST(SweepGrid, BatchOverridesMultiplyTheGrid)
{
    const SweepSpec spec = tinySpec({1, 8, 32});
    const auto cells = SweepRunner::expand(spec);
    ASSERT_EQ(cells.size(), 3u * 2u * 3u);
    // Batch is the innermost dimension.
    EXPECT_EQ(cells[0].batch, 1u);
    EXPECT_EQ(cells[1].batch, 8u);
    EXPECT_EQ(cells[2].batch, 32u);
    EXPECT_EQ(cells[3].networkIndex, 1u);
    EXPECT_EQ(cells[3].batch, 1u);
}

TEST(SweepCache, OneCompilePerDistinctConfigNetworkBatch)
{
    // Two platforms differing only in bandwidth/frequency share
    // compiled networks: the compile key covers exactly what the
    // Compiler consumes.
    SweepSpec spec;
    spec.name = "cache";
    AcceleratorConfig a = AcceleratorConfig::eyerissMatched45();
    AcceleratorConfig b = a;
    b.bwBitsPerCycle = 512;
    b.freqMHz = 980.0;
    spec.platforms = {bitfusionPlatform(a, "slow"),
                      bitfusionPlatform(b, "fast")};
    spec.networks = {tinyBench("net64", 64)};

    ArtifactCache cache;
    const SweepResult result = SweepRunner(isolated(1, cache)).run(spec);
    EXPECT_EQ(result.compileCount(), 1u);
    EXPECT_EQ(result.cacheHits(), 1u);
    EXPECT_EQ(result.cells().size(), 2u);
    EXPECT_EQ(cache.compileCount(), 1u);
}

TEST(SweepCache, DistinctBatchesCompileSeparately)
{
    // cfg.batch feeds the compiler (schedule n-dimension), so each
    // batch size is its own cache entry.
    SweepSpec spec;
    spec.name = "cache-batch";
    spec.platforms = {bitfusionPlatform(
        AcceleratorConfig::eyerissMatched45(), "bf")};
    spec.networks = {tinyBench("net64", 64)};
    spec.batches = {1, 4, 16};

    ArtifactCache cache;
    const SweepResult result = SweepRunner(isolated(1, cache)).run(spec);
    EXPECT_EQ(result.compileCount(), 3u);
    EXPECT_EQ(result.cacheHits(), 0u);
}

TEST(SweepCache, JobsKeyOnCompileKeyNetworkAndVariant)
{
    // Three Bit Fusion platforms share one compile key per batch
    // ("fast" differs only in bandwidth and clock), "base" runs the
    // baseline variant, Eyeriss has no compile step, and batch 4
    // repeats. Jobs are one per (compile key, network, variant):
    // 2 batches x 2 networks x 2 variants = 8 of the 18 compiled
    // cells; the repeated batch and the shared key are hits.
    AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    AcceleratorConfig fast = cfg;
    fast.bwBitsPerCycle = 512;
    fast.freqMHz = 980.0;
    PlatformSpec base = bitfusionPlatform(cfg, "base");
    base.runsQuantized = false;
    zoo::Benchmark mixed;
    mixed.name = "mixed";
    mixed.quantized = tinyNet("mixed", 64);
    mixed.baseline = Network("mixed", {});
    mixed.baseline.add(Layer::fc("fc1", 64, 64, zoo::cfg16x16()));
    mixed.baseline.add(Layer::fc("fc2", 64, 16, zoo::cfg16x16()));

    SweepSpec spec;
    spec.name = "keys";
    spec.platforms = {bitfusionPlatform(cfg, "bf"),
                      bitfusionPlatform(fast, "fast"), base,
                      eyerissPlatform()};
    spec.networks = {mixed, tinyBench("net64", 64)};
    spec.batches = {4, 4, 16};

    ArtifactCache cache;
    const SweepResult result = SweepRunner(isolated(2, cache)).run(spec);
    EXPECT_EQ(result.compileCount(), 8u);
    EXPECT_EQ(result.cacheHits(), 10u);
    // The uniform network's two variants are one artifact.
    EXPECT_EQ(cache.compileCount(), 6u);

    ASSERT_EQ(result.cells().size(), 4u * 2u * 3u);
    std::size_t i = 0;
    for (const char *platform : {"bf", "fast", "base", "eyeriss"}) {
        for (const char *network : {"mixed", "net64"}) {
            for (unsigned batch : {4u, 4u, 16u}) {
                const SweepCellResult &c = result.cells()[i++];
                EXPECT_EQ(c.platform, platform) << i;
                EXPECT_EQ(c.network, network) << i;
                EXPECT_EQ(c.batch, batch) << i;
                EXPECT_EQ(c.stats.batch, batch) << i;
            }
        }
    }
}

TEST(SweepCache, SecondSweepReusesTheSharedCache)
{
    // The cache outlives a single run: a repeated sweep (same spec,
    // same cache) performs no new compilation -- visible on the
    // cache's own counters -- while the recorded sweep counters stay
    // a pure function of the spec and the results stay identical.
    const SweepSpec spec = tinySpec();
    ArtifactCache cache;
    const SweepResult first = SweepRunner(isolated(1, cache)).run(spec);
    EXPECT_GT(first.compileCount(), 0u);
    EXPECT_EQ(cache.compileCount(), first.compileCount());
    EXPECT_EQ(cache.hitCount(), 0u);

    const SweepResult again = SweepRunner(isolated(1, cache)).run(spec);
    EXPECT_EQ(again.compileCount(), first.compileCount());
    EXPECT_EQ(again.cacheHits(), first.cacheHits());
    EXPECT_EQ(cache.compileCount(), first.compileCount());
    EXPECT_EQ(cache.hitCount(), first.compileCount());
    ASSERT_EQ(first.cells().size(), again.cells().size());
    for (std::size_t i = 0; i < first.cells().size(); ++i) {
        EXPECT_EQ(first.cells()[i].stats.totalCycles,
                  again.cells()[i].stats.totalCycles);
    }
}

TEST(SweepCache, GeometryChangeSharesCompiledNetwork)
{
    // Tiling is buffer-driven; the array geometry only matters at
    // simulation time, so geometry variants share the cache while
    // a scratchpad change is a genuine miss.
    SweepSpec spec;
    spec.name = "cache-geom";
    AcceleratorConfig a = AcceleratorConfig::eyerissMatched45();
    AcceleratorConfig b = a;
    b.rows = 16;
    b.cols = 32;
    AcceleratorConfig c = a;
    c.wbufBits *= 2;
    spec.platforms = {bitfusionPlatform(a, "wide"),
                      bitfusionPlatform(b, "tall"),
                      bitfusionPlatform(c, "bigbuf")};
    spec.networks = {tinyBench("net64", 64)};

    ArtifactCache cache;
    const SweepResult result = SweepRunner(isolated(1, cache)).run(spec);
    EXPECT_EQ(result.compileCount(), 2u);
    EXPECT_EQ(result.cacheHits(), 1u);
    // The geometry variants still simulate differently.
    EXPECT_NE(result.stats("wide", "net64").totalCycles,
              result.stats("tall", "net64").totalCycles);
}

TEST(SweepCache, ConcurrentLookupsCompileOnce)
{
    // Racing lookups of one (platform, network) key compile once:
    // the first caller builds, the rest block on its shared future
    // and count as hits, and everyone gets the same artifact.
    const std::unique_ptr<Platform> platform =
        PlatformRegistry::builtin().build(bitfusionPlatform(
            AcceleratorConfig::eyerissMatched45(), "bf"));
    const Network net = tinyNet("net64", 64);

    ArtifactCache cache;
    constexpr unsigned kThreads = 8;
    std::vector<ArtifactCache::Outcome> outcomes(kThreads);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back(
            [&, t] { outcomes[t] = cache.get(*platform, net); });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(cache.compileCount(), 1u);
    EXPECT_EQ(cache.hitCount(), kThreads - 1);
    EXPECT_EQ(cache.size(), 1u);
    unsigned owners = 0;
    for (const auto &outcome : outcomes) {
        ASSERT_NE(outcome.artifact, nullptr);
        EXPECT_EQ(outcome.artifact, outcomes[0].artifact);
        owners += outcome.compiled ? 1 : 0;
    }
    EXPECT_EQ(owners, 1u);
}

TEST(ArtifactKey, SignednessSeparatesArtifacts)
{
    // A 4b/4b FC layer compiles to a different setup instruction when
    // only its operands' signedness changes, so the cache must not
    // hand one network the other's artifact.
    const AcceleratorConfig cfg = AcceleratorConfig::eyerissMatched45();
    const std::unique_ptr<Platform> platform =
        PlatformRegistry::builtin().build(bitfusionPlatform(cfg, "bf"));
    const auto fcNet = [](bool aSigned, bool wSigned) {
        return Network("fc", {Layer::fc("fc1", 64, 16,
                                        FusionConfig{4, 4, aSigned,
                                                     wSigned})});
    };
    const Network nets[] = {fcNet(false, true), fcNet(false, false),
                            fcNet(true, true), fcNet(true, false)};

    ArtifactCache cache;
    std::set<const PlatformArtifact *> artifacts;
    std::set<std::pair<bool, bool>> setups;
    for (const Network &net : nets) {
        const ArtifactCache::Outcome outcome = cache.get(*platform, net);
        EXPECT_TRUE(outcome.compiled);
        artifacts.insert(outcome.artifact.get());
        const FusionConfig setup =
            Compiler(cfg).compile(net).schedules.at(0).block.config();
        setups.insert({setup.aSigned, setup.wSigned});
    }
    EXPECT_EQ(cache.compileCount(), 4u);
    EXPECT_EQ(artifacts.size(), 4u);
    EXPECT_EQ(setups.size(), 4u);
}

TEST(ArtifactKey, NamesCannotForgeDelimiters)
{
    // Network "n|x" with layer "y" and network "n" with layer "x|y"
    // read the same once their names are joined with '|'.
    const std::unique_ptr<Platform> platform =
        PlatformRegistry::builtin().build(bitfusionPlatform(
            AcceleratorConfig::eyerissMatched45(), "bf"));
    const Network a("n|x", {Layer::fc("y", 64, 16, zoo::cfg8x8())});
    const Network b("n", {Layer::fc("x|y", 64, 16, zoo::cfg8x8())});
    EXPECT_NE(networkFingerprint(a), networkFingerprint(b));

    ArtifactCache cache;
    const auto first = cache.get(*platform, a);
    const auto second = cache.get(*platform, b);
    EXPECT_TRUE(first.compiled);
    EXPECT_TRUE(second.compiled);
    EXPECT_NE(first.artifact, second.artifact);
    EXPECT_EQ(cache.compileCount(), 2u);

    // Nor can a name carry a whole layer record: with one spliced
    // into names, both networks below would read "p" R "q" R "r" R
    // if names had no length prefix.
    const Layer fc = Layer::fc("", 64, 16, zoo::cfg8x8());
    const std::string bare = networkFingerprint(Network("n", {}));
    const std::string record =
        networkFingerprint(Network("n", {fc})).substr(bare.size());
    const auto named = [&](const std::string &name) {
        Layer l = fc;
        l.name = name;
        return l;
    };
    EXPECT_NE(networkFingerprint(
                  Network("n", {named("p" + record + "q"), named("r")})),
              networkFingerprint(
                  Network("n", {named("p"), named("q" + record + "r")})));
}

TEST(ArtifactKey, EveryLayerFieldChangesTheFingerprint)
{
    const Layer base = Layer::conv("c", 3, 32, 32, 16, 3, 1, 1,
                                   zoo::cfg4x4(), 1);
    const std::string key = networkFingerprint(Network("n", {base}));
    const std::vector<void (*)(Layer &)> edits = {
        [](Layer &l) { l.name = "d"; },
        [](Layer &l) { l.kind = LayerKind::FullyConnected; },
        [](Layer &l) { l.bits.aBits = 8; },
        [](Layer &l) { l.bits.wBits = 8; },
        [](Layer &l) { l.bits.aSigned = !l.bits.aSigned; },
        [](Layer &l) { l.bits.wSigned = !l.bits.wSigned; },
        [](Layer &l) { ++l.inC; },
        [](Layer &l) { ++l.inH; },
        [](Layer &l) { ++l.inW; },
        [](Layer &l) { ++l.outC; },
        [](Layer &l) { ++l.kH; },
        [](Layer &l) { ++l.kW; },
        [](Layer &l) { ++l.stride; },
        [](Layer &l) { ++l.pad; },
        [](Layer &l) { ++l.groups; },
    };
    std::set<std::string> keys = {key};
    for (const auto &edit : edits) {
        Layer changed = base;
        edit(changed);
        keys.insert(networkFingerprint(Network("n", {changed})));
    }
    EXPECT_EQ(keys.size(), edits.size() + 1);
    // The network's name and its layer count are covered too, and
    // one network's fingerprint is no prefix of another's, so the
    // cache can append the platform key without a separator.
    EXPECT_NE(networkFingerprint(Network("m", {base})), key);
    const std::string twice = networkFingerprint(Network("n", {base, base}));
    EXPECT_NE(twice.compare(0, key.size(), key), 0);
}

TEST(SweepRunner, DeterministicAcrossThreadCounts)
{
    const SweepSpec spec = tinySpec({1, 16});
    // One fresh cache per run so the recorded compile/hit counts in
    // the JSON dumps match as well.
    // Per-layer records are kept, so the layer loop below compares
    // real records.
    ArtifactCache cacheSerial, cacheParallel;
    SweepOptions serialOpts = isolated(1, cacheSerial);
    SweepOptions parallelOpts = isolated(8, cacheParallel);
    serialOpts.perLayer = parallelOpts.perLayer = true;
    const SweepResult serial = SweepRunner(serialOpts).run(spec);
    const SweepResult parallel = SweepRunner(parallelOpts).run(spec);

    ASSERT_EQ(serial.cells().size(), parallel.cells().size());
    for (std::size_t i = 0; i < serial.cells().size(); ++i) {
        const auto &s = serial.cells()[i];
        const auto &p = parallel.cells()[i];
        EXPECT_EQ(s.platform, p.platform);
        EXPECT_EQ(s.network, p.network);
        EXPECT_EQ(s.batch, p.batch);
        EXPECT_EQ(s.stats.totalCycles, p.stats.totalCycles);
        EXPECT_DOUBLE_EQ(s.stats.energy().totalJ(),
                         p.stats.energy().totalJ());
        ASSERT_FALSE(s.stats.layers.empty());
        ASSERT_EQ(s.stats.layers.size(), p.stats.layers.size());
        for (std::size_t l = 0; l < s.stats.layers.size(); ++l) {
            EXPECT_EQ(s.stats.layers[l].cycles,
                      p.stats.layers[l].cycles);
            EXPECT_EQ(s.stats.layers[l].dramLoadBits,
                      p.stats.layers[l].dramLoadBits);
        }
    }
    // The JSON dumps differ only in the recorded thread count.
    EXPECT_EQ(serial.threadsUsed(), 1u);
    std::string sj = serial.json();
    std::string pj = parallel.json();
    const auto strip = [](std::string &s) {
        const auto pos = s.find("\"threads\"");
        ASSERT_NE(pos, std::string::npos);
        s.erase(pos, s.find(',', pos) - pos);
    };
    strip(sj);
    strip(pj);
    EXPECT_EQ(sj, pj);
}

TEST(SweepRunner, KeepsPerLayerRecordsOnlyWhenAsked)
{
    // Without SweepOptions::perLayer a cell holds no layer records,
    // not even reserved capacity, and its totals are the layer sums
    // of the same sweep run with them, bit for bit.
    const SweepSpec spec = tinySpec({1, 16});
    ArtifactCache cacheBare, cacheLayers;
    SweepOptions layerOpts = isolated(1, cacheLayers);
    layerOpts.perLayer = true;
    const SweepResult bare = SweepRunner(isolated(1, cacheBare)).run(spec);
    const SweepResult layers = SweepRunner(layerOpts).run(spec);

    ASSERT_EQ(bare.cells().size(), layers.cells().size());
    for (std::size_t i = 0; i < bare.cells().size(); ++i) {
        const RunStats &b = bare.cells()[i].stats;
        const RunStats &l = layers.cells()[i].stats;
        EXPECT_TRUE(b.layers.empty());
        EXPECT_EQ(b.layers.capacity(), 0u);
        ASSERT_FALSE(l.layers.empty());

        ComponentEnergy energy;
        std::uint64_t macs = 0, load = 0, store = 0;
        for (const LayerStats &layer : l.layers) {
            energy += layer.energy;
            macs += layer.macs;
            load += layer.dramLoadBits;
            store += layer.dramStoreBits;
        }
        const ComponentEnergy e = b.energy();
        EXPECT_EQ(e.computeJ, energy.computeJ);
        EXPECT_EQ(e.bufferJ, energy.bufferJ);
        EXPECT_EQ(e.rfJ, energy.rfJ);
        EXPECT_EQ(e.dramJ, energy.dramJ);
        EXPECT_EQ(b.totalMacs(), macs);
        EXPECT_EQ(b.totals.dramLoadBits, load);
        EXPECT_EQ(b.totals.dramStoreBits, store);
        EXPECT_EQ(b.totalCycles, l.totalCycles);
    }
    EXPECT_EQ(bare.json(), layers.json());
}

TEST(SweepResult, LookupByNameAndBatch)
{
    const SweepSpec spec = tinySpec({1, 16});
    const SweepResult result = SweepRunner({2}).run(spec);

    const SweepCellResult *c = result.find("bf-a", "net128", 16);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->batch, 16u);
    EXPECT_EQ(c->stats.batch, 16u);
    // batch 0 matches the first cell of the pair (batch 1 here).
    EXPECT_EQ(result.find("bf-a", "net128")->batch, 1u);
    EXPECT_EQ(result.find("nope", "net128"), nullptr);
    EXPECT_GT(result.stats("eyeriss", "net64", 16).totalCycles, 0u);
}

TEST(SweepResult, JsonShape)
{
    const SweepSpec spec = tinySpec();
    const SweepResult result = SweepRunner({1}).run(spec);
    const std::string doc = result.json();

    EXPECT_NE(doc.find("\"sweep\": \"tiny\""), std::string::npos);
    EXPECT_NE(doc.find("\"threads\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"compiles\""), std::string::npos);
    EXPECT_NE(doc.find("\"cache_hits\""), std::string::npos);
    EXPECT_NE(doc.find("\"cells\""), std::string::npos);
    EXPECT_NE(doc.find("\"platform\": \"bf-a\""), std::string::npos);
    EXPECT_NE(doc.find("\"network\": \"net64\""), std::string::npos);
    EXPECT_NE(doc.find("\"total_cycles\""), std::string::npos);
    EXPECT_NE(doc.find("\"energy_j\""), std::string::npos);
    // Per-layer detail only on request.
    EXPECT_EQ(doc.find("\"layers\""), std::string::npos);
    EXPECT_NE(result.json(true).find("\"layers\""), std::string::npos);
}

TEST(SweepResult, JsonEscapesStrings)
{
    EXPECT_EQ(json::Value::quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    json::Value obj = json::Value::object();
    obj.set("k", json::Value::array().push(1u).push(true).push("x"));
    EXPECT_EQ(obj.dump(), "{\"k\":[1,true,\"x\"]}");
}

TEST(SweepRunner, EffectiveThreadsClampsToCells)
{
    SweepRunner runner({64});
    EXPECT_EQ(runner.effectiveThreads(4), 4u);
    EXPECT_EQ(runner.effectiveThreads(1000), 64u);
    // threads=0 resolves to hardware concurrency, at least 1.
    EXPECT_GE(SweepRunner({0}).effectiveThreads(8), 1u);
}

TEST(Figures, RegistryCoversAllPaperFigures)
{
    const char *expected[] = {
        "fig1", "fig10", "fig13", "fig14", "fig15", "fig16", "fig17",
        "fig18", "table2", "table3", "ablation-style",
        "ablation-codeopt", "ablation-bitwidth", "dse",
    };
    for (const char *id : expected) {
        const figures::Figure *f = figures::find(id);
        ASSERT_NE(f, nullptr) << id;
        EXPECT_EQ(f->id, id);
        EXPECT_FALSE(f->title.empty());
    }
    EXPECT_EQ(figures::find("fig99"), nullptr);
    EXPECT_EQ(figures::all().size(), std::size(expected));
}

TEST(Figures, SweepSpecsExpandAndName)
{
    // Every figure with a grid must expand, carry its own id as the
    // sweep name, and validate.
    for (const auto &figure : figures::all()) {
        const SweepSpec spec = figure.spec();
        if (spec.platforms.empty())
            continue;
        EXPECT_EQ(spec.name, figure.id);
        const auto cells = SweepRunner::expand(spec);
        EXPECT_EQ(cells.size(), spec.cellCount());
        EXPECT_GT(cells.size(), 0u);
    }
}

} // namespace
} // namespace bitfusion
