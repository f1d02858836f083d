/**
 * @file
 * Sweep grid expansion, the compiled-artifact cache, the
 * fixed-size thread pool that executes the cells, and the JSON
 * record of a sweep.
 */

#include "src/runner/sweep.h"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/core/artifact_cache.h"
#include "src/runner/parallel_for.h"

namespace bitfusion {

namespace {

/** Write the energy split as a JSON object (joules). */
void
energyJson(json::Writer &w, const ComponentEnergy &energy)
{
    w.beginObject();
    w.key("compute").value(energy.computeJ);
    w.key("buffers").value(energy.bufferJ);
    w.key("rf").value(energy.rfJ);
    w.key("dram").value(energy.dramJ);
    w.key("total").value(energy.totalJ());
    w.endObject();
}

/** Write one layer's stats as a JSON object. */
void
layerJson(json::Writer &w, const LayerStats &layer)
{
    w.beginObject();
    w.key("name").value(layer.name);
    w.key("config").value(layer.config);
    w.key("macs").value(layer.macs);
    w.key("compute_cycles").value(layer.computeCycles);
    w.key("mem_cycles").value(layer.memCycles);
    w.key("cycles").value(layer.cycles);
    w.key("dram_load_bits").value(layer.dramLoadBits);
    w.key("dram_store_bits").value(layer.dramStoreBits);
    w.key("sram_bits").value(layer.sramBits);
    w.key("rf_bits").value(layer.rfBits);
    w.key("utilization").value(layer.utilization);
    w.key("energy_j");
    energyJson(w, layer.energy);
    w.endObject();
}

} // namespace

// ------------------------------------------------------------ SweepSpec

std::size_t
SweepSpec::cellCount() const
{
    return platforms.size() * networks.size() *
           std::max<std::size_t>(batches.size(), 1);
}

std::string
SweepSpec::error() const
{
    const std::string sweep = "sweep '" + name + "' ";
    if (platforms.empty())
        return sweep + "has no platforms";
    if (networks.empty())
        return sweep + "has no networks";
    std::unordered_set<std::string> seen;
    for (const auto &p : platforms) {
        if (p.name.empty())
            return sweep + "has an unnamed platform";
        if (!seen.insert(p.name).second)
            return sweep + "has duplicate platform '" + p.name + "'";
    }
    seen.clear();
    for (const auto &n : networks) {
        if (n.name.empty())
            return sweep + "has an unnamed network";
        if (!seen.insert(n.name).second)
            return sweep + "has duplicate network '" + n.name + "'";
    }
    for (unsigned b : batches) {
        if (b == 0)
            return sweep + "has a zero batch size";
    }
    return "";
}

// ---------------------------------------------------------- SweepResult

const SweepCellResult *
SweepResult::find(const std::string &platform, const std::string &network,
                  unsigned batch) const
{
    for (const auto &c : cells_) {
        if (c.platform == platform && c.network == network &&
            (batch == 0 || c.batch == batch)) {
            return &c;
        }
    }
    return nullptr;
}

const RunStats &
SweepResult::stats(const std::string &platform, const std::string &network,
                   unsigned batch) const
{
    const SweepCellResult *c = find(platform, network, batch);
    if (c == nullptr) {
        BF_FATAL("sweep '", name_, "' has no cell (", platform, ", ",
                 network, ", batch ", batch, ")");
    }
    return c->stats;
}

std::string
SweepResult::json(bool per_layer) const
{
    json::Writer w(2);
    w.beginObject();
    w.key("sweep").value(name_);
    w.key("timing").value(toString(timing_));
    w.key("threads").value(threads_);
    w.key("compiles").value(compiles_);
    w.key("cache_hits").value(cacheHits_);
    w.key("cells").beginArray();
    for (const auto &c : cells_) {
        const RunStats &stats = c.stats;
        w.beginObject();
        w.key("platform").value(c.platform);
        w.key("network").value(c.network);
        w.key("batch").value(c.batch);
        w.key("total_cycles").value(stats.totalCycles);
        w.key("freq_mhz").value(stats.freqMHz);
        w.key("seconds_per_batch").value(stats.seconds());
        w.key("seconds_per_sample").value(stats.secondsPerSample());
        w.key("macs").value(stats.totalMacs());
        w.key("dram_load_bits").value(stats.totals.dramLoadBits);
        w.key("dram_store_bits").value(stats.totals.dramStoreBits);
        w.key("energy_j");
        energyJson(w, stats.energy());
        w.key("energy_per_sample_j").value(stats.energyPerSampleJ());
        if (per_layer) {
            w.key("layers").beginArray();
            for (const auto &l : stats.layers)
                layerJson(w, l);
            w.endArray();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.take();
}

// ---------------------------------------------------------- SweepRunner

SweepRunner::SweepRunner(SweepOptions opts) : opts(opts) {}

unsigned
SweepRunner::effectiveThreads(std::size_t cells) const
{
    return resolveThreads(opts.threads, cells);
}

std::vector<SweepCell>
SweepRunner::expand(const SweepSpec &spec)
{
    if (const std::string error = spec.error(); !error.empty())
        BF_FATAL(error);
    std::vector<SweepCell> cells;
    cells.reserve(spec.cellCount());
    for (std::size_t p = 0; p < spec.platforms.size(); ++p) {
        for (std::size_t n = 0; n < spec.networks.size(); ++n) {
            if (spec.batches.empty()) {
                cells.push_back({p, n, 0});
                continue;
            }
            for (unsigned b : spec.batches)
                cells.push_back({p, n, b});
        }
    }
    return cells;
}

SweepResult
SweepRunner::run(const SweepSpec &spec) const
{
    const std::vector<SweepCell> cells = expand(spec);
    const unsigned threads = effectiveThreads(cells.size());
    const PlatformRegistry &registry = PlatformRegistry::builtin();

    // Build one platform per distinct (platform index, batch) pair --
    // batch is applied at build time, and cells differing only in
    // network share the instance (platforms are const and thread-safe
    // once built). Each built platform's compile key is interned
    // once; platforms with an empty key (the baselines) have no
    // compile step.
    std::vector<std::unique_ptr<Platform>> built;
    std::vector<std::size_t> builtKeyId;
    std::unordered_map<std::uint64_t, std::size_t> builtIndex;
    std::unordered_map<std::string, std::size_t> keyIds;
    std::vector<std::size_t> cellBuilt(cells.size());
    std::vector<unsigned> cellBatch(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const PlatformSpec &platform = spec.platforms[cells[i].platformIndex];
        cellBatch[i] = cells[i].batch != 0 ? cells[i].batch : platform.batch;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(cells[i].platformIndex) << 32) |
            cellBatch[i];
        auto [it, inserted] = builtIndex.emplace(key, built.size());
        if (inserted) {
            PlatformSpec cellSpec = platform;
            cellSpec.batch = cellBatch[i];
            built.push_back(registry.build(cellSpec));
            const std::string compileKey = built.back()->compileKey();
            builtKeyId.push_back(
                compileKey.empty()
                    ? SIZE_MAX
                    : keyIds.emplace(compileKey, keyIds.size())
                          .first->second);
        }
        cellBuilt[i] = it->second;
    }

    // Deduplicate the compilation work within this sweep: one job
    // per distinct (compile key, network, variant), numbered in the
    // order cells first need it.
    struct CompileJob
    {
        const Platform *platform = nullptr;
        const Network *net = nullptr;
    };
    std::vector<CompileJob> jobs;
    std::vector<std::size_t> jobOf(keyIds.size() * spec.networks.size() * 2,
                                   SIZE_MAX);
    std::vector<std::size_t> cellJob(cells.size(), SIZE_MAX);
    std::size_t compiledCells = 0;

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &cell = cells[i];
        const std::size_t keyId = builtKeyId[cellBuilt[i]];
        if (keyId == SIZE_MAX)
            continue;
        ++compiledCells;
        const PlatformSpec &platform = spec.platforms[cell.platformIndex];
        std::size_t &job =
            jobOf[(keyId * spec.networks.size() + cell.networkIndex) * 2 +
                  std::size_t{platform.runsQuantized}];
        if (job == SIZE_MAX) {
            job = jobs.size();
            const zoo::Benchmark &bench = spec.networks[cell.networkIndex];
            jobs.push_back({built[cellBuilt[i]].get(),
                            &bench.variant(platform.runsQuantized)});
        }
        cellJob[i] = job;
    }

    // Phase 1: resolve every job through the shared artifact cache
    // in parallel. A job already cached by an earlier sweep (or the
    // serving engine) skips its compilation here; the recorded
    // counters stay a pure function of the spec (one compile per
    // distinct job, within-run reuse as hits) so JSON dumps -- and
    // the golden files locking them -- don't depend on what else the
    // process ran first. Cross-run reuse shows up on the
    // ArtifactCache's own counters instead.
    ArtifactCache &cache =
        opts.cache != nullptr ? *opts.cache : ArtifactCache::process();
    std::vector<PlatformArtifactPtr> compiled(jobs.size());
    parallelFor(jobs.size(), threads, [&](std::size_t j) {
        compiled[j] =
            cache.get(*jobs[j].platform, *jobs[j].net).artifact;
    });

    // Phase 2: simulate every cell. Workers write disjoint slots of
    // the grid-ordered result vector, so output order and content
    // are independent of the thread count.
    SweepResult result;
    result.name_ = spec.name;
    result.compiles_ = jobs.size();
    result.cacheHits_ = compiledCells - jobs.size();
    result.threads_ = threads;
    result.timing_ = opts.timing;
    result.cells_.resize(cells.size());

    parallelFor(cells.size(), threads, [&](std::size_t i) {
        const SweepCell &cell = cells[i];
        const PlatformSpec &platform = spec.platforms[cell.platformIndex];
        const zoo::Benchmark &bench = spec.networks[cell.networkIndex];

        SweepCellResult r;
        r.cell = cell;
        r.platform = platform.name;
        r.network = bench.name;
        r.batch = cellBatch[i];

        RunOptions runOpts;
        runOpts.timing = opts.timing;
        runOpts.perLayer = opts.perLayer;
        if (cellJob[i] != SIZE_MAX)
            runOpts.artifact = compiled[cellJob[i]].get();
        const Network &net = bench.variant(platform.runsQuantized);
        r.stats = built[cellBuilt[i]]->run(net, runOpts);
        result.cells_[i] = std::move(r);
    });

    return result;
}

} // namespace bitfusion
