/**
 * @file
 * Parallel sweep engine for paper-figure reproduction.
 *
 * A sweep is the cartesian product of platforms (PlatformSpecs of
 * any registered kind) x networks x batch sizes. The runner expands
 * the grid, builds each cell's platform through the
 * PlatformRegistry, resolves each distinct (compile key, network,
 * batch) triple through the process-level ArtifactCache
 * (src/core/artifact_cache.h, shared with the serving engine), and
 * fans the simulations out across a fixed-size thread pool.
 *
 * Determinism: results are stored in grid order (platform-major,
 * then network, then batch), each worker writes only its own cell,
 * and every platform run is a pure function of its inputs (see the
 * thread-safety contract on Platform), so the result table is
 * bit-identical regardless of the thread count.
 */

#ifndef BITFUSION_RUNNER_SWEEP_H
#define BITFUSION_RUNNER_SWEEP_H

#include <cstddef>
#include <string>
#include <vector>

#include "src/core/platform_registry.h"
#include "src/core/stats.h"
#include "src/dnn/model_zoo.h"
#include "src/dnn/network.h"

namespace bitfusion {

/** Kept only for perfbench/bfbench.cc, which names this type. */
using SweepNetwork = zoo::Benchmark;

/** Declarative sweep grid: platforms x networks x batch sizes. */
struct SweepSpec
{
    /** Sweep identifier (e.g. "fig13"); lands in the JSON output. */
    std::string name;
    std::vector<PlatformSpec> platforms;
    /**
     * Network rows; each platform runs
     * Benchmark::variant(PlatformSpec::runsQuantized). A row whose
     * two variants are one model is zoo::Benchmark{name, net, net}.
     */
    std::vector<zoo::Benchmark> networks;
    /**
     * Batch-size overrides. Empty means one cell per
     * (platform, network) at the platform's own batch size.
     */
    std::vector<unsigned> batches;

    /** Number of grid cells the spec expands to. */
    std::size_t cellCount() const;

    /**
     * Why the grid cannot run (no platforms or networks, an unnamed
     * or duplicate name, a zero batch), or "" when it can. The
     * runner dies on it; the CLI exits 2 with it.
     */
    std::string error() const;
};

/** One expanded grid cell. */
struct SweepCell
{
    std::size_t platformIndex = 0;
    std::size_t networkIndex = 0;
    /** Batch override; 0 keeps the platform's default batch. */
    unsigned batch = 0;
};

/** Result of one cell. */
struct SweepCellResult
{
    SweepCell cell;
    /** Platform display name. */
    std::string platform;
    /** Network name. */
    std::string network;
    /** Effective batch size the cell ran at. */
    unsigned batch = 0;
    RunStats stats;
};

/** Deterministically ordered result table of one sweep. */
class SweepResult
{
  public:
    const std::string &name() const { return name_; }
    const std::vector<SweepCellResult> &cells() const { return cells_; }

    /**
     * Find a cell by platform/network name (and batch; 0 matches the
     * first cell of that pair). Returns nullptr if absent.
     */
    const SweepCellResult *find(const std::string &platform,
                                const std::string &network,
                                unsigned batch = 0) const;

    /** Like find(), but fatal when the cell is absent. */
    const RunStats &stats(const std::string &platform,
                          const std::string &network,
                          unsigned batch = 0) const;

    /**
     * Distinct compilations this sweep's grid needs. A pure function
     * of the spec: an artifact already resident in the shared cache
     * (from a previous sweep or the serving engine) still counts
     * here even though no work was redone -- cross-run reuse is
     * visible on ArtifactCache's own counters instead.
     */
    std::size_t compileCount() const { return compiles_; }
    /** Cells served by reusing another cell's compilation. */
    std::size_t cacheHits() const { return cacheHits_; }
    /** Worker threads the sweep ran with. */
    unsigned threadsUsed() const { return threads_; }
    /** Timing model the sweep ran under. */
    TimingModel timing() const { return timing_; }

    /**
     * Machine-readable dump: sweep metadata plus one record per cell
     * with cycles, time, traffic, and the energy split;
     * @p per_layer additionally embeds the per-layer stats, which a
     * sweep keeps only under SweepOptions::perLayer.
     */
    std::string json(bool per_layer = false) const;

  private:
    friend class SweepRunner;

    std::string name_;
    std::vector<SweepCellResult> cells_;
    std::size_t compiles_ = 0;
    std::size_t cacheHits_ = 0;
    unsigned threads_ = 1;
    TimingModel timing_ = TimingModel::Simple;
};

class ArtifactCache;

/** Runner options. */
struct SweepOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned threads = 0;
    /** Phase-time composition used for every cell. */
    TimingModel timing = TimingModel::Simple;
    /**
     * Compiled-artifact cache to resolve compilations through;
     * nullptr uses the process-level ArtifactCache::process().
     * Tests pass a private cache for isolated accounting.
     */
    ArtifactCache *cache = nullptr;
    /**
     * Keep each cell's per-layer stats (RunStats::layers). Off, the
     * cells run without per-layer records (RunOptions::perLayer):
     * the run totals are unchanged, and SweepResult::json(true)
     * writes empty "layers" arrays.
     */
    bool perLayer = false;
};

/** Expands sweep grids and executes them on a thread pool. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});

    /**
     * Expand a spec into grid order: platform-major, then network,
     * then batch (exposed for tests).
     */
    static std::vector<SweepCell> expand(const SweepSpec &spec);

    /** Run every cell of the spec; see class docs for guarantees. */
    SweepResult run(const SweepSpec &spec) const;

    /** The thread count run() will use for @p cells cells. */
    unsigned effectiveThreads(std::size_t cells) const;

  private:
    SweepOptions opts;
};

} // namespace bitfusion

#endif // BITFUSION_RUNNER_SWEEP_H
