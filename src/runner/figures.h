/**
 * @file
 * Registry of the paper's figures and tables, each expressed as a
 * sweep grid plus an ASCII reporter.
 *
 * The bitfusion_sweep CLI resolves figures here, so one declaration
 * drives a figure end to end: the grid feeds the parallel
 * SweepRunner, the reporter renders the paper-style table from the
 * deterministic result, and the JSON dump comes for free.
 */

#ifndef BITFUSION_RUNNER_FIGURES_H
#define BITFUSION_RUNNER_FIGURES_H

#include <functional>
#include <string>
#include <vector>

#include "src/runner/sweep.h"

namespace bitfusion {
namespace figures {

/**
 * Options the sweep CLI sets per run: the runner's (threads, timing
 * model, per-layer detail for the fig13 table and the JSON layers)
 * plus the JSON dump path.
 */
struct FigureOptions : SweepOptions
{
    /** When nonempty, dump the SweepResult as JSON to this path. */
    std::string jsonPath;
};

/** One reproducible figure or table. */
struct Figure
{
    /** Identifier used by --figure (e.g. "fig13"). */
    std::string id;
    /** One-line description shown by --list. */
    std::string title;
    /**
     * Build the sweep grid. Figures that only print model/topology
     * properties (fig1, fig10, table2, table3) return an empty grid
     * and do all their work in report().
     */
    std::function<SweepSpec()> spec;
    /** Render the paper-style ASCII table from the sweep result. */
    std::function<void(const SweepResult &, const FigureOptions &)> report;
};

/** All registered figures, in paper order. */
const std::vector<Figure> &all();

/** Look up a figure by id; nullptr when unknown. */
const Figure *find(const std::string &id);

/**
 * The ad-hoc heterogeneous comparison as a figure with id "custom",
 * built into @p out: the platforms named by --platform tokens (see
 * PlatformRegistry::parse) over the eight paper benchmarks, reported
 * as latency/energy-per-sample tables. @p batch overrides every
 * platform's batch when nonzero. Returns the diagnostic for a bad
 * token or a display name given twice, or "" on success.
 */
std::string platformComparison(const std::vector<std::string> &tokens,
                               unsigned batch, Figure &out);

/**
 * Run figures in order, end to end: sweep, report (a blank line
 * between reports), and the JSON dump of each sweep grid. A --json
 * path names the dump of a lone figure; with several figures each
 * grid goes to "<path>.<id>.json" instead, and a figure without a
 * grid writes nothing (a lone one warns). Writes go through
 * writeOutput, which exits 1 on an unwritable path.
 */
void run(const std::vector<Figure> &figures, const FigureOptions &options);

} // namespace figures
} // namespace bitfusion

#endif // BITFUSION_RUNNER_FIGURES_H
