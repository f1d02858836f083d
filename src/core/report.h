/**
 * @file
 * Report writers: render run statistics as human-readable summaries
 * or machine-readable CSV for downstream analysis.
 */

#ifndef BITFUSION_CORE_REPORT_H
#define BITFUSION_CORE_REPORT_H

#include <string>

#include "src/common/json.h"
#include "src/core/stats.h"

namespace bitfusion {
namespace report {

/**
 * Write the run-level members (cycles, time, traffic, energy; layers
 * when @p per_layer) into the object @p w has open: the body of
 * each per-cell record the sweep runner emits (src/runner/sweep.h).
 */
void fillRunJson(json::Writer &w, const RunStats &stats, bool per_layer);

/**
 * Per-layer CSV: one row per layer with cycles, traffic, utilization
 * and the energy split; header row first.
 */
std::string csv(const RunStats &stats);

/** Multi-line human-readable summary of a run. */
std::string summary(const RunStats &stats);

/**
 * Comparison line between a subject run and a baseline run on the
 * same network: speedup and energy reduction.
 */
std::string versus(const RunStats &subject, const RunStats &baseline);

} // namespace report
} // namespace bitfusion

#endif // BITFUSION_CORE_REPORT_H
