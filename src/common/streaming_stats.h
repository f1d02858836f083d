/**
 * @file
 * Streaming (constant-memory) order statistics.
 *
 * The serving layer's exact nearest-rank percentiles keep one double
 * per served request, which stops being credible somewhere around
 * 1e6 requests. P2Quantile is the P-squared algorithm of Jain and
 * Chlamtac (CACM 1985): five markers track the target quantile, its
 * neighbors at q/2 and (1+q)/2, and the extremes, adjusted by a
 * piecewise-parabolic fit on every observation -- O(1) memory and
 * O(1) update, no buffering, no randomness, so a fixed observation
 * order reproduces the estimate to the bit. StreamingSummary bundles
 * the p50/p95/p99 estimators the serving report needs with exact
 * running count, mean, and max.
 *
 * Accuracy (asserted in tests/test_serve_scale.cc): on 2e4-sample
 * uniform, exponential, and bimodal draws the P2 p50/p95/p99 land
 * within 2% relative error (+ a small absolute floor) of the exact
 * nearest-rank values; the first five observations are exact by
 * construction. The estimator is biased for heavily discrete
 * distributions (many ties), which serving latencies are not.
 */

#ifndef BITFUSION_COMMON_STREAMING_STATS_H
#define BITFUSION_COMMON_STREAMING_STATS_H

#include <cstddef>

namespace bitfusion {

/** One P-squared quantile estimator (constant memory). */
class P2Quantile
{
  public:
    /** Estimate the @p quantile in (0, 1), e.g. 0.99. */
    explicit P2Quantile(double quantile);

    /** Observe one value. */
    void add(double x);

    /**
     * Current estimate. Exact (nearest-rank over the buffered
     * observations, matching serve::percentiles) while five or fewer
     * values have been observed; 0 when empty.
     */
    double value() const;

    /** Observations so far. */
    std::size_t count() const { return count_; }

  private:
    double quantile_;
    /** Marker heights (the first five observations until primed). */
    double height_[5] = {0, 0, 0, 0, 0};
    /** Actual marker positions (1-based observation ranks). */
    double position_[5] = {0, 0, 0, 0, 0};
    /** Desired marker positions and their per-observation drift;
     *  only the interior markers' desired positions advance. */
    double desired_[5] = {0, 0, 0, 0, 0};
    double drift_[5] = {0, 0, 0, 0, 0};
    std::size_t count_ = 0;
};

/**
 * Constant-memory latency summary: exact count / mean / max plus
 * P-squared p50, p95, and p99. Deterministic for a fixed
 * observation order.
 */
class StreamingSummary
{
  public:
    StreamingSummary();

    void add(double x);

    std::size_t count() const { return count_; }
    double mean() const;
    double max() const { return max_; }
    double p50() const { return p50_.value(); }
    double p95() const { return p95_.value(); }
    double p99() const { return p99_.value(); }

  private:
    P2Quantile p50_;
    P2Quantile p95_;
    P2Quantile p99_;
    std::size_t count_ = 0;
    double sum_ = 0.0;
    double max_ = 0.0;
};

} // namespace bitfusion

#endif // BITFUSION_COMMON_STREAMING_STATS_H
