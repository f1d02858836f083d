/**
 * @file
 * The P-squared quantile estimator (see streaming_stats.h for the
 * algorithm reference and accuracy notes).
 */

#include "src/common/streaming_stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace bitfusion {

P2Quantile::P2Quantile(double quantile) : quantile_(quantile)
{
    BF_ASSERT(quantile > 0.0 && quantile < 1.0);
}

void
P2Quantile::add(double x)
{
    if (count_ < 5) {
        height_[count_++] = x;
        if (count_ == 5) {
            std::sort(height_, height_ + 5);
            for (int i = 0; i < 5; ++i)
                position_[i] = i + 1;
            desired_[0] = 1.0;
            desired_[1] = 1.0 + 2.0 * quantile_;
            desired_[2] = 1.0 + 4.0 * quantile_;
            desired_[3] = 3.0 + 2.0 * quantile_;
            desired_[4] = 5.0;
            drift_[0] = 0.0;
            drift_[1] = quantile_ / 2.0;
            drift_[2] = quantile_;
            drift_[3] = (1.0 + quantile_) / 2.0;
            drift_[4] = 1.0;
        }
        return;
    }

    // Locate the marker cell the observation falls into, stretching
    // the extreme markers when it lands outside them. The search
    // stays a branch per marker: a branch-free count of the markers
    // below x makes each observation's positions wait on the previous
    // one's interpolated heights. Replayed on the serve benchmarks'
    // latency streams it was slower on the overloaded one and no
    // faster on the closed loop (docs/performance.md, "Serving
    // engine").
    int k;
    if (x < height_[0]) {
        height_[0] = x;
        k = 0;
    } else if (x >= height_[4]) {
        height_[4] = x;
        k = 3;
    } else {
        k = 0;
        while (k < 3 && x >= height_[k + 1])
            ++k;
    }
    ++count_;

    for (int i = k + 1; i < 5; ++i)
        position_[i] += 1.0;
    // The extremes' desired positions (1 and the count) are never
    // read, so only the interior ones advance.
    for (int i = 1; i < 4; ++i)
        desired_[i] += drift_[i];

    // Nudge the three interior markers toward their desired
    // positions, interpolating the new height with the piecewise
    // parabola (falling back to linear when the parabola would
    // break marker monotonicity).
    for (int i = 1; i <= 3; ++i) {
        const double d = desired_[i] - position_[i];
        if ((d >= 1.0 && position_[i + 1] - position_[i] > 1.0) ||
            (d <= -1.0 && position_[i - 1] - position_[i] < -1.0)) {
            const double s = d >= 0.0 ? 1.0 : -1.0;
            const double below = position_[i] - position_[i - 1];
            const double above = position_[i + 1] - position_[i];
            const double parabolic =
                height_[i] +
                s / (position_[i + 1] - position_[i - 1]) *
                    ((below + s) * (height_[i + 1] - height_[i]) /
                         above +
                     (above - s) * (height_[i] - height_[i - 1]) /
                         below);
            if (height_[i - 1] < parabolic &&
                parabolic < height_[i + 1]) {
                height_[i] = parabolic;
            } else {
                const int j = s > 0.0 ? i + 1 : i - 1;
                height_[i] += s * (height_[j] - height_[i]) /
                              (position_[j] - position_[i]);
            }
            position_[i] += s;
        }
    }
}

double
P2Quantile::value() const
{
    if (count_ == 0)
        return 0.0;
    if (count_ <= 5) {
        // Nearest-rank over the buffered observations, matching the
        // exact serve::percentiles definition for tiny runs.
        double sorted[5];
        std::copy(height_, height_ + count_, sorted);
        std::sort(sorted, sorted + count_);
        std::size_t idx = static_cast<std::size_t>(
            std::ceil(quantile_ * static_cast<double>(count_)));
        idx = std::max<std::size_t>(idx, 1);
        return sorted[std::min(idx, count_) - 1];
    }
    return height_[2];
}

StreamingSummary::StreamingSummary()
    : p50_(0.50), p95_(0.95), p99_(0.99)
{}

void
StreamingSummary::add(double x)
{
    ++count_;
    sum_ += x;
    max_ = std::max(max_, x);
    p50_.add(x);
    p95_.add(x);
    p99_.add(x);
}

double
StreamingSummary::mean() const
{
    return count_ == 0 ? 0.0
                       : sum_ / static_cast<double>(count_);
}

} // namespace bitfusion
