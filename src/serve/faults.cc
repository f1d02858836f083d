/**
 * @file
 * Fault-spec validation, the "ID@T[:for=D]" outage parser, and the
 * lazily generated per-replica fault timeline.
 */

#include "src/serve/faults.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/cli.h"
#include "src/common/logging.h"
#include "src/serve/trace.h"

namespace bitfusion {
namespace serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** True when @p us is a nonnegative time within the virtual clock's
 *  ceiling (kMaxVirtualUs; NaN is not). */
bool
inClock(double us)
{
    return us >= 0.0 && withinVirtualClock(us);
}

/** Parse a full-token nonnegative decimal; fatal on anything else. */
double
parseNumber(const std::string &token, const char *flag,
            const char *what)
{
    double value = 0.0;
    if (!cli::parseDecimal(token, value)) {
        BF_FATAL(flag, " has a malformed ", what, " '", token,
                 "' (expected ID@T[:for=D])");
    }
    return value;
}

/** First interval covering @p t; nullptr when @p t is up time.
 *  @p list is sorted by start with non-overlapping members. */
const FaultTimeline::Interval *
covering(const std::vector<FaultTimeline::Interval> &list, double t)
{
    auto it = std::upper_bound(
        list.begin(), list.end(), t,
        [](double v, const FaultTimeline::Interval &iv) {
            return v < iv.startUs;
        });
    if (it == list.begin())
        return nullptr;
    --it;
    return it->endUs > t ? &*it : nullptr;
}

/** First interval start strictly after @p t; +inf when none. */
double
nextStartAfter(const std::vector<FaultTimeline::Interval> &list,
               double t)
{
    auto it = std::upper_bound(
        list.begin(), list.end(), t,
        [](double v, const FaultTimeline::Interval &iv) {
            return v < iv.startUs;
        });
    return it != list.end() ? it->startUs : kInf;
}

/** Sort intervals by start and merge overlapping/touching ones. */
void
normalize(std::vector<FaultTimeline::Interval> &list)
{
    std::sort(list.begin(), list.end(),
              [](const FaultTimeline::Interval &a,
                 const FaultTimeline::Interval &b) {
                  if (a.startUs != b.startUs)
                      return a.startUs < b.startUs;
                  return a.endUs < b.endUs;
              });
    std::vector<FaultTimeline::Interval> merged;
    for (const auto &iv : list) {
        if (!merged.empty() && iv.startUs <= merged.back().endUs) {
            merged.back().endUs =
                std::max(merged.back().endUs, iv.endUs);
        } else {
            merged.push_back(iv);
        }
    }
    list = std::move(merged);
}

} // namespace

// ----------------------------------------------------------- FaultEvent

FaultEvent
parseFaultEvent(const std::string &text, const char *flag)
{
    const auto at = text.find('@');
    if (at == std::string::npos || at == 0) {
        BF_FATAL(flag, " wants ID@T[:for=D], got '", text, "'");
    }
    const std::string idToken = text.substr(0, at);
    std::uint64_t id = 0;
    if (!cli::parseDecimal(idToken, id)) {
        BF_FATAL(flag, " has a malformed target id '", idToken,
                 "' (expected ID@T[:for=D])");
    }

    FaultEvent event;
    event.target = static_cast<std::size_t>(id);
    std::string when = text.substr(at + 1);
    const auto colon = when.find(':');
    if (colon != std::string::npos) {
        const std::string dur = when.substr(colon + 1);
        when = when.substr(0, colon);
        if (dur.rfind("for=", 0) != 0) {
            BF_FATAL(flag, " wants ID@T[:for=D], got duration '",
                     dur, "'");
        }
        event.forUs =
            parseNumber(dur.substr(4), flag, "outage duration");
        if (event.forUs <= 0.0) {
            BF_FATAL(flag, " outage duration must be positive, "
                           "got '",
                     dur, "' (omit :for= for a permanent outage)");
        }
    }
    event.atUs = parseNumber(when, flag, "outage start time");
    return event;
}

// ------------------------------------------------------------ FaultSpec

bool
FaultSpec::active() const
{
    return mtbfUs > 0.0 || !replicaEvents.empty() ||
           !rackEvents.empty();
}

std::string
FaultSpec::error(std::size_t replicaCount) const
{
    using detail::concat;
    if ((mtbfUs > 0.0) != (mttrUs > 0.0)) {
        return concat("seeded failures need MTBF and MTTR together, got "
                      "mtbf ",
                      mtbfUs, " mttr ", mttrUs, " (--mtbf-us, --mttr-us)");
    }
    if (!inClock(mtbfUs) || !inClock(mttrUs)) {
        return concat("MTBF/MTTR must be nonnegative values within the "
                      "virtual-time ceiling, got mtbf ",
                      mtbfUs, " mttr ", mttrUs, " (--mtbf-us, --mttr-us)");
    }
    for (const auto &ev : replicaEvents) {
        if (ev.target >= replicaCount) {
            return concat("fault event targets replica ", ev.target,
                          " but the fleet has ", replicaCount,
                          " replicas (--fail-replica)");
        }
        if (!inClock(ev.atUs) || !inClock(ev.forUs)) {
            return concat("fault event for replica ", ev.target,
                          " has a bad window: at ", ev.atUs, " for ",
                          ev.forUs, " (--fail-replica)");
        }
    }
    if (!rackEvents.empty() && rackSize == 0)
        return "rack fault events need a positive rack size "
               "(rackSize, --rack-size)";
    if (rackSize > replicaCount) {
        return concat("rack size ", rackSize, " exceeds the fleet's ",
                      replicaCount, " replicas (--rack-size)");
    }
    if (rackSize > 0) {
        const std::size_t racks =
            (replicaCount + rackSize - 1) / rackSize;
        for (const auto &ev : rackEvents) {
            if (ev.target >= racks) {
                return concat("fault event targets rack ", ev.target,
                              " but rack size ", rackSize, " over ",
                              replicaCount, " replicas gives ", racks,
                              " racks (--fail-rack)");
            }
            if (!inClock(ev.atUs) || !inClock(ev.forUs)) {
                return concat("fault event for rack ", ev.target,
                              " has a bad window: at ", ev.atUs, " for ",
                              ev.forUs, " (--fail-rack)");
            }
        }
    }
    return {};
}

// ---------------------------------------------------------- RetryPolicy

bool
RetryPolicy::active() const
{
    return retriesEnabled() || hedgingEnabled();
}

std::string
RetryPolicy::error() const
{
    using detail::concat;
    if (maxAttempts == 0)
        return "retry policy needs at least one attempt (maxAttempts, "
               "--retry-max)";
    if (!inClock(backoffBaseUs)) {
        return concat("retry backoff must be a nonnegative value within "
                      "the virtual-time ceiling, got ",
                      backoffBaseUs, " (--retry-backoff-us)");
    }
    if (!std::isfinite(jitterFrac) || jitterFrac < 0.0 ||
        jitterFrac > 1.0) {
        return concat("retry jitter fraction must lie in [0, 1], got ",
                      jitterFrac, " (--retry-jitter)");
    }
    if (!retriesEnabled() &&
        (backoffBaseUs > 0.0 || jitterFrac > 0.0 ||
         retryBudget > 0)) {
        return "retry backoff/jitter/budget need maxAttempts > 1 "
               "(--retry-max 2 or more; nothing ever retries otherwise)";
    }
    if (!inClock(hedgeDelayUs) || !std::isfinite(hedgeP99Multiplier) ||
        hedgeP99Multiplier < 0.0) {
        return concat("hedge knobs must be nonnegative finite values "
                      "(the delay within the virtual-time ceiling), got "
                      "delay ",
                      hedgeDelayUs, " p99 multiplier ",
                      hedgeP99Multiplier, " (--hedge-us, --hedge-p99-x)");
    }
    if (hedgeDelayUs > 0.0 && hedgeP99Multiplier > 0.0) {
        return "give either a fixed hedge delay or a p99-derived one, "
               "not both (--hedge-us or --hedge-p99-x)";
    }
    return {};
}

// -------------------------------------------------------- FaultTimeline

FaultTimeline::FaultTimeline(const FaultSpec &spec,
                             std::size_t replicaCount)
    : spec_(spec)
{
    // Every replica gets an independent stream derived from the one
    // spec seed, so lazily extending one lane never perturbs
    // another and the layout is identical however queries arrive.
    Prng seeder(spec_.seed);
    lanes_.reserve(replicaCount);
    for (std::size_t r = 0; r < replicaCount; ++r)
        lanes_.emplace_back(seeder.next());

    const auto schedule = [&](std::size_t r, const FaultEvent &ev) {
        Interval iv;
        iv.startUs = ev.atUs;
        iv.endUs = ev.forUs > 0.0 ? ev.atUs + ev.forUs : kInf;
        lanes_[r].scheduled.push_back(iv);
    };
    for (const auto &ev : spec_.replicaEvents)
        schedule(ev.target, ev);
    for (const auto &ev : spec_.rackEvents) {
        const std::size_t first = ev.target * spec_.rackSize;
        const std::size_t last =
            std::min(first + spec_.rackSize, replicaCount);
        for (std::size_t r = first; r < last; ++r)
            schedule(r, ev);
    }
    for (auto &lane : lanes_)
        normalize(lane.scheduled);
}

void
FaultTimeline::extend(Lane &lane, double t)
{
    if (spec_.mtbfUs <= 0.0 || !std::isfinite(t))
        return;
    while (lane.knownUs <= t) {
        const double up = lane.prng.nextExponential(spec_.mtbfUs);
        const double down = lane.prng.nextExponential(spec_.mttrUs);
        const double start = lane.clockUs + up;
        double end = start + down;
        // A zero exponential draw (probability ~2^-53) must still
        // advance the renewal clock.
        if (end <= lane.clockUs)
            end = lane.clockUs + 1e-9;
        if (end > start)
            lane.seeded.push_back(Interval{start, end});
        lane.clockUs = end;
        lane.knownUs = end;
    }
}

bool
FaultTimeline::upAt(std::size_t r, double t)
{
    BF_ASSERT(r < lanes_.size());
    Lane &lane = lanes_[r];
    extend(lane, t);
    return covering(lane.scheduled, t) == nullptr &&
           covering(lane.seeded, t) == nullptr;
}

double
FaultTimeline::upAfter(std::size_t r, double t)
{
    BF_ASSERT(r < lanes_.size());
    Lane &lane = lanes_[r];
    double u = t;
    for (;;) {
        if (!std::isfinite(u))
            return u;
        extend(lane, u);
        double e = u;
        if (const Interval *iv = covering(lane.scheduled, u))
            e = std::max(e, iv->endUs);
        if (const Interval *iv = covering(lane.seeded, u))
            e = std::max(e, iv->endUs);
        if (e == u)
            return u;
        u = e;
    }
}

double
FaultTimeline::nextDownWithin(std::size_t r, double t, double limit)
{
    BF_ASSERT(r < lanes_.size());
    if (!(limit > t))
        return kInf;
    Lane &lane = lanes_[r];
    extend(lane, limit);
    const double onset =
        std::min(nextStartAfter(lane.scheduled, t),
                 nextStartAfter(lane.seeded, t));
    return onset < limit ? onset : kInf;
}

bool
FaultTimeline::anyDownAt(double t)
{
    for (std::size_t r = 0; r < lanes_.size(); ++r) {
        if (!upAt(r, t))
            return true;
    }
    return false;
}

double
FaultTimeline::downUsWithin(std::size_t r, double horizon)
{
    BF_ASSERT(r < lanes_.size());
    Lane &lane = lanes_[r];
    extend(lane, horizon);
    // Sweep the union of both interval lists clipped to
    // [0, horizon]; each list is sorted but they may overlap each
    // other.
    std::vector<Interval> all;
    all.reserve(lane.scheduled.size() + lane.seeded.size());
    all.insert(all.end(), lane.scheduled.begin(),
               lane.scheduled.end());
    all.insert(all.end(), lane.seeded.begin(), lane.seeded.end());
    normalize(all);
    double total = 0.0;
    for (const auto &iv : all) {
        if (iv.startUs >= horizon)
            break;
        total += std::min(iv.endUs, horizon) - iv.startUs;
    }
    return total;
}

double
FaultTimeline::lastRecoveryBefore(double horizon)
{
    double last = 0.0;
    for (auto &lane : lanes_) {
        extend(lane, horizon);
        for (const auto *list : {&lane.scheduled, &lane.seeded}) {
            for (const auto &iv : *list) {
                if (iv.endUs <= horizon)
                    last = std::max(last, iv.endUs);
            }
        }
    }
    return last;
}

} // namespace serve
} // namespace bitfusion
