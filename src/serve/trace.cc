#include "src/serve/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "src/common/logging.h"
#include "src/common/prng.h"
#include "src/dnn/model_zoo.h"

namespace bitfusion {
namespace serve {

namespace {

/** @p spec's network mix, interned once: its list, else the zoo's. */
std::vector<NetworkName>
networkMix(const TraceSpec &spec)
{
    std::vector<NetworkName> mix;
    for (const auto &name : spec.networks.empty() ? zoo::names()
                                                  : spec.networks)
        mix.emplace_back(name);
    return mix;
}

/**
 * Two-state MMPP chain plus the deterministic diurnal / flash-crowd
 * envelopes, evaluated lazily along the virtual clock. rateFactorAt
 * advances the chain to @p t (state flips draw seeded exponential
 * dwell times) and returns the instantaneous rate multiplier, which
 * never exceeds TraceSpec::peakFactor(), so arrivals can be generated
 * by thinning a Poisson stream at the peak rate.
 */
class RateEnvelope
{
  public:
    /** @p spec must be valid (TraceSpec::error() returns ""). */
    RateEnvelope(const TraceSpec &spec, Prng &prng)
        : spec_(spec), prng_(prng)
    {
        // The chain starts calm at time 0.
        if (spec_.process == ArrivalProcess::Mmpp)
            nextFlipUs_ = prng_.nextExponential(spec_.meanCalmUs);
    }

    /** Advance the MMPP chain to @p t and return the multiplier. */
    double rateFactorAt(double t)
    {
        double factor = 1.0;
        if (spec_.process == ArrivalProcess::Mmpp) {
            while (t >= nextFlipUs_) {
                bursting_ = !bursting_;
                nextFlipUs_ += prng_.nextExponential(
                    bursting_ ? spec_.meanBurstUs
                              : spec_.meanCalmUs);
            }
            if (bursting_)
                factor *= spec_.burstRateMultiplier;
        }
        if (spec_.diurnalPeriodUs > 0.0) {
            const double phase =
                2.0 * M_PI * t / spec_.diurnalPeriodUs;
            factor *=
                1.0 + spec_.diurnalAmplitude * std::sin(phase);
        }
        if (spec_.flashDurationUs > 0.0 && t >= spec_.flashStartUs &&
            t < spec_.flashStartUs + spec_.flashDurationUs)
            factor *= spec_.flashMultiplier;
        return factor;
    }

  private:
    const TraceSpec &spec_;
    Prng &prng_;
    bool bursting_ = false;
    double nextFlipUs_ = std::numeric_limits<double>::infinity();
};

/** The generator's error when its arrival clock overflows. */
void
clockOverflow(std::size_t request, const TraceSpec &spec)
{
    BF_FATAL("synthetic arrival clock overflowed at request ", request,
             ": mean inter-arrival gap ", spec.meanGapUs, " us is too large");
}

/** Shortest decimal that parses back to exactly @p x. */
void
appendRoundTrip(std::string &out, double x)
{
    char buf[32];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), x);
    out.append(buf, res.ptr);
}

/**
 * Empty when generating @p spec has bounded cost per request: its
 * peak factor is within kMaxPeakFactor and, for MMPP, its gap over
 * its shorter dwell mean is within kMaxGapPerDwell.
 */
std::string
generatorCostError(const TraceSpec &spec)
{
    std::ostringstream os;
    const double peak = spec.peakFactor();
    if (peak > kMaxPeakFactor) {
        os << "peak arrival-rate factor " << peak;
        os << " (MMPP burst x diurnal peak x flash) exceeds "
           << kMaxPeakFactor;
        os << ": the generator's candidate draws per request scale with";
        os << " the peak factor";
        return os.str();
    }
    // TraceSpec::error has already rejected nonpositive dwell means.
    const double dwellUs = std::min(spec.meanBurstUs, spec.meanCalmUs);
    if (spec.process == ArrivalProcess::Mmpp &&
        spec.meanGapUs / dwellUs > kMaxGapPerDwell) {
        os << "mean inter-arrival gap " << spec.meanGapUs
           << " us over the shorter MMPP dwell mean " << dwellUs
           << " us exceeds " << kMaxGapPerDwell;
        os << ": the generator's MMPP state flips per request scale with";
        os << " that ratio";
        return os.str();
    }
    return {};
}

} // namespace

bool
TraceSpec::bursty() const
{
    return process != ArrivalProcess::Poisson ||
           diurnalPeriodUs != 0.0 || flashDurationUs != 0.0;
}

double
TraceSpec::peakFactor() const
{
    double peak = 1.0;
    if (process == ArrivalProcess::Mmpp)
        peak *= burstRateMultiplier;
    if (diurnalPeriodUs > 0.0)
        peak *= 1.0 + diurnalAmplitude;
    if (flashDurationUs > 0.0)
        peak *= flashMultiplier;
    return peak;
}

std::string
TraceSpec::error() const
{
    using detail::concat;
    if (!std::isfinite(meanGapUs) || meanGapUs <= 0.0)
        return concat("trace mean inter-arrival gap must be a positive "
                      "finite value, got ",
                      meanGapUs, " (--mean-gap-us)");
    if (maxSamples == 0)
        return "trace max request samples must be nonzero "
               "(maxSamples, --req-samples)";
    if (process == ArrivalProcess::Mmpp) {
        if (!std::isfinite(burstRateMultiplier) ||
            burstRateMultiplier < 1.0)
            return concat("MMPP burst rate multiplier must be >= 1, got ",
                          burstRateMultiplier, " (--mmpp-burst-x)");
        if (!std::isfinite(meanBurstUs) || meanBurstUs <= 0.0 ||
            !std::isfinite(meanCalmUs) || meanCalmUs <= 0.0)
            return concat("MMPP dwell time means must be positive finite "
                          "values, got burst ",
                          meanBurstUs, " calm ", meanCalmUs,
                          " (--mmpp-burst-us, --mmpp-calm-us)");
    }
    if (diurnalPeriodUs != 0.0) {
        if (!std::isfinite(diurnalPeriodUs) || diurnalPeriodUs < 0.0)
            return concat("diurnal period must be a nonnegative finite "
                          "value, got ",
                          diurnalPeriodUs, " (--diurnal-period-us)");
        if (!std::isfinite(diurnalAmplitude) || diurnalAmplitude < 0.0 ||
            diurnalAmplitude >= 1.0)
            return concat("diurnal amplitude must lie in [0, 1), got ",
                          diurnalAmplitude, " (--diurnal-amplitude)");
    }
    if (flashDurationUs != 0.0) {
        if (!std::isfinite(flashStartUs) || flashStartUs < 0.0 ||
            !std::isfinite(flashDurationUs) || flashDurationUs < 0.0)
            return concat("flash crowd window must be nonnegative finite "
                          "values, got start ",
                          flashStartUs, " duration ", flashDurationUs,
                          " (--flash-at-us, --flash-for-us)");
        if (!std::isfinite(flashMultiplier) || flashMultiplier < 1.0)
            return concat("flash crowd multiplier must be >= 1, got ",
                          flashMultiplier, " (--flash-x)");
    }
    return generatorCostError(*this);
}

std::vector<InferenceRequest>
syntheticTrace(const TraceSpec &spec)
{
    const std::string error = spec.error();
    if (!error.empty())
        BF_FATAL(error);
    const std::vector<NetworkName> networks = networkMix(spec);

    Prng prng(spec.seed);
    std::vector<InferenceRequest> trace;
    trace.reserve(spec.requests);
    double clock = 0.0;

    // Arrivals via thinning: generate candidate arrivals from a
    // Poisson stream at the peak rate, then accept each with
    // probability (instantaneous rate / peak rate). The MMPP chain,
    // envelope, and acceptance draws all come from the one seeded
    // PRNG, so a fixed spec reproduces the trace to the bit. A plain
    // Poisson spec has peak 1 and accepts every candidate without a
    // draw, which keeps its stream identical to every earlier release
    // (CI smokes and the serve goldens depend on it).
    RateEnvelope envelope(spec, prng);
    const bool thinned = spec.bursty();
    const double peak = spec.peakFactor();
    const double candidateGapUs = spec.meanGapUs / peak;
    for (std::size_t i = 0; i < spec.requests; ++i) {
        for (;;) {
            clock += prng.nextExponential(candidateGapUs);
            if (!std::isfinite(clock))
                clockOverflow(i, spec);
            if (!thinned)
                break;
            const double accept =
                envelope.rateFactorAt(clock) / peak;
            if (prng.nextDouble() < accept)
                break;
        }
        InferenceRequest req;
        req.id = i;
        req.network = networks[prng.below(networks.size())];
        req.samples =
            1 + static_cast<unsigned>(prng.below(spec.maxSamples));
        req.arrivalUs = clock;
        if (spec.deadlineSlackUs > 0.0)
            req.deadlineUs = clock + spec.deadlineSlackUs;
        trace.push_back(req);
    }
    return trace;
}

std::string
formatTrace(const std::vector<InferenceRequest> &trace)
{
    // Arrivals and deadlines are emitted as shortest round-trip
    // decimals (not fixed precision): a dumped trace parses back to
    // exactly the doubles that were served, so a re-served dump
    // cannot diverge from the original run.
    std::string out;
    out += "# arrival_us network samples [deadline_us]\n";
    for (const auto &req : trace) {
        appendRoundTrip(out, req.arrivalUs);
        out += ' ';
        out += req.network.str();
        out += ' ';
        out += std::to_string(req.samples);
        if (req.deadlineUs > 0.0) {
            out += ' ';
            appendRoundTrip(out, req.deadlineUs);
        }
        out += '\n';
    }
    return out;
}

namespace {

/** isspace() in the C locale: the trace format's field separators. */
bool
isBlank(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r'); // \t \n \v \f \r
}

/** The end of the field that starts at @p at. */
const char *
fieldEnd(const char *at, const char *end)
{
    while (at < end && !isBlank(*at))
        ++at;
    return at;
}

/**
 * Parse the number field at @p at in place: true, with @p at moved
 * past it, when std::from_chars reads the whole field, so "12abc" is
 * an error rather than 12. Otherwise @p at moves to the field's end.
 */
template <typename T>
bool
numberField(const char *&at, const char *end, T &value)
{
    const auto res = std::from_chars(at, end, value);
    if (res.ec == std::errc() && (res.ptr == end || isBlank(*res.ptr))) {
        at = res.ptr;
        return true;
    }
    at = fieldEnd(at, end);
    return false;
}

/** A time field: finite and nonnegative as well. */
bool
timeField(const char *&at, const char *end, double &value)
{
    return numberField(at, end, value) && std::isfinite(value) &&
           value >= 0.0;
}

} // namespace

std::vector<InferenceRequest>
parseTrace(const std::string &text, const std::string &source)
{
    const char *const end = text.data() + text.size();
    const auto lineEnd = [end](const char *at) {
        const void *nl =
            std::memchr(at, '\n', static_cast<std::size_t>(end - at));
        return nl == nullptr ? end : static_cast<const char *>(nl);
    };
    std::size_t lines = 1;
    for (const char *at = text.data(); (at = lineEnd(at)) != end; ++at)
        ++lines;
    std::vector<InferenceRequest> trace;
    trace.reserve(lines);

    // Each distinct name takes the process-wide table's lock once per
    // parse, even when every line names another network. The keys view
    // the table's own strings, which never move.
    std::unordered_map<std::string_view, NetworkName> names;
    std::size_t lineNo = 0;
    // One pass: fields are found where they stand and numbers parsed in
    // place, so '\n' ends a line rather than separating two fields.
    // Each line leaves `at` on its '\n' (or the end); the step moves
    // past it.
    for (const char *at = text.data(); at != end; at += at != end ? 1 : 0) {
        const char *const lineStart = at;
        ++lineNo;
        while (at < end && (*at == ' ' || *at == '\t' || *at == '\r'))
            ++at;
        if (at == end || *at == '\n')
            continue;
        if (*at == '#') {
            at = lineEnd(at);
            continue;
        }

        // Every field of the line is found before any is judged (five
        // are enough to diagnose a trailing column): a malformed or
        // truncated field is reported with its file:line, never
        // silently absorbed into a neighboring column.
        InferenceRequest req;
        std::string_view fields[5];
        bool good[4] = {};
        std::size_t count = 0;
        for (; count < 5; ++count) {
            while (at < end && *at != '\n' && isBlank(*at))
                ++at;
            if (at == end || *at == '\n')
                break;
            const char *first = at;
            switch (count) {
              case 0:
                good[0] = timeField(at, end, req.arrivalUs);
                break;
              case 2:
                good[2] = numberField(at, end, req.samples) &&
                          req.samples != 0;
                break;
              case 3:
                good[3] = timeField(at, end, req.deadlineUs);
                break;
              default:
                at = fieldEnd(at, end);
            }
            fields[count] =
                std::string_view(first, static_cast<std::size_t>(at - first));
        }
        if (count < 3) {
            BF_FATAL(source, ":", lineNo, ": malformed trace line '",
                     std::string_view(lineStart, static_cast<std::size_t>(
                                                     at - lineStart)),
                     "' (want: arrival_us network samples "
                     "[deadline_us])");
        }
        if (count > 4) {
            BF_FATAL(source, ":", lineNo, ": trailing '", fields[4],
                     "' after the deadline column");
        }
        if (!good[0]) {
            BF_FATAL(source, ":", lineNo, ": malformed arrival time '",
                     fields[0], "' (want a nonnegative number)");
        }
        if (!good[2]) {
            BF_FATAL(source, ":", lineNo, ": bad sample count '", fields[2],
                     "'");
        }
        if (count == 4 && !good[3]) {
            BF_FATAL(source, ":", lineNo, ": malformed deadline '",
                     fields[3], "' (want a nonnegative number)");
        }
        if (!trace.empty() && req.arrivalUs < trace.back().arrivalUs)
            BF_FATAL(source, ":", lineNo,
                     ": is out of order (arrival ", req.arrivalUs,
                     " before ", trace.back().arrivalUs, ")");
        req.id = trace.size();
        auto name = names.find(fields[1]);
        if (name == names.end()) {
            const NetworkName interned(fields[1]);
            name = names.emplace(interned.str(), interned).first;
        }
        req.network = name->second;
        trace.push_back(req);
    }
    return trace;
}

} // namespace serve
} // namespace bitfusion
