#include "perfbench/tracing.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/json.h"

namespace perfbench {

using namespace bitfusion;

namespace {

/** Spans this thread has open, innermost last. */
thread_local std::vector<int> openSpans;
/** This thread's dense id; -1 until its first span. */
thread_local int threadId = -1;

/** "sim" for "sim.run": the Chrome trace category. */
std::string
moduleOf(const std::string &layer)
{
    return layer.substr(0, layer.find('.'));
}

/** Length of the union of @p intervals clipped to [lo, hi]. */
double
unionLength(std::vector<std::pair<double, double>> intervals, double lo,
            double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = lo;
    for (auto [a, b] : intervals) {
        a = std::max(a, reach);
        b = std::min(b, hi);
        if (b > a) {
            covered += b - a;
            reach = b;
        }
    }
    return covered;
}

/** Delegates to a built platform and times compile() and run(). */
class TracedPlatform : public Platform
{
  public:
    TracedPlatform(std::unique_ptr<Platform> inner, const char *runLayer)
        : inner_(std::move(inner)), runLayer_(runLayer)
    {
    }

    std::string name() const override { return inner_->name(); }
    PlatformInfo describe() const override { return inner_->describe(); }
    std::string compileKey() const override { return inner_->compileKey(); }

    PlatformArtifactPtr
    compile(const Network &net) const override
    {
        Scope span("compiler.compile");
        return inner_->compile(net);
    }

    RunStats
    run(const Network &net, const RunOptions &opts) const override
    {
        Scope span(runLayer_);
        return inner_->run(net, opts);
    }

  private:
    std::unique_ptr<Platform> inner_;
    const char *runLayer_;
};

const std::string kTracedPrefix = "traced.";

} // namespace

double
secondsSince(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::enable(Clock::time_point origin)
{
    origin_ = origin;
    enabled_ = true;
}

int
Tracer::begin(const char *layer)
{
    if (!enabled_)
        return -1;
    Span span;
    span.layer = layer;
    span.startS = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    if (threadId < 0)
        threadId = static_cast<int>(threads_++);
    span.thread = static_cast<unsigned>(threadId);
    span.parent = openSpans.empty() ? mainTop_ : openSpans.back();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(span);
    openSpans.push_back(id);
    if (threadId == 0)
        mainTop_ = id;
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    const double now = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].endS = now;
    openSpans.pop_back();
    if (threadId == 0)
        mainTop_ = openSpans.empty() ? -1 : openSpans.back();
}

Breakdown
breakdown(const std::vector<Span> &spans)
{
    Breakdown out;
    const std::size_t n = spans.size();
    std::vector<std::vector<std::pair<double, double>>> children(n);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.startS, s.endS});
    }
    for (std::size_t i = 0; i < n; ++i) {
        const Span &s = spans[i];
        LayerTime &t = out.layers[s.layer];
        const double dur = s.endS - s.startS;
        ++t.spans;
        t.totalS += dur;
        t.selfS += dur - unionLength(children[i], s.startS, s.endS);
    }

    // Sweep the timeline: each elementary interval goes to the open
    // spans that have no open child, split evenly among them.
    struct Event
    {
        double t;
        bool open;
        int id;
    };
    std::vector<Event> events;
    events.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        events.push_back({spans[i].startS, true, static_cast<int>(i)});
        events.push_back({spans[i].endS, false, static_cast<int>(i)});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) { return a.t < b.t; });
    std::vector<int> open;
    std::vector<int> openChildren(n, 0);
    std::vector<int> exposed;
    for (std::size_t e = 0; e < events.size();) {
        const double t = events[e].t;
        for (; e < events.size() && events[e].t == t; ++e) {
            const Event &ev = events[e];
            const int parent = spans[static_cast<std::size_t>(ev.id)].parent;
            if (ev.open) {
                open.push_back(ev.id);
            } else {
                open.erase(std::find(open.begin(), open.end(), ev.id));
            }
            if (parent >= 0)
                openChildren[static_cast<std::size_t>(parent)] +=
                    ev.open ? 1 : -1;
        }
        if (open.empty() || e == events.size())
            continue;
        const double len = events[e].t - t;
        exposed.clear();
        for (int id : open) {
            if (openChildren[static_cast<std::size_t>(id)] == 0)
                exposed.push_back(id);
        }
        out.coveredS += len;
        for (int id : exposed) {
            out.layers[spans[static_cast<std::size_t>(id)].layer].wallS +=
                len / static_cast<double>(exposed.size());
        }
    }
    return out;
}

std::string
chromeTrace(const std::vector<Span> &spans)
{
    json::Value events = json::Value::array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        events.push(
            json::Value::object()
                .set("name", s.layer)
                .set("cat", moduleOf(s.layer))
                .set("ph", "X")
                .set("ts", s.startS * 1e6)
                .set("dur", (s.endS - s.startS) * 1e6)
                .set("pid", 1)
                .set("tid", s.thread)
                .set("args", json::Value::object()
                                 .set("id", static_cast<std::uint64_t>(i))
                                 .set("parent", s.parent)));
    }
    return json::Value::object()
        .set("traceEvents", std::move(events))
        .set("displayTimeUnit", "ms")
        .dump();
}

void
registerTracedKinds()
{
    PlatformRegistry &registry = PlatformRegistry::builtin();
    const std::vector<PlatformRegistry::Entry> builtins = registry.entries();
    for (const PlatformRegistry::Entry &entry : builtins) {
        PlatformRegistry::Entry traced = entry;
        traced.kind = kTracedPrefix + entry.kind;
        const char *runLayer =
            entry.kind == "bitfusion" ? "sim.run" : "baselines.run";
        traced.build = [build = entry.build,
                        runLayer](const PlatformSpec &spec) {
            Scope span("core.build");
            return std::make_unique<TracedPlatform>(build(spec), runLayer);
        };
        registry.add(std::move(traced));
    }
}

void
useTracedKinds(std::vector<PlatformSpec> &specs)
{
    for (PlatformSpec &spec : specs) {
        if (spec.kind.rfind(kTracedPrefix, 0) != 0)
            spec.kind = kTracedPrefix + spec.kind;
    }
}

} // namespace perfbench
