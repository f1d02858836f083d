/**
 * @file
 * Host-time spans for the benchmark's traced runs.
 *
 * Spans are recorded from the benchmark's own code, around the public
 * library calls each layer is entered through, and are kept in memory
 * until the process ends. Platform::compile and Platform::run happen
 * inside the sweep runner's and serving engine's worker pools, so the
 * traced runs reach them through wrapper platform kinds registered on
 * the library's own plug-in door (PlatformRegistry::add): every
 * built-in kind K gets a "traced.K" twin that builds the real platform
 * and times its compile() and run() calls.
 */

#ifndef PERFBENCH_TRACING_H
#define PERFBENCH_TRACING_H

#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/platform_registry.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p since. */
double secondsSince(Clock::time_point since);

/** One closed span: one call into one layer, on one thread. */
struct Span
{
    /** Layer name, "module.call" (e.g. "sim.run"). */
    const char *layer = "";
    /** Seconds since the tracer's origin. */
    double startS = 0.0;
    double endS = 0.0;
    /** Index of the span that caused this one; -1 at top level. */
    int parent = -1;
    /** Dense id of the recording thread, in order of first use. */
    unsigned thread = 0;
};

/**
 * In-memory span recorder, off until enable(). The first thread to
 * open a span is the main thread. A span opened on another thread with
 * no open span of its own -- a library worker -- nests under the main
 * thread's innermost open span, which is where every library worker
 * pool is started from.
 */
class Tracer
{
  public:
    static Tracer &instance();

    /** Start recording; span times count from @p origin. */
    void enable(Clock::time_point origin);

    /** Open a span; returns its id, or -1 when disabled. */
    int begin(const char *layer);
    /** Close the span @p id returned by begin(). */
    void end(int id);

    /** The recorded spans; read after every worker has joined. */
    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_ = false;
    Clock::time_point origin_;
    std::mutex mutex_;
    std::vector<Span> spans_;
    unsigned threads_ = 0;
    /** Innermost open span of the enabling thread (-1: none). */
    int mainTop_ = -1;
};

/** RAII span around one call. */
class Scope
{
  public:
    explicit Scope(const char *layer)
        : id_(Tracer::instance().begin(layer))
    {
    }
    ~Scope() { Tracer::instance().end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int id_;
};

/** Host time of one layer over a trace. */
struct LayerTime
{
    std::size_t spans = 0;
    /** Summed span durations. */
    double totalS = 0.0;
    /** Summed durations minus the part their child spans cover. */
    double selfS = 0.0;
    /**
     * Share of the wall clock: each instant goes to the spans that
     * are open and have no open child, split evenly when several
     * threads are busy at once. The shares of all layers add up to
     * the time any span covers.
     */
    double wallS = 0.0;
};

/** Per-layer accounting of a trace. */
struct Breakdown
{
    std::map<std::string, LayerTime> layers;
    /** Wall time covered by at least one span. */
    double coveredS = 0.0;
};

Breakdown breakdown(const std::vector<Span> &spans);

/** Chrome Trace Event JSON (opens in Perfetto or chrome://tracing). */
std::string chromeTrace(const std::vector<Span> &spans);

/** Register a "traced.K" twin of every built-in platform kind K. */
void registerTracedKinds();

/** Point @p specs at the traced twins of their kinds. */
void useTracedKinds(std::vector<bitfusion::PlatformSpec> &specs);

} // namespace perfbench

#endif // PERFBENCH_TRACING_H
