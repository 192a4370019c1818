/**
 * @file
 * In-memory span log for the benchmark's traced run.
 *
 * Spans are recorded by the benchmark itself around each call it makes
 * into a layer of the simulator (never inside the program). Each span
 * has a dotted name whose first component names the layer ("sim",
 * "trace", "detector", ...), a start and end time, the span that
 * enclosed it, and the id of the unit it belongs to. The log is kept
 * in memory and written out when the benchmark ends; a layer's self
 * time is its spans' duration minus the time covered by their direct
 * children.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One recorded span; times are nanoseconds since the log opened. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span, or -1 for a root. */
    std::int64_t parent = -1;
    std::string unit;
};

/**
 * Span recorder. Disabled logs record nothing and cost one branch per
 * span, so the untraced runs never pay for tracing.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; @return its index. */
    std::int64_t open(const std::string &name, const std::string &unit);
    /** Close span @p id (must be the innermost open span). */
    void close(std::int64_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self milliseconds per layer (first dotted name component). */
    std::map<std::string, double> selfMsByLayer() const;

    /** The whole log as a JSON document (`hard.perfbench.spans.v1`). */
    hard::Json toJson() const;

    /**
     * Measured cost of recording one span (open + close), in
     * nanoseconds; used to state the traced run's own overhead.
     */
    static double costPerSpanNs();

  private:
    std::int64_t nowNs() const;

    bool enabled_;
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::int64_t> stack_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name,
               const std::string &unit = "")
        : log_(log), id_(log.enabled() ? log.open(name, unit) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (id_ >= 0)
            log_.close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    std::int64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
