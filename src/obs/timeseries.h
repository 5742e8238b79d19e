/**
 * @file
 * Fixed-window time-series over the virtual clock: named channels
 * accumulate either point events (tokens emitted, preemptions) or
 * time-weighted integrals (queue depth, decode batch, KV occupancy)
 * into windows of a fixed width, and render per-window values — the
 * "series" block of a ServingReport and the per-window counter tracks
 * in the trace. Windows are indexed from t=0 on the run's own virtual
 * clock; memory is O(makespan / window), independent of request count.
 *
 * Channel kinds:
 *  - kRatePerSec: add(t, n) accumulates n into t's window; the window
 *    value is sum * 1000 / effective_window_ms (a per-second rate,
 *    e.g. throughput tok/s). The last window is normalized by its
 *    actual duration (end_ms - window start), not the full width.
 *  - kCount: add(t, n); the window value is the raw sum (preemptions).
 *  - kMean: integrate(t0, t1, v) spreads v * overlap_ms across the
 *    windows [t0, t1) intersects; the window value is
 *    integral / effective_window_ms — a time-weighted mean in which
 *    idle gaps count as zero, matching the report-level means.
 *
 * merge() adds per-window accumulators channel-by-channel (matched by
 * name) and extends to the later end time: rates and counts become
 * fleet totals, means become fleet-summed time-weighted means —
 * exactly what a cluster router wants from N replica series.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tilus {
namespace obs {

class Tracer;

/** The fixed-window series (see file header). */
class TimeSeries
{
  public:
    enum class Kind { kRatePerSec, kCount, kMean };

    /** Disabled: every mutator is a no-op, toJson() renders an empty
        series. */
    TimeSeries() = default;

    /** Enabled with windows of @p window_ms virtual milliseconds
        (fatal if <= 0; pass a default-constructed series to disable). */
    explicit TimeSeries(double window_ms);

    bool enabled() const { return window_ms_ > 0; }
    double windowMs() const { return window_ms_; }

    /** Get-or-create channel @p name (stable handle; creation order is
        serialization order). Fatal if @p name exists with another
        kind. Returns -1 when disabled. */
    int channel(const std::string &name, Kind kind);

    /** Accumulate @p n at time @p t_ms (kRatePerSec / kCount only). */
    void add(int ch, double t_ms, double n);

    /** Accumulate v * dt over [t0, t1) (kMean only). */
    void integrate(int ch, double t0_ms, double t1_ms, double v);

    /** Pin the series end (>= the largest time seen); windows becomes
        ceil(end / window) and the last window normalizes by its actual
        duration. Callable repeatedly; the end only moves forward. */
    void finalize(double end_ms);

    int64_t windows() const;

    /** Normalized value of @p ch in window @p w (see Kind). */
    double value(int ch, int64_t w) const;

    /** Raw accumulator of @p ch in window @p w (sum or integral). */
    double raw(int ch, int64_t w) const;

    int channelCount() const { return static_cast<int>(names_.size()); }
    const std::string &channelName(int ch) const { return names_[ch]; }
    Kind channelKind(int ch) const { return kinds_[ch]; }

    /** Fold @p other in: same window_ms required (fatal otherwise);
        channels matched by name (created on demand, kinds must agree);
        per-window accumulators add; end extends to the max. Merging a
        disabled series is a no-op; merging into a disabled series
        adopts the other wholesale. */
    void merge(const TimeSeries &other);

    /**
     * Deterministic JSON:
     * {"window_ms":W,"windows":N,"<channel>":[v0,...],...}
     * with channels in creation order and values via json::num
     * (matching ServingReport's number style). Disabled renders
     * {"window_ms":0,"windows":0}.
     */
    std::string toJson() const;

    /**
     * Emit every (channel, window) as a virtual-clock counter sample
     * under category @p cat, named "win:<channel>", stamped at the
     * window's start time — the per-window counter tracks
     * tools/check_trace.py validates (strictly increasing, uniformly
     * spaced timestamps per track).
     */
    void emitCounters(Tracer &tracer, int pid,
                      const char *cat = "series") const;

  private:
    /** Duration actually covered by window @p w (last may be short). */
    double effectiveMs(int64_t w) const;
    std::vector<double> &grown(int ch, int64_t w);

    double window_ms_ = 0;
    double end_ms_ = 0;
    std::vector<std::string> names_;
    std::vector<Kind> kinds_;
    std::vector<std::vector<double>> acc_; ///< per-channel, per-window
};

} // namespace obs
} // namespace tilus
