/**
 * @file
 * The process-wide metrics registry: named counters and gauges shared
 * by every subsystem (kernel-cache hit/miss, tune-db warm/cold,
 * compile-pool depth, micro-op fallbacks, serving preemptions, ...).
 *
 * Fast path: a metric handle is an atomic the caller keeps a reference
 * to (registration returns a stable reference; look it up once via a
 * function-local static). Updates are single relaxed atomic operations
 * — lock-free, safe from any thread, and cheap enough for per-run
 * bookkeeping on hot simulator paths. The registry mutex is only taken
 * on first registration and when dumping.
 *
 * Dumps: toJson() (sorted keys, machine-diffable) and toPrometheus()
 * (text exposition format). Setting TILUS_METRICS=<path> writes a dump
 * at process exit — a ".prom" suffix selects the Prometheus format,
 * anything else JSON.
 *
 * Naming contract: metric names are Prometheus-compatible
 * ([a-z_][a-z0-9_]*), unprefixed here; dumps prepend "tilus_".
 * Counters end in "_total". See src/obs/README.md for the author
 * contract.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace tilus {
namespace obs {

/** A monotonically increasing integer metric. */
class Counter
{
  public:
    void
    add(int64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    int64_t value() const { return value_.load(std::memory_order_relaxed); }

    void zero() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/** A settable point-in-time value. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    void
    add(double d)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + d,
                                             std::memory_order_relaxed)) {
        }
    }

    double value() const { return value_.load(std::memory_order_relaxed); }

    void zero() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0};
};

/** The process-wide metric store (see file header). */
class Registry
{
  public:
    /** The process singleton (TILUS_METRICS exit dump armed here). */
    static Registry &instance();

    Registry() = default;

    /** Get-or-create; the returned reference is stable for the
        registry's lifetime. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);

    /** Value of a registered counter, 0 when absent (bench summaries). */
    int64_t counterValue(const std::string &name) const;

    /** Value of a registered gauge, 0 when absent. */
    double gaugeValue(const std::string &name) const;

    /** All metrics as one JSON object (names sorted). */
    std::string toJson() const;

    /** Prometheus text exposition format ("tilus_" prefix added). */
    std::string toPrometheus() const;

    /** Write toPrometheus() when @p path ends in ".prom", else toJson(). */
    bool writeFile(const std::string &path) const;

    /** Zero every registered metric (handles stay valid). Tests only. */
    void zeroAllForTest();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

} // namespace obs
} // namespace tilus
