/**
 * @file
 * The span tracer: Chrome trace-event JSON (loadable in Perfetto or
 * chrome://tracing) across every subsystem, with two clock domains on
 * one timeline document:
 *
 *  - wall clock (pid 1): compile / optimizer passes / autotune sweeps /
 *    cache traffic / micro-op decode, one track per host thread,
 *    microseconds since the tracer was enabled;
 *  - virtual clock (pid >= 2, one process block per serving run): the
 *    serving simulator's event loop — engine-step spans, one async
 *    track per request (arrival -> queued -> prefill chunks -> decode
 *    -> preempt/resume -> finish), and a KV-pool occupancy counter
 *    track. Timestamps are simulated milliseconds, emitted as
 *    microseconds so Perfetto renders both domains with sane zoom.
 *
 * Enabled by TILUS_TRACE=<path> (the document is written at process
 * exit) or programmatically via Tracer::enable(). When disabled, a
 * span is one relaxed atomic load — no allocation, no event, no
 * buffer; instrumentation can stay on hot paths.
 *
 * Thread safety: each thread appends to its own bounded buffer
 * (registered once under a mutex, then written lock-free by its owner);
 * flush() merges and stable-sorts all buffers by (pid, tid, ts). A
 * full buffer drops further events and counts the drops in otherData
 * rather than blocking or reallocating without bound.
 *
 * Span events are emitted as balanced B/E pairs, request lifecycles as
 * async-nestable b/n/e triplets keyed by (category, id), counters as C
 * events; tools/check_trace.py validates all three invariants.
 * Document and event keys are emitted in sorted order and the event
 * order is deterministic for a deterministic emission sequence — the
 * schema is pinned by a golden test (tests/test_obs.cc).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.h"

namespace tilus {
namespace obs {

/** One trace event; normally built via Tracer/Span helpers. */
struct TraceEvent
{
    char ph = 'B';      ///< B E (spans), b n e (async), i (instant), C, M
    int32_t pid = 1;    ///< 1 = wall clock; >= 2 = virtual clock domains
    int32_t tid = -1;   ///< -1 = resolve to the emitting thread's track
    uint64_t id = 0;    ///< async series id (ph b/n/e only)
    double ts_us = 0;
    const char *cat = ""; ///< subsystem category; must outlive the trace
    std::string name;
    std::string args_json; ///< rendered args object, "" = none
};

/** The process tracer (see file header). */
class Tracer
{
  public:
    /** Process singleton; arms itself from TILUS_TRACE on first use. */
    static Tracer &instance();

    Tracer() = default;

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Start recording; flush() (and process exit, when armed by the
     * environment) writes the document to @p path. Resets all buffers,
     * restarts the wall clock at 0, and resets virtual pid allocation.
     * Not safe to call concurrently with emission.
     */
    void enable(const std::string &path);

    /** Stop recording and discard buffered events (tests). */
    void disable();

    /** Assemble the trace document (also callable after disable()). */
    std::string document() const;

    /** Write document() to the enable() path; returns success. */
    bool flush();

    /** Override an otherData entry (e.g. pin build_info in goldens). */
    void setMetadata(const std::string &key, const std::string &value);

    /** Microseconds of wall clock since enable(). */
    double nowUs() const;

    /** Append an event (no-op when disabled). ts_us must already be
        set for virtual-domain events; wall helpers below stamp it. */
    void emit(TraceEvent event);

    // ---------------------------------------------- wall-clock helpers
    void begin(const char *cat, const std::string &name);
    void end(const char *cat, const std::string &name,
             const json::Object &args);
    /** Wall-clock instant event (ph 'i', thread scope) — marks a point
        occurrence such as a fault injection; carries @p args. */
    void instant(const char *cat, const std::string &name,
                 const json::Object &args = {});

    // ------------------------------------------- virtual-clock helpers
    /**
     * Allocate a virtual-clock process block and emit its metadata;
     * every serving run gets its own so per-track timestamps stay
     * monotonic across runs. Returns the pid (>= 2), or 0 when
     * disabled.
     */
    int virtualProcess(const std::string &name);

    void virtualBegin(int pid, const char *cat, const std::string &name,
                      double ts_ms, const json::Object &args = {});
    void virtualEnd(int pid, const char *cat, const std::string &name,
                    double ts_ms, const json::Object &args = {});
    void virtualCounter(int pid, const std::string &name, double ts_ms,
                        double value);
    /** Counter sample on an explicit category (e.g. "series" for the
        per-window report series tracks). */
    void virtualCounter(int pid, const char *cat, const std::string &name,
                        double ts_ms, double value);
    void asyncBegin(int pid, const char *cat, const std::string &name,
                    uint64_t id, double ts_ms);
    void asyncInstant(int pid, const char *cat, const std::string &name,
                      uint64_t id, double ts_ms);
    void asyncEnd(int pid, const char *cat, const std::string &name,
                  uint64_t id, double ts_ms);

    // ------------------------------------------------- introspection
    int64_t eventCount() const;
    int threadBufferCount() const;
    int64_t droppedEvents() const;

    /** Per-thread buffer capacity in events (drops past this). */
    static constexpr int64_t kMaxEventsPerThread = 1 << 21;

  private:
    struct ThreadBuffer
    {
        int32_t tid = 0;
        int64_t dropped = 0;
        std::vector<TraceEvent> events;
    };

    ThreadBuffer *threadBuffer();

    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> epoch_{0};
    std::atomic<int32_t> next_virtual_pid_{2};
    std::atomic<int64_t> clock_anchor_ns_{0};

    mutable std::mutex mutex_; ///< buffers_/meta_/metadata_/path_
    std::string path_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
    std::vector<TraceEvent> meta_events_;
    std::vector<std::pair<std::string, std::string>> metadata_;
};

/**
 * RAII wall-clock span: B at construction, E (carrying the args) at
 * destruction. When the tracer is disabled construction is a relaxed
 * atomic load and nothing else — guard only *argument computation*
 * with live().
 */
class Span
{
  public:
    Span(const char *cat, const std::string &name);
    Span(const char *cat, const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** True when the span records events (tracer was enabled). */
    bool live() const { return live_; }

    /** Add an arg to the E event (no-op when not live). */
    template <typename T>
    Span &
    arg(const char *key, const T &value)
    {
        if (live_)
            args_.add(key, value);
        return *this;
    }

  private:
    bool live_;
    const char *cat_ = "";
    std::string name_;
    json::Object args_;
};

} // namespace obs
} // namespace tilus
