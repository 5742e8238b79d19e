#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/build_info.h"
#include "obs/sink.h"

namespace tilus {
namespace obs {

namespace {

int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// Fixed-point microseconds: the one number format not from
// support/json.h, pinned by the trace golden.
std::string
fmtTs(double ts_us)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", ts_us);
    return buf;
}

// The metadata event that names a process or thread track.
TraceEvent
metaEvent(int32_t pid, int32_t tid, const char *what,
          const std::string &label)
{
    TraceEvent e;
    e.ph = 'M';
    e.pid = pid;
    e.tid = tid;
    e.cat = "__metadata";
    e.name = what;
    e.args_json = json::Object().add("name", label).str();
    return e;
}

// Per-thread slot into the tracer's buffer table. The epoch check
// invalidates the cached pointer whenever enable() resets the buffers,
// so a stale thread never writes into a freed or recycled buffer.
struct ThreadSlot
{
    uint64_t epoch = 0;
    void *buffer = nullptr;
};

thread_local ThreadSlot t_slot;

} // namespace

// --------------------------------------------------------------- Tracer

Tracer &
Tracer::instance()
{
    // Leaked on purpose: the atexit flush (and spans living in static
    // destructors) must never race tracer destruction.
    static Tracer *tracer = [] {
        Tracer *t = new Tracer();
        const std::string path = armExitSink(
            "TILUS_TRACE", [] { Tracer::instance().flush(); });
        if (!path.empty())
            t->enable(path);
        return t;
    }();
    return *tracer;
}

void
Tracer::enable(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    path_ = path;
    buffers_.clear();
    meta_events_.clear();
    metadata_.clear();
    metadata_.emplace_back("build_info", buildInfo());
    next_virtual_pid_.store(2, std::memory_order_relaxed);
    clock_anchor_ns_.store(steadyNowNs(), std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    enabled_.store(true, std::memory_order_release);

    meta_events_.push_back(
        metaEvent(1, 0, "process_name", "tilus (wall clock)"));
}

void
Tracer::disable()
{
    enabled_.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.clear();
    meta_events_.clear();
    metadata_.clear();
    path_.clear();
    epoch_.fetch_add(1, std::memory_order_release);
}

void
Tracer::setMetadata(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &kv : metadata_) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    metadata_.emplace_back(key, value);
}

double
Tracer::nowUs() const
{
    const int64_t anchor = clock_anchor_ns_.load(std::memory_order_relaxed);
    return static_cast<double>(steadyNowNs() - anchor) / 1000.0;
}

Tracer::ThreadBuffer *
Tracer::threadBuffer()
{
    const uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (t_slot.buffer && t_slot.epoch == epoch)
        return static_cast<ThreadBuffer *>(t_slot.buffer);

    std::lock_guard<std::mutex> lock(mutex_);
    // Re-check under the lock: enable()/disable() may have bumped the
    // epoch again between the load above and acquiring the mutex.
    if (!enabled_.load(std::memory_order_relaxed))
        return nullptr;
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = static_cast<int32_t>(buffers_.size());
    ThreadBuffer *raw = buffer.get();
    buffers_.push_back(std::move(buffer));

    meta_events_.push_back(metaEvent(1, raw->tid, "thread_name",
                                     "thread " + std::to_string(raw->tid)));

    t_slot.epoch = epoch_.load(std::memory_order_relaxed);
    t_slot.buffer = raw;
    return raw;
}

void
Tracer::emit(TraceEvent event)
{
    if (!enabled())
        return;
    ThreadBuffer *buffer = threadBuffer();
    if (!buffer)
        return;
    if (static_cast<int64_t>(buffer->events.size()) >= kMaxEventsPerThread) {
        // Drop-newest keeps already-recorded B/E pairs balanced;
        // drop-oldest would orphan E events.
        ++buffer->dropped;
        return;
    }
    if (event.tid < 0)
        event.tid = buffer->tid;
    buffer->events.push_back(std::move(event));
}

void
Tracer::begin(const char *cat, const std::string &name)
{
    if (!enabled())
        return;
    TraceEvent e;
    e.ph = 'B';
    e.pid = 1;
    e.ts_us = nowUs();
    e.cat = cat;
    e.name = name;
    emit(std::move(e));
}

void
Tracer::end(const char *cat, const std::string &name,
            const json::Object &args)
{
    if (!enabled())
        return;
    TraceEvent e;
    e.ph = 'E';
    e.pid = 1;
    e.ts_us = nowUs();
    e.cat = cat;
    e.name = name;
    if (!args.empty())
        e.args_json = args.str();
    emit(std::move(e));
}

void
Tracer::instant(const char *cat, const std::string &name,
                const json::Object &args)
{
    if (!enabled())
        return;
    TraceEvent e;
    e.ph = 'i';
    e.pid = 1;
    e.ts_us = nowUs();
    e.cat = cat;
    e.name = name;
    if (!args.empty())
        e.args_json = args.str();
    emit(std::move(e));
}

int
Tracer::virtualProcess(const std::string &name)
{
    if (!enabled())
        return 0;
    const int pid = next_virtual_pid_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    meta_events_.push_back(
        metaEvent(pid, 0, "process_name", name + " (virtual clock)"));
    return pid;
}

void
Tracer::virtualBegin(int pid, const char *cat, const std::string &name,
                     double ts_ms, const json::Object &args)
{
    TraceEvent e;
    e.ph = 'B';
    e.pid = pid;
    e.tid = 0;
    e.ts_us = ts_ms * 1000.0;
    e.cat = cat;
    e.name = name;
    if (!args.empty())
        e.args_json = args.str();
    emit(std::move(e));
}

void
Tracer::virtualEnd(int pid, const char *cat, const std::string &name,
                   double ts_ms, const json::Object &args)
{
    TraceEvent e;
    e.ph = 'E';
    e.pid = pid;
    e.tid = 0;
    e.ts_us = ts_ms * 1000.0;
    e.cat = cat;
    e.name = name;
    if (!args.empty())
        e.args_json = args.str();
    emit(std::move(e));
}

void
Tracer::virtualCounter(int pid, const std::string &name, double ts_ms,
                       double value)
{
    virtualCounter(pid, "serving", name, ts_ms, value);
}

void
Tracer::virtualCounter(int pid, const char *cat, const std::string &name,
                       double ts_ms, double value)
{
    TraceEvent e;
    e.ph = 'C';
    e.pid = pid;
    e.tid = 0;
    e.ts_us = ts_ms * 1000.0;
    e.cat = cat;
    e.name = name;
    e.args_json = json::Object().add("value", value).str();
    emit(std::move(e));
}

void
Tracer::asyncBegin(int pid, const char *cat, const std::string &name,
                   uint64_t id, double ts_ms)
{
    TraceEvent e;
    e.ph = 'b';
    e.pid = pid;
    e.tid = 0;
    e.id = id;
    e.ts_us = ts_ms * 1000.0;
    e.cat = cat;
    e.name = name;
    emit(std::move(e));
}

void
Tracer::asyncInstant(int pid, const char *cat, const std::string &name,
                     uint64_t id, double ts_ms)
{
    TraceEvent e;
    e.ph = 'n';
    e.pid = pid;
    e.tid = 0;
    e.id = id;
    e.ts_us = ts_ms * 1000.0;
    e.cat = cat;
    e.name = name;
    emit(std::move(e));
}

void
Tracer::asyncEnd(int pid, const char *cat, const std::string &name,
                 uint64_t id, double ts_ms)
{
    TraceEvent e;
    e.ph = 'e';
    e.pid = pid;
    e.tid = 0;
    e.id = id;
    e.ts_us = ts_ms * 1000.0;
    e.cat = cat;
    e.name = name;
    emit(std::move(e));
}

int64_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    int64_t n = 0;
    for (const auto &buffer : buffers_)
        n += static_cast<int64_t>(buffer->events.size());
    return n;
}

int
Tracer::threadBufferCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(buffers_.size());
}

int64_t
Tracer::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    int64_t n = 0;
    for (const auto &buffer : buffers_)
        n += buffer->dropped;
    return n;
}

namespace {

// Event JSON with keys in alphabetical order: args, cat, id, name, ph,
// pid, tid, ts. "args" is omitted when empty, "id" only on async
// phases. Pinned by the golden schema test.
std::string
renderEvent(const TraceEvent &e)
{
    json::Object o;
    if (!e.args_json.empty())
        o.raw("args", e.args_json);
    o.add("cat", e.cat);
    if (e.ph == 'b' || e.ph == 'n' || e.ph == 'e')
        o.add("id", std::to_string(e.id));
    return o.add("name", e.name)
        .add("ph", std::string(1, e.ph))
        .add("pid", int64_t{e.pid})
        .add("tid", int64_t{e.tid})
        .raw("ts", fmtTs(e.ts_us))
        .str();
}

} // namespace

std::string
Tracer::document() const
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Metadata events first, then every buffered event.
    std::vector<const TraceEvent *> events;
    for (const auto &meta : meta_events_)
        events.push_back(&meta);
    int64_t dropped = 0;
    for (const auto &buffer : buffers_) {
        dropped += buffer->dropped;
        for (const auto &e : buffer->events)
            events.push_back(&e);
    }
    // Stable sort keeps emission order for equal timestamps, which is
    // what preserves B-before-E for zero-length spans.
    std::stable_sort(events.begin() + static_cast<std::ptrdiff_t>(
                                          meta_events_.size()),
                     events.end(),
                     [](const TraceEvent *a, const TraceEvent *b) {
                         if (a->pid != b->pid)
                             return a->pid < b->pid;
                         if (a->tid != b->tid)
                             return a->tid < b->tid;
                         return a->ts_us < b->ts_us;
                     });

    json::Object other;
    for (const auto &[key, value] : metadata_)
        other.add(key, value);
    if (dropped > 0)
        other.add("dropped_events", std::to_string(dropped));
    // Keys in sorted order. The events, one per line, are appended in
    // place rather than joined: a large trace holds millions of them.
    std::string doc = "{\"displayTimeUnit\":\"ms\",\"otherData\":" +
                      other.str() + ",\"traceEvents\":[";
    for (size_t i = 0; i < events.size(); ++i)
        doc += (i ? ",\n" : "\n") + renderEvent(*events[i]);
    doc += "\n]}\n";
    return doc;
}

bool
Tracer::flush()
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        path = path_;
    }
    return !path.empty() && writeSink("TILUS_TRACE", path, document());
}

// ----------------------------------------------------------------- Span

Span::Span(const char *cat, const std::string &name)
    : live_(Tracer::instance().enabled())
{
    if (live_) {
        cat_ = cat;
        name_ = name;
        Tracer::instance().begin(cat_, name_);
    }
}

Span::Span(const char *cat, const char *name)
    : live_(Tracer::instance().enabled())
{
    if (live_) {
        cat_ = cat;
        name_ = name;
        Tracer::instance().begin(cat_, name_);
    }
}

Span::~Span()
{
    if (live_)
        Tracer::instance().end(cat_, name_, args_);
}

} // namespace obs
} // namespace tilus
