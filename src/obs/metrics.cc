#include "obs/metrics.h"

#include <sstream>

#include "obs/sink.h"
#include "support/json.h"

namespace tilus {
namespace obs {

Registry &
Registry::instance()
{
    // Leaked on purpose: the exit dump (and late metric updates from
    // static destructors) must never race registry destruction.
    static Registry *registry = new Registry();
    static const std::string *path = new std::string(armExitSink(
        "TILUS_METRICS", [] { registry->writeFile(*path); }));
    return *registry;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

int64_t
Registry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second->value();
}

double
Registry::gaugeValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0 : it->second->value();
}

std::string
Registry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    json::Object counters, gauges;
    for (const auto &[name, c] : counters_)
        counters.add(name, c->value());
    for (const auto &[name, g] : gauges_)
        gauges.raw(name, json::exact(g->value()));
    return json::Object()
        .raw("counters", counters.str())
        .raw("gauges", gauges.str())
        .str();
}

std::string
Registry::toPrometheus() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream oss;
    for (const auto &[name, c] : counters_) {
        oss << "# TYPE tilus_" << name << " counter\n"
            << "tilus_" << name << " " << c->value() << "\n";
    }
    for (const auto &[name, g] : gauges_) {
        oss << "# TYPE tilus_" << name << " gauge\n"
            << "tilus_" << name << " " << json::exact(g->value()) << "\n";
    }
    return oss.str();
}

bool
Registry::writeFile(const std::string &path) const
{
    const bool prom = path.size() >= 5 &&
                      path.compare(path.size() - 5, 5, ".prom") == 0;
    return writeSink("TILUS_METRICS", path,
                     prom ? toPrometheus() : toJson() + "\n");
}

void
Registry::zeroAllForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, c] : counters_)
        c->zero();
    for (auto &[name, g] : gauges_)
        g->zero();
}

} // namespace obs
} // namespace tilus
