#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "support/error.h"
#include "support/json.h"

namespace tilus {
namespace obs {

TimeSeries::TimeSeries(double window_ms) : window_ms_(window_ms)
{
    TILUS_FATAL_IF(!(window_ms > 0),
                   "TimeSeries window must be positive, got "
                       << window_ms
                       << " (default-construct to disable)");
}

int
TimeSeries::channel(const std::string &name, Kind kind)
{
    if (!enabled())
        return -1;
    for (size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name) {
            TILUS_FATAL_IF(kinds_[i] != kind,
                           "TimeSeries channel " << name
                                                 << " re-registered with "
                                                    "a different kind");
            return static_cast<int>(i);
        }
    }
    names_.push_back(name);
    kinds_.push_back(kind);
    acc_.emplace_back();
    return static_cast<int>(names_.size()) - 1;
}

std::vector<double> &
TimeSeries::grown(int ch, int64_t w)
{
    std::vector<double> &a = acc_[static_cast<size_t>(ch)];
    if (w >= static_cast<int64_t>(a.size()))
        a.resize(static_cast<size_t>(w + 1), 0.0);
    return a;
}

void
TimeSeries::add(int ch, double t_ms, double n)
{
    if (!enabled())
        return;
    TILUS_CHECK(kinds_[static_cast<size_t>(ch)] != Kind::kMean);
    const int64_t w = static_cast<int64_t>(
        std::max(t_ms, 0.0) / window_ms_);
    grown(ch, w)[static_cast<size_t>(w)] += n;
    end_ms_ = std::max(end_ms_, t_ms);
}

void
TimeSeries::integrate(int ch, double t0_ms, double t1_ms, double v)
{
    if (!enabled())
        return;
    TILUS_CHECK(kinds_[static_cast<size_t>(ch)] == Kind::kMean);
    if (!(t1_ms > t0_ms))
        return;
    const double t0 = std::max(t0_ms, 0.0);
    const int64_t w0 = static_cast<int64_t>(t0 / window_ms_);
    const int64_t w1 = static_cast<int64_t>(t1_ms / window_ms_);
    std::vector<double> &a = grown(ch, w1);
    for (int64_t w = w0; w <= w1; ++w) {
        const double lo = std::max(t0, static_cast<double>(w) * window_ms_);
        const double hi =
            std::min(t1_ms, static_cast<double>(w + 1) * window_ms_);
        if (hi > lo)
            a[static_cast<size_t>(w)] += v * (hi - lo);
    }
    end_ms_ = std::max(end_ms_, t1_ms);
}

void
TimeSeries::finalize(double end_ms)
{
    if (!enabled())
        return;
    end_ms_ = std::max(end_ms_, end_ms);
    const int64_t n = windows();
    for (auto &a : acc_)
        if (static_cast<int64_t>(a.size()) < n)
            a.resize(static_cast<size_t>(n), 0.0);
}

int64_t
TimeSeries::windows() const
{
    if (!enabled() || end_ms_ <= 0)
        return 0;
    return static_cast<int64_t>(std::ceil(end_ms_ / window_ms_));
}

double
TimeSeries::effectiveMs(int64_t w) const
{
    const double start = static_cast<double>(w) * window_ms_;
    return std::min(window_ms_, end_ms_ - start);
}

double
TimeSeries::raw(int ch, int64_t w) const
{
    const std::vector<double> &a = acc_[static_cast<size_t>(ch)];
    return w < static_cast<int64_t>(a.size())
               ? a[static_cast<size_t>(w)]
               : 0.0;
}

double
TimeSeries::value(int ch, int64_t w) const
{
    const double r = raw(ch, w);
    switch (kinds_[static_cast<size_t>(ch)]) {
      case Kind::kCount: return r;
      case Kind::kRatePerSec: {
        const double ms = effectiveMs(w);
        return ms > 0 ? r * 1000.0 / ms : 0.0;
      }
      case Kind::kMean: {
        const double ms = effectiveMs(w);
        return ms > 0 ? r / ms : 0.0;
      }
    }
    return 0.0;
}

void
TimeSeries::merge(const TimeSeries &other)
{
    if (!other.enabled())
        return;
    if (!enabled()) {
        *this = other;
        return;
    }
    TILUS_FATAL_IF(window_ms_ != other.window_ms_,
                   "TimeSeries::merge needs matching windows: "
                       << window_ms_ << " vs " << other.window_ms_);
    for (int oc = 0; oc < other.channelCount(); ++oc) {
        const int ch = channel(other.names_[static_cast<size_t>(oc)],
                               other.kinds_[static_cast<size_t>(oc)]);
        const std::vector<double> &src =
            other.acc_[static_cast<size_t>(oc)];
        if (src.empty())
            continue;
        std::vector<double> &dst =
            grown(ch, static_cast<int64_t>(src.size()) - 1);
        for (size_t w = 0; w < src.size(); ++w)
            dst[w] += src[w];
    }
    end_ms_ = std::max(end_ms_, other.end_ms_);
    finalize(end_ms_);
}

std::string
TimeSeries::toJson() const
{
    // Disabled: window_ms 0, no windows and no channels. Values are
    // appended in place rather than joined: a 10^5-request run has tens
    // of thousands of windows per channel.
    const int64_t n = windows();
    json::Object o;
    o.add("window_ms", window_ms_).add("windows", n);
    for (int ch = 0; ch < channelCount(); ++ch) {
        std::string values = "[";
        for (int64_t w = 0; w < n; ++w)
            values += (w ? "," : "") + json::num(value(ch, w));
        values += ']';
        o.raw(names_[static_cast<size_t>(ch)], values);
    }
    return o.str();
}

void
TimeSeries::emitCounters(Tracer &tracer, int pid, const char *cat) const
{
    if (!enabled())
        return;
    const int64_t n = windows();
    for (int ch = 0; ch < channelCount(); ++ch) {
        const std::string name =
            "win:" + names_[static_cast<size_t>(ch)];
        for (int64_t w = 0; w < n; ++w)
            tracer.virtualCounter(pid, cat, name,
                                  static_cast<double>(w) * window_ms_,
                                  value(ch, w));
    }
}

} // namespace obs
} // namespace tilus
