#include "obs/sketch.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"
#include "support/json.h"
#include "support/string_util.h"

namespace tilus {
namespace obs {

QuantileSketch::QuantileSketch(double relative_accuracy)
    : alpha_(relative_accuracy)
{
    TILUS_FATAL_IF(!(alpha_ > 0.0) || !(alpha_ < 1.0),
                   "QuantileSketch needs relative accuracy in (0,1), got "
                       << relative_accuracy);
    gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
    inv_log_gamma_ = 1.0 / std::log(gamma_);
}

int
QuantileSketch::bucketIndex(double value) const
{
    // Bucket k covers (gamma^(k-1), gamma^k]: k = ceil(log_gamma(v)).
    return static_cast<int>(std::ceil(std::log(value) * inv_log_gamma_));
}

void
QuantileSketch::add(double value)
{
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    if (!(value > kMinTrackable)) { // <= 0, NaN, or denormal-small
        ++zero_count_;
        return;
    }
    const int64_t k = bucketIndex(value);
    if (counts_.empty()) {
        base_ = k;
        counts_.push_back(0);
    } else if (k < base_) {
        // Grow the low side (amortized: the range only widens).
        counts_.insert(counts_.begin(), static_cast<size_t>(base_ - k), 0);
        base_ = k;
    } else if (k >= base_ + static_cast<int64_t>(counts_.size())) {
        counts_.resize(static_cast<size_t>(k - base_ + 1), 0);
    }
    ++counts_[static_cast<size_t>(k - base_)];
}

void
QuantileSketch::merge(const QuantileSketch &other)
{
    TILUS_FATAL_IF(alpha_ != other.alpha_,
                   "QuantileSketch::merge needs matching accuracy: "
                       << alpha_ << " vs " << other.alpha_);
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    zero_count_ += other.zero_count_;
    if (other.counts_.empty())
        return;
    const int64_t other_end =
        other.base_ + static_cast<int64_t>(other.counts_.size());
    if (counts_.empty()) {
        base_ = other.base_;
        counts_.assign(other.counts_.size(), 0);
    } else {
        if (other.base_ < base_) {
            counts_.insert(counts_.begin(),
                           static_cast<size_t>(base_ - other.base_), 0);
            base_ = other.base_;
        }
        const int64_t end = base_ + static_cast<int64_t>(counts_.size());
        if (other_end > end)
            counts_.resize(static_cast<size_t>(other_end - base_), 0);
    }
    for (size_t i = 0; i < other.counts_.size(); ++i)
        counts_[static_cast<size_t>(other.base_ - base_) + i] +=
            other.counts_[i];
}

double
QuantileSketch::quantile(double pct) const
{
    if (count_ == 0)
        return 0.0;
    const double clamped = std::min(std::max(pct, 0.0), 100.0);
    // Type-7 rank, matching support/percentile.h: the (fractional)
    // order-statistic index in [0, count-1]. The bucket holding the
    // order statistic at floor(rank) carries the estimate; within a
    // bucket all samples are within alpha of the midpoint estimate, so
    // the interpolation detail below bucket granularity is moot.
    const double rank =
        clamped / 100.0 * static_cast<double>(count_ - 1);
    if (rank < static_cast<double>(zero_count_))
        return 0.0;
    int64_t cum = zero_count_;
    for (size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        cum += counts_[i];
        if (rank < static_cast<double>(cum)) {
            const double k =
                static_cast<double>(base_ + static_cast<int64_t>(i));
            const double estimate =
                2.0 * std::pow(gamma_, k) / (gamma_ + 1.0);
            return std::min(std::max(estimate, min_), max_);
        }
    }
    return max_; // rank == count-1 with fp round-up
}

int64_t
QuantileSketch::nonEmptyBuckets() const
{
    int64_t n = zero_count_ > 0 ? 1 : 0;
    for (int64_t c : counts_)
        n += c > 0 ? 1 : 0;
    return n;
}

std::string
QuantileSketch::toJson() const
{
    std::vector<std::string> buckets;
    for (size_t i = 0; i < counts_.size(); ++i)
        if (counts_[i] != 0)
            buckets.push_back(
                "[" + std::to_string(base_ + static_cast<int64_t>(i)) +
                "," + std::to_string(counts_[i]) + "]");
    return json::Object()
        .raw("alpha", json::exact(alpha_))
        .add("count", count_)
        .add("zero_count", zero_count_)
        .raw("sum", json::exact(sum_))
        .raw("min", json::exact(min()))
        .raw("max", json::exact(max()))
        .raw("buckets", "[" + join(buckets, ",") + "]")
        .str();
}

} // namespace obs
} // namespace tilus
