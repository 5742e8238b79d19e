/**
 * @file
 * A DDSketch-style mergeable quantile sketch: log-spaced buckets sized
 * so every reported quantile is within a configured *relative* error of
 * the true sample, in O(1) amortized time and O(log(max/min)/alpha)
 * memory per sketch no matter how many samples stream in. This is what
 * lets serving runs over 10^5-10^6 requests keep full latency tails
 * without storing a per-request vector, and what lets two replica
 * reports merge into one fleet report losslessly (merging sketches is
 * exact: the merged sketch equals the sketch of the pooled stream).
 *
 * Accuracy contract: for any value v returned by quantile(p) there is a
 * true sample x at that rank with |v - x| <= alpha * x. Values <= 0 are
 * counted in a dedicated zero bucket and reported as exactly 0 (latency
 * metrics are non-negative; an all-zero distribution must report 0.0
 * tails, not an approximation). The exact running count/sum/min/max are
 * kept on the side, so mean() is exact and p0/p100 clamp to the true
 * extremes.
 *
 * support/percentile.h remains the exact-reference implementation the
 * sketch is tested against (tests/test_obs.cc).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tilus {
namespace obs {

/** Default relative-error bound used by serving reports (1%). */
constexpr double kDefaultSketchAccuracy = 0.01;

/** The mergeable quantile sketch (see file header). */
class QuantileSketch
{
  public:
    explicit QuantileSketch(double relative_accuracy =
                                kDefaultSketchAccuracy);

    /** Record one sample. Values <= kMinTrackable land in the zero
        bucket and report as exactly 0. O(1) amortized. */
    void add(double value);

    /**
     * Fold @p other into this sketch. Requires identical
     * relative_accuracy (fatal otherwise). The result is exactly the
     * sketch that would have been built from the pooled sample stream
     * (bucket counts, count, min, max; sum up to fp addition order).
     */
    void merge(const QuantileSketch &other);

    /**
     * The @p pct-th percentile (0..100). Ranks follow the type-7
     * convention of support/percentile.h (rank = pct/100 * (n-1));
     * the returned bucket midpoint estimate is clamped to the exact
     * observed [min, max]. Returns 0 for an empty sketch.
     */
    double quantile(double pct) const;

    int64_t count() const { return count_; }
    int64_t zeroCount() const { return zero_count_; }
    double sum() const { return sum_; }
    /** Exact arithmetic mean (0 for an empty sketch). */
    double mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double relativeAccuracy() const { return alpha_; }

    /** Allocated bucket-array length — the memory-bound gate benches
        assert on (grows with the dynamic range, never with count). */
    int64_t allocatedBuckets() const
    {
        return static_cast<int64_t>(counts_.size());
    }

    /** Buckets holding at least one sample. */
    int64_t nonEmptyBuckets() const;

    /**
     * Deterministic JSON: {"alpha":..,"count":..,"zero_count":..,
     * "sum":..,"min":..,"max":..,"buckets":[[index,count],...]} with
     * buckets ascending and doubles via json::exact (round-trip) —
     * two sketches over the same sample multiset (in any shard split
     * with fp-exact partial sums) serialize byte-identically.
     */
    std::string toJson() const;

    /** Smallest positive value tracked with relative accuracy; at or
        below this a sample is treated as zero. */
    static constexpr double kMinTrackable = 1e-9;

  private:
    int bucketIndex(double value) const;

    double alpha_;         ///< configured relative accuracy
    double gamma_;         ///< (1+alpha)/(1-alpha)
    double inv_log_gamma_; ///< 1/log(gamma)

    // Contiguous bucket counts; counts_[i] is logical index base_ + i.
    // Bucket k covers (gamma^(k-1), gamma^k], estimate 2*gamma^k/(gamma+1).
    std::vector<int64_t> counts_;
    int64_t base_ = 0;

    int64_t zero_count_ = 0;
    int64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace obs
} // namespace tilus
