/**
 * @file
 * The persistent autotune database.
 *
 * A tuning sweep is expensive (~200 candidate configurations, each
 * built, compiled, and probe-traced); its *result* is tiny — the winning
 * MatmulConfig and its latency estimate. This store keeps those results
 * across processes so a repeated llm::Engine / baselines sweep skips
 * enumeration and compilation entirely:
 *
 *     $TILUS_CACHE_DIR/tune/<key>.tune
 *
 * The key fingerprint is computed by the caller (autotune::tuneKey) over
 * everything that can change the outcome: the problem (weight dtype, n,
 * k, m, group size, structural variant), the full TuneSpace, the
 * GpuSpec, the full CompileOptions (opt_level included), the PerfTraits,
 * and kTuneDbVersion — bump that constant whenever the timing model or
 * the tuner's search changes meaning, so stale records miss instead of
 * serving outdated winners.
 *
 * Same robustness contract and the same store front end as the kernel
 * cache (BlobStore, blob_store.h): corrupt, malformed or
 * version-mismatched records degrade to a miss; writes are atomic
 * (temp + rename); TILUS_CACHE=off disables the store.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/blob_store.h"
#include "kernels/matmul.h"
#include "sim/timing.h"

namespace tilus {
namespace cache {

/** Bump when the timing model or tuner semantics change.
    v2: records carry the full per-candidate LatencyBreakdown list. */
constexpr uint32_t kTuneDbVersion = 2;

/** One estimated candidate of a sweep (config + full breakdown), so
    stored sweeps stay explainable: *why* the winner won is recorded,
    not just which config it was. */
struct TuneCandidate
{
    kernels::MatmulConfig config;
    sim::LatencyBreakdown latency;
};

/** One persisted tuning outcome. */
struct TuneRecord
{
    kernels::MatmulConfig config;
    sim::LatencyBreakdown latency;
    int candidates_tried = 0;
    /** Every estimated candidate, in enumeration order. */
    std::vector<TuneCandidate> candidates;
};

/** The persistent tuning-record store (see file header). */
class TuneDb : public BlobStore
{
  public:
    /** Process-wide instance configured from the environment
        (TILUS_CACHE_DIR / TILUS_CACHE, as for KernelCache). */
    static TuneDb &instance();

    explicit TuneDb(std::string dir, bool enabled = true);

    /** Fetch the record stored under @p key, or nullopt on miss. */
    std::optional<TuneRecord> load(const Fingerprint &key);

    /** Persist @p record under @p key (best-effort). */
    void store(const Fingerprint &key, const TuneRecord &record);
};

} // namespace cache
} // namespace tilus
