/**
 * @file
 * The event-driven continuous-batching simulator: a virtual-clock loop
 * that drives a llm::StepCostModel with a Trace of requests under a
 * pluggable Scheduler, tracking every request's lifecycle
 * (queued -> prefill -> decode -> finished, with a preemption edge
 * back to queued in paged-KV mode and a fault edge — step fault ->
 * backoff-delayed retry -> kFailed past the budget — when the
 * "serving.step" fault site is armed) and aggregating the serving
 * metrics of metrics.h. Time advances only by engine-step costs
 * (decodeMs / prefillMs) and by idle jumps to the next arrival or next
 * retry eligibility, so runs are exactly reproducible from the trace
 * and fault spec alone. Both KV modes keep their books in one
 * KvPagePool per run, and preemption, step-fault eviction and
 * completion return a request's KV through one release path.
 *
 * Cost lookups are bucketed (next power of two for decode batch sizes,
 * next multiple of `prefill_cost_bucket` for prefill chunks) the same
 * way real engines bucket CUDA-graph captures: the reported latency is a
 * slight over-estimate, and the number of distinct kernel tunings a run
 * triggers stays bounded no matter how long the trace is.
 */
#pragma once

#include "llm/engine.h"
#include "serving/metrics.h"
#include "serving/request.h"
#include "serving/scheduler.h"
#include "support/retry.h"

namespace tilus {
namespace serving {

/** Event-loop configuration. */
struct SimOptions
{
    SchedulerLimits limits;

    /** Prefill cost lookups round the chunk token count and the past
        context up to a multiple of this (0 = exact). Bounds distinct
        kernel tunings. */
    int64_t prefill_cost_bucket = 64;

    /** Decode cost lookups round the batch up to the next power of two
        (capped at limits.max_batch). */
    bool decode_cost_pow2 = true;

    /** Window width of the report's "series" block (virtual ms);
        <= 0 disables the series. */
    double series_window_ms = 1000.0;

    /** Keep the per-request lifecycle vector on the report. Set false
        for sketch-only mode: report memory stays O(1) in the request
        count — required for 10^5+ request traces (bench_serving's
        stress section gates on it). */
    bool keep_request_states = true;

    /**
     * Recovery policy for injected engine-step faults (fault site
     * "serving.step", see src/support/fault.h). A failing step burns
     * its full cost, emits no tokens, and evicts the victim — the
     * request the step was serving (the prefill request, or the first
     * decode id): its KV is released and it re-queues at the queue
     * *tail* once the backoff before its next attempt has passed on
     * the virtual clock. The fault that ends attempt `max_attempts`
     * terminates the request as Phase::kFailed instead: the default
     * absorbs three faults and fails the request on the fourth. With
     * no "serving.step" trigger armed this policy is inert and runs
     * are byte-identical to a build without it.
     */
    support::RetryPolicy step_faults{4, 100.0, 2.0};
};

/** Derive scheduler limits from an engine's construction-time
    reservation; chunk size stays at the SchedulerLimits default.
    KV accounting is reservation mode (kv_page_tokens = 0), which
    requires a policy that is not paged-aware (FcfsScheduler). */
SchedulerLimits limitsFrom(const llm::StepCostModel &costs);

/** Same limits with paged KV accounting: the engine's reservation is
    carved into pages of @p page_tokens handed out on demand (see
    kv_pool.h). Requires a paged-aware policy (PagedFcfsScheduler,
    SloScheduler, or any Scheduler that plans preemptions). */
SchedulerLimits pagedLimitsFrom(const llm::StepCostModel &costs,
                                int64_t page_tokens = kDefaultKvPageTokens);

/** The continuous-batching event loop. One instance may run many traces;
    engine-side step-cost caches persist across runs. */
class Simulator
{
  public:
    /** Throws FatalError on invalid limits, and when the policy's
        pagedAware() does not match the limits' KV mode. */
    Simulator(llm::StepCostModel &costs, Scheduler &scheduler,
              SimOptions options);

    /** Run @p trace to completion and aggregate the report. */
    ServingReport run(const Trace &trace);

    /**
     * Pre-populate every step cost the event loop can request: decode
     * batch buckets up to max_batch and prefill chunk buckets up to the
     * scheduler's chunk limit. A cold engine moves all kernel tuning
     * out of the timed run here (fanned out through the compile pool);
     * with a warm autotune database (cache/tune_db.h) this returns in
     * milliseconds. Optional — costs are otherwise tuned lazily on
     * first use, exactly as before.
     */
    void warmUp();

  private:
    double decodeCostMs(int64_t batch);
    double prefillCostMs(int64_t tokens, int64_t past_tokens);

    llm::StepCostModel &costs_;
    Scheduler &scheduler_;
    SimOptions options_;
};

} // namespace serving
} // namespace tilus
