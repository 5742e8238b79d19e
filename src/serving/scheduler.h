/**
 * @file
 * Pluggable scheduling policies for the continuous-batching event loop.
 * Each simulator iteration the policy sees the queue state and fills a
 * BatchPlan: which queued requests to admit, which running requests to
 * preempt (paged mode only), and whether the engine should run one
 * prefill step (a bounded chunk of prompt tokens) or one decode step
 * (one token for every decode-phase request) — the engine's cost model,
 * like the paper's, prices the two separately and never mixes them in a
 * single iteration.
 *
 * KV accounting runs on one KvPagePool (SchedulerView::kv_pool) in two
 * modes, selected by SchedulerLimits::kv_page_tokens:
 *
 *  - reservation (0, the default): the pool has 1-token pages and an
 *    admitted request holds its full `prompt + output` demand from
 *    admission on. Conservative and preemption-free — an admitted
 *    request can never run out of KV.
 *  - paged (> 0): pages are handed out on demand as context grows.
 *    Admission only needs headroom for the prefill target, so batches
 *    run fuller; the price is that the pool can run dry mid-decode,
 *    and the policy must then plan preemptions (BatchPlan::preempt) to
 *    free pages. Preempted requests drop their KV and re-queue; on
 *    re-admission they recompute it (Sarathi/vLLM-style
 *    recompute-on-resume).
 *
 * The three policies share one step planner: one admission loop, one
 * prefillable/decodable partition, and one alternation of prefill and
 * decode steps that plans preemptions when the pool is short. They
 * differ only in the order they consider requests in.
 *
 * Resource limits (max concurrent requests, total KV pages or tokens)
 * come from the engine's construction-time reservation; policies must
 * plan within them and the simulator verifies every plan, so a buggy
 * policy fails loudly instead of silently over-subscribing device
 * memory.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "serving/kv_pool.h"
#include "serving/request.h"

namespace tilus {
namespace serving {

/** Lifecycle phase of a request inside the simulator. */
enum class Phase
{
    kQueued,   ///< arrived (or preempted), not currently admitted
    kPrefill,  ///< admitted, prompt (or recompute) not fully processed
    kDecode,   ///< prompt done, generating tokens
    kFinished, ///< all output tokens produced
    kRejected, ///< can never fit the engine (demand > capacity)
    kFailed,   ///< step-fault retry budget exhausted (see simulator.h)
};

const char *phaseName(Phase phase);

/** Per-request bookkeeping, owned by the simulator, read by policies. */
struct RequestState
{
    Request request;
    Phase phase = Phase::kQueued;
    int64_t prefilled_tokens = 0;  ///< tokens prefilled this admission
    int64_t generated_tokens = 0;  ///< output tokens produced so far
    int64_t kv_tokens = 0;         ///< KV entries materialized right now
    int64_t preemptions = 0;       ///< times this request was preempted
    int64_t fault_retries = 0;     ///< engine-step faults this request ate
    double admitted_ms = -1;       ///< first admission (queue-wait anchor)
    double first_token_ms = -1;
    double finish_ms = -1;

    /**
     * Prompt tokens the current admission must prefill before decode
     * (re)starts. Initially `prompt_tokens`; after a preemption it grows
     * to `prompt_tokens + generated_tokens` — the dropped KV of both the
     * prompt and the already-emitted output is recomputed on resume.
     */
    int64_t prefill_target_tokens = 0;

    /** KV-cache tokens this request occupies once fully served. In
        reservation mode it holds the full demand in the pool from
        admission on, which is what guarantees a running request can
        never hit OOM mid-flight; in paged mode this is only the
        admission feasibility bound (a request whose demand exceeds the
        pool can never finish). */
    int64_t
    kvDemandTokens() const
    {
        return request.prompt_tokens + request.output_tokens;
    }
};

/** Resource limits every policy must respect. */
struct SchedulerLimits
{
    int64_t max_batch = 16;              ///< concurrent admitted requests
    int64_t kv_capacity_tokens = 16384;  ///< total KV reservation
    int64_t prefill_chunk_tokens = 256;  ///< prompt tokens per prefill step

    /** Page size of the KV pool in tokens. 0 = reservation mode (full
        `prompt + output` demand reserved at admission, no preemption);
        > 0 = paged mode (on-demand pages, policy-driven preemption). */
    int64_t kv_page_tokens = 0;

    /** Per-request context window (prompt + output); requests beyond it
        are rejected at submission. 0 = bounded only by capacity. */
    int64_t max_request_tokens = 0;

    bool paged() const { return kv_page_tokens > 0; }
};

/** Read-only queue snapshot handed to the policy each iteration. Ids are
    indices into `states`. The containers are owned by the simulator and
    borrowed per call: the simulator builds the view once per run and
    only moves its clock, since the event loop runs millions of
    iterations and a step must not allocate. */
struct SchedulerView
{
    double now_ms = 0;
    const std::vector<RequestState> *states = nullptr;
    const std::deque<int64_t> *queued = nullptr;  ///< preempted first, then arrival order
    const std::vector<int64_t> *running = nullptr; ///< admission order
    /** The KV ledger (free/held/pagesForTokens queries), in both modes;
        in reservation mode its pages are single tokens. */
    const KvPagePool *kv_pool = nullptr;
};

/** One prompt chunk scheduled for one request this iteration. */
struct PrefillChunk
{
    int64_t id = 0;
    int64_t tokens = 0;
};

/** One engine iteration planned by a policy. At most one of `prefill` /
    `decode` may be non-empty; an entirely empty plan tells the event
    loop to idle until the next arrival. A prefill step carries at most
    ONE chunk — the engine cost model prices a single request's
    (new tokens, past context) pair per step. Preemptions (paged mode
    only) are applied before admissions and the step. The simulator
    owns one plan per run and clears it before each step, so its lists
    keep their capacity. */
struct BatchPlan
{
    std::vector<int64_t> preempt;      ///< running -> queued, pages freed
    std::vector<int64_t> admit;        ///< queued -> running, before the step
    std::vector<PrefillChunk> prefill; ///< at most 1 => prefill step
    std::vector<int64_t> decode;       ///< non-empty => decode step

    bool
    empty() const
    {
        return prefill.empty() && decode.empty();
    }

    void
    clear()
    {
        preempt.clear();
        admit.clear();
        prefill.clear();
        decode.clear();
    }
};

/** The lists the shared step planner rebuilds on every call. Each
    policy object owns one, so the lists keep their capacity from step
    to step. */
struct PlannerLists
{
    std::vector<int64_t> prefillable; ///< running, prompt not yet done
    std::vector<int64_t> decodable;   ///< running, generating tokens
    std::vector<int64_t> victims;     ///< preemption order
};

/** Scheduling-policy interface. Implementations may keep state across
    iterations (reset() is called once per simulation run). */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    virtual std::string name() const = 0;

    /** Plan the next engine iteration into @p out, which arrives
        empty. Must respect @p limits, and must not allocate per step:
        lists the policy needs from step to step are its members and
        are cleared, not rebuilt. */
    virtual void plan(const SchedulerView &view,
                      const SchedulerLimits &limits, BatchPlan &out) = 0;

    /** Whether the policy plans for paged KV accounting (preemptions on
        out-of-pages, admission against the prefill target). The
        simulator runs a paged-aware policy on paged limits only, and
        any other policy on reservation limits only: a reservation-only
        policy on a paged pool would admit against demands it never
        holds and then deadlock or over-subscribe, and a paged policy
        on reservation limits would admit out of the queue order that
        reservation mode audits. */
    virtual bool pagedAware() const { return false; }

    /** Called at the start of every Simulator::run. */
    virtual void reset() {}
};

/**
 * First-come-first-served admission with chunked prefill. Admission is
 * strict FCFS: queued requests are admitted in arrival order until one
 * does not fit (no bypass), which keeps per-request wait times
 * predictable and makes back-pressure trivially fair. Prefill runs in
 * chunks of at most `prefill_chunk_tokens`, and when both prefill and
 * decode work is pending the step kinds alternate, so ongoing
 * generations keep making progress (bounded TPOT) while new prompts
 * still get through (bounded TTFT) — the chunked-prefill idea of
 * Sarathi/vLLM. Reservation mode only; PagedFcfsScheduler runs the same
 * plan over a paged pool.
 */
class FcfsScheduler : public Scheduler
{
  public:
    std::string name() const override { return "fcfs-alternate"; }

    void plan(const SchedulerView &view, const SchedulerLimits &limits,
              BatchPlan &out) override;

    void reset() override { last_step_was_prefill_ = false; }

  private:
    bool last_step_was_prefill_ = false;
    PlannerLists lists_;
};

/**
 * The paged-accounting FCFS baseline: FcfsScheduler's plan over a paged
 * pool. Admission only requires page headroom for the request's prefill
 * target (not its full demand), so batches run fuller. When the chosen
 * step needs more pages than the pool has free, the most recently
 * admitted running request is preempted (LIFO victim order, vLLM's
 * default): the oldest request is never a victim, which guarantees
 * forward progress.
 */
class PagedFcfsScheduler : public FcfsScheduler
{
  public:
    std::string name() const override { return "fcfs-paged"; }

    bool pagedAware() const override { return true; }
};

/**
 * Priority/SLO-aware paged policy. Every request's SLO (arrival +
 * slo_ms, infinity when slo_ms = 0) defines its deadline class, and the
 * policy maximizes goodput — completions *inside* their SLO per second:
 *
 *  - admission: earliest-deadline-first over the queue, with bypass —
 *    a tight-deadline request overtakes queued requests that do not
 *    fit or have looser deadlines. Requests whose deadline has already
 *    passed (serving them adds nothing to goodput) and best-effort
 *    requests (no SLO to miss) yield to every still-winnable request.
 *  - preemption: victims are chosen in reverse urgency — already-missed
 *    deadlines first, then best-effort, then the loosest deadline —
 *    so freeing pages costs the least goodput. The most urgent running
 *    request is never preempted, which guarantees forward progress.
 *  - interleaving: alternate (chunked-prefill fairness), with the most
 *    urgent prefillable request taking the chunk.
 */
class SloScheduler : public Scheduler
{
  public:
    std::string name() const override { return "slo-paged"; }

    void plan(const SchedulerView &view, const SchedulerLimits &limits,
              BatchPlan &out) override;

    bool pagedAware() const override { return true; }

    void reset() override { last_step_was_prefill_ = false; }

  private:
    /** One request's place in the urgency order at a step's time, in
        the order's own priority: deadline class, deadline, arrival, id
        (a total order). */
    struct Urgency
    {
        int deadline_class;
        double deadline_ms;
        double arrival_ms;
        int64_t id;

        bool operator<(const Urgency &other) const;
    };

    bool last_step_was_prefill_ = false;
    PlannerLists lists_;
    std::vector<Urgency> queue_keys_; ///< one key per queued request
    std::vector<int64_t> by_urgency_; ///< the queue, most urgent first
};

} // namespace serving
} // namespace tilus
