#include "serving/simulator.h"

#include <algorithm>
#include <deque>
#include <queue>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/fault.h"
#include "support/math_util.h"
#include "support/retry.h"

namespace tilus {
namespace serving {

SchedulerLimits
limitsFrom(const llm::StepCostModel &costs)
{
    SchedulerLimits limits;
    limits.max_batch = costs.maxBatch();
    limits.kv_capacity_tokens = costs.kvCapacityTokens();
    limits.max_request_tokens = costs.contextTokens();
    return limits;
}

SchedulerLimits
pagedLimitsFrom(const llm::StepCostModel &costs, int64_t page_tokens)
{
    SchedulerLimits limits = limitsFrom(costs);
    limits.kv_page_tokens = page_tokens;
    return limits;
}

Simulator::Simulator(llm::StepCostModel &costs, Scheduler &scheduler,
                     SimOptions options)
    : costs_(costs), scheduler_(scheduler), options_(options)
{
    TILUS_FATAL_IF(options_.limits.max_batch < 1,
                   "simulator needs max_batch >= 1");
    TILUS_FATAL_IF(options_.limits.kv_capacity_tokens < 1,
                   "simulator needs a positive KV capacity");
    TILUS_FATAL_IF(options_.limits.prefill_chunk_tokens < 1,
                   "simulator needs a positive prefill chunk");
    TILUS_FATAL_IF(options_.limits.paged() && !scheduler_.pagedAware(),
                   scheduler_.name()
                       << " does not understand paged KV accounting; "
                          "use a paged-aware policy or kv_page_tokens=0");
    TILUS_FATAL_IF(!options_.limits.paged() && scheduler_.pagedAware(),
                   scheduler_.name()
                       << " plans for paged KV accounting; use "
                          "kv_page_tokens > 0 or a reservation policy");
}

void
Simulator::warmUp()
{
    const SchedulerLimits &limits = options_.limits;
    // Decode: the loop only ever looks up bucketed batch sizes.
    if (options_.decode_cost_pow2) {
        for (int64_t b = 1; b < limits.max_batch; b *= 2)
            decodeCostMs(b);
        decodeCostMs(limits.max_batch);
    } else {
        for (int64_t b = 1; b <= limits.max_batch; ++b)
            decodeCostMs(b);
    }
    // Prefill: chunk sizes are capped by the scheduler and bucketed by
    // the cost table; past context only changes analytic attention math
    // (the tuned matmul costs are keyed by the chunk token count).
    const int64_t bucket = std::max<int64_t>(
        options_.prefill_cost_bucket, 1);
    for (int64_t t = bucket; t < limits.prefill_chunk_tokens;
         t += bucket)
        prefillCostMs(t, 0);
    prefillCostMs(limits.prefill_chunk_tokens, 0);
}

double
Simulator::decodeCostMs(int64_t batch)
{
    int64_t lookup = batch;
    if (options_.decode_cost_pow2) {
        lookup = 1;
        while (lookup < batch)
            lookup *= 2;
        lookup = std::min(lookup, options_.limits.max_batch);
        lookup = std::max(lookup, batch);
    }
    return costs_.decodeMs(lookup);
}

double
Simulator::prefillCostMs(int64_t tokens, int64_t past_tokens)
{
    int64_t lookup = tokens;
    int64_t past = past_tokens;
    if (options_.prefill_cost_bucket > 0) {
        lookup = roundUp(tokens, options_.prefill_cost_bucket);
        past = roundUp(past_tokens, options_.prefill_cost_bucket);
    }
    return costs_.prefillMs(lookup, past);
}

ServingReport
Simulator::run(const Trace &trace)
{
    const SchedulerLimits &limits = options_.limits;
    const bool paged = limits.paged();
    scheduler_.reset();

    // Virtual-clock trace domain: each run gets its own process block
    // so per-track timestamps stay monotonic across runs. Request
    // lifecycles are async-nestable series keyed by the state index;
    // engine steps are B/E spans on the process's main track; KV-pool
    // occupancy is a counter track. All timestamps are simulated
    // milliseconds, never wall clock.
    obs::Tracer &tracer = obs::Tracer::instance();
    const bool tracing = tracer.enabled();
    int vpid = 0;
    if (tracing)
        vpid = tracer.virtualProcess("serving:" + scheduler_.name());
    auto reqName = [](const Request &request) {
        return "req " + std::to_string(request.id);
    };
    obs::Span wall_span("serving", "simulate");
    wall_span.arg("scheduler", scheduler_.name())
        .arg("requests", static_cast<int64_t>(trace.requests.size()));
    obs::Registry::instance()
        .counter("serving_requests_total")
        .add(static_cast<int64_t>(trace.requests.size()));
    // The one KV ledger, one per run: paged mode's pages, or 1-token
    // pages that reservation mode grows to a request's whole demand on
    // admission. Ids into `states` double as page owners.
    KvPagePool pool(limits.kv_capacity_tokens,
                    paged ? limits.kv_page_tokens : 1);
    const int64_t token_cap = pool.totalPages() * pool.pageTokens();

    // Request states indexed by position; scheduler ids are indices.
    std::vector<RequestState> states;
    states.reserve(trace.requests.size());
    for (const Request &request : trace.requests) {
        TILUS_FATAL_IF(request.prompt_tokens < 1 ||
                           request.output_tokens < 1,
                       "request " << request.id
                                  << " needs positive prompt/output");
        RequestState state;
        state.request = request;
        state.prefill_target_tokens = request.prompt_tokens;
        states.push_back(state);
    }
    const int64_t total = static_cast<int64_t>(states.size());

    const bool closed_loop = trace.closed_loop_clients > 0;
    // Open loop: submission order by (arrival, position).
    std::vector<int64_t> arrival_order(states.size());
    for (size_t i = 0; i < states.size(); ++i)
        arrival_order[i] = static_cast<int64_t>(i);
    if (!closed_loop) {
        std::stable_sort(arrival_order.begin(), arrival_order.end(),
                         [&](int64_t a, int64_t b) {
                             return states[a].request.arrival_ms <
                                    states[b].request.arrival_ms;
                         });
    }

    ServingReport report;
    report.scheduler = scheduler_.name();
    report.total_requests = total;
    report.batch_histogram.assign(limits.max_batch + 1, 0);
    report.kv_page_tokens = paged ? limits.kv_page_tokens : 0;
    report.kv_capacity_tokens = token_cap;

    std::deque<int64_t> queued;
    std::vector<int64_t> running;
    // Step-faulted requests serving their retry backoff: a min-heap of
    // (eligible_ms, id). Invisible to the policy until eligible, when
    // they re-enter the queue *tail* (a retry is a fresh submission,
    // not a preemption resume).
    using Delayed = std::pair<double, int64_t>;
    std::priority_queue<Delayed, std::vector<Delayed>, std::greater<Delayed>>
        delayed;
    int64_t kv_used_tokens = 0; ///< materialized KV entries
    int64_t finished = 0;
    double now = 0;

    // Submit a request: immediately reject the unservable, queue the
    // rest. Returns whether the request was queued. The feasibility
    // bound is the pool's whole-page capacity: a request whose maximal
    // working set cannot be paged can never finish.
    const int64_t request_cap =
        limits.max_request_tokens > 0
            ? std::min(limits.max_request_tokens, token_cap)
            : token_cap;
    auto submit = [&](int64_t id, double at_ms) {
        RequestState &state = states[id];
        state.request.arrival_ms = at_ms;
        if (state.kvDemandTokens() > request_cap) {
            state.phase = Phase::kRejected;
            state.finish_ms = at_ms;
            ++report.rejected;
            ++finished;
            if (tracing) {
                // A rejected request still gets a (zero-length) track
                // so every submission is visible in the trace.
                const std::string name = reqName(state.request);
                tracer.asyncBegin(vpid, "request", name, id, at_ms);
                tracer.asyncInstant(vpid, "request", "rejected", id,
                                    at_ms);
                tracer.asyncEnd(vpid, "request", name, id, at_ms);
            }
            return false;
        }
        queued.push_back(id);
        if (tracing)
            tracer.asyncBegin(vpid, "request", reqName(state.request),
                              id, at_ms);
        return true;
    };

    size_t next_arrival = 0;    // index into arrival_order (open loop)
    int64_t next_injection = 0; // index into states (closed loop)
    // A closed-loop client submits its next request; a rejection frees
    // the client immediately, so it pulls again until one is queued.
    auto injectNext = [&](double at_ms) {
        while (next_injection < total && !submit(next_injection++, at_ms)) {
        }
    };
    if (closed_loop) {
        for (int64_t c = 0;
             c < std::min(trace.closed_loop_clients, total); ++c)
            injectNext(0.0);
    }

    // The one release path. Preemption, step-fault eviction and
    // completion take a request off the running set and return its KV.
    // Unless it finished, its whole context (prompt + generated so far)
    // is recomputed on its next admission.
    auto release = [&](int64_t id, Phase next) {
        RequestState &state = states[id];
        auto it = std::find(running.begin(), running.end(), id);
        TILUS_CHECK(it != running.end());
        running.erase(it);
        pool.release(id);
        kv_used_tokens -= state.kv_tokens;
        state.kv_tokens = 0;
        state.phase = next;
        if (next != Phase::kFinished) {
            state.prefilled_tokens = 0;
            state.prefill_target_tokens =
                state.request.prompt_tokens + state.generated_tokens;
        }
    };

    // Incremental accumulation: sketches and series absorb each finish
    // and step as they happen — no per-request metric vectors.
    MetricTracker tracker(options_.series_window_ms);
    double busy_end_ms = 0; ///< clock after the last engine step
    int64_t safety = 0;
    SchedulerView view;
    view.states = &states;
    view.queued = &queued;
    view.running = &running;
    view.kv_pool = &pool;
    // One plan and one list of each kind per run: a step clears them and
    // reuses their capacity, so steady state allocates nothing.
    BatchPlan plan;
    std::vector<int64_t> done;          ///< finished by this step
    std::vector<int64_t> sorted_decode; ///< the duplicate-decode audit

    while (finished < total) {
        TILUS_CHECK_MSG(++safety < (1 << 26),
                        "serving event loop failed to converge");

        while (!delayed.empty() && delayed.top().first <= now) {
            queued.push_back(delayed.top().second);
            delayed.pop();
        }
        if (!closed_loop) {
            while (next_arrival < arrival_order.size() &&
                   states[arrival_order[next_arrival]].request.arrival_ms <=
                       now) {
                submit(arrival_order[next_arrival],
                       states[arrival_order[next_arrival]]
                           .request.arrival_ms);
                ++next_arrival;
            }
        }
        report.max_queue_depth =
            std::max(report.max_queue_depth,
                     static_cast<int64_t>(queued.size()));

        view.now_ms = now;
        plan.clear();
        scheduler_.plan(view, limits, plan);
        TILUS_FATAL_IF(!plan.prefill.empty() && !plan.decode.empty(),
                       scheduler_.name()
                           << " planned prefill and decode in one step");

        // Apply preemptions first: they free pages the admissions and
        // the step below may depend on. A preempted request re-queues at
        // the front.
        TILUS_FATAL_IF(!paged && !plan.preempt.empty(),
                       scheduler_.name()
                           << " planned a preemption in reservation mode");
        // plan.preempt is in victim-preference order (youngest / least
        // urgent first); pushing front in that order leaves the LAST
        // victim — the oldest / most urgent — at the queue head, so
        // same-step victims resume in seniority order.
        for (int64_t id : plan.preempt) {
            RequestState &state = states[id];
            TILUS_FATAL_IF(state.phase != Phase::kPrefill &&
                               state.phase != Phase::kDecode,
                           scheduler_.name()
                               << " preempted non-running id " << id);
            release(id, Phase::kQueued);
            ++state.preemptions;
            ++report.preemptions;
            tracker.onPreempt(now);
            if (tracing)
                tracer.asyncInstant(vpid, "request", "preempt", id, now);
            queued.push_front(id);
        }

        // Apply admissions, verifying the policy honoured the limits.
        // Reservation mode keeps the strict front-of-queue audit (its
        // policies promise FCFS order); paged policies may admit out
        // of queue order (SLO bypass) but every admitted id must still
        // come from the queue.
        for (int64_t id : plan.admit) {
            auto it = std::find(queued.begin(), queued.end(), id);
            TILUS_FATAL_IF(it == queued.end(),
                           scheduler_.name()
                               << " admitted id " << id
                               << " that is not queued");
            TILUS_FATAL_IF(!paged && it != queued.begin(),
                           scheduler_.name()
                               << " admitted out of queue order (id "
                               << id << ")");
            queued.erase(it);
            RequestState &state = states[id];
            TILUS_CHECK(state.phase == Phase::kQueued);
            state.phase = Phase::kPrefill;
            if (tracing)
                tracer.asyncInstant(vpid, "request",
                                    state.preemptions > 0 ? "resume"
                                                          : "admitted",
                                    id, now);
            if (state.admitted_ms < 0)
                state.admitted_ms = now; // queue wait = first admission
            running.push_back(id);
            // Reservation mode holds the whole demand from admission on;
            // paged mode grows as the steps below materialize KV.
            if (!paged)
                TILUS_FATAL_IF(!pool.grow(id, state.kvDemandTokens()),
                               scheduler_.name()
                                   << " over-subscribed the KV cache "
                                      "admitting request "
                                   << state.request.id);
        }
        TILUS_FATAL_IF(
            static_cast<int64_t>(running.size()) > limits.max_batch,
            scheduler_.name() << " exceeded max_batch: " << running.size());

        if (plan.empty()) {
            TILUS_FATAL_IF(!plan.preempt.empty() || !plan.admit.empty(),
                           scheduler_.name()
                               << " preempted or admitted without "
                                  "planning a step");
            // Nothing runnable: jump to the next event that can make
            // work — an arrival or a retry becoming eligible — or fail
            // loudly on a policy deadlock (work exists, none planned).
            double next_event = -1;
            if (!closed_loop && next_arrival < arrival_order.size())
                next_event = states[arrival_order[next_arrival]]
                                 .request.arrival_ms;
            if (!delayed.empty() &&
                (next_event < 0 || delayed.top().first < next_event))
                next_event = delayed.top().first;
            if (next_event >= 0) {
                now = std::max(now, next_event);
                continue;
            }
            TILUS_FATAL_IF(!queued.empty() || !running.empty(),
                           scheduler_.name()
                               << " deadlocked with " << queued.size()
                               << " queued / " << running.size()
                               << " running requests");
            break; // only rejected stragglers remained
        }

        done.clear();
        double step_ms = 0;
        int64_t step_tokens = 0; ///< output tokens emitted by this step
        int64_t step_batch = 0;  ///< decode batch size (0 = prefill)
        // Step-fault process: when the "serving.step" fault site fires,
        // this engine step fails after burning its full cost — no
        // tokens are produced and no KV grows. The victim (the prefill
        // request, or the head of the decode batch) drops its KV like a
        // preemption and either re-queues with backoff-delayed
        // eligibility or, past the retry budget, terminates as
        // Phase::kFailed. Other decode-batch members keep their state
        // and simply retry on the next step.
        const bool step_fault = fault::maybeFail("serving.step");
        if (step_fault) {
            const bool was_prefill = !plan.prefill.empty();
            const int64_t victim = was_prefill ? plan.prefill.front().id
                                               : plan.decode.front();
            RequestState &state = states[victim];
            step_ms =
                was_prefill
                    ? prefillCostMs(plan.prefill.front().tokens,
                                    state.prefilled_tokens)
                    : decodeCostMs(
                          static_cast<int64_t>(plan.decode.size()));
            ++report.injected_faults;
            if (tracing)
                tracer.asyncInstant(vpid, "request", "step-fault", victim,
                                    now);

            const support::RetryPolicy &policy = options_.step_faults;
            ++state.fault_retries;
            const bool exhausted = state.fault_retries >= policy.max_attempts;
            release(victim, exhausted ? Phase::kFailed : Phase::kQueued);
            if (exhausted) {
                state.finish_ms = now + step_ms;
                ++finished;
                ++report.failed;
                if (tracing) {
                    tracer.asyncInstant(vpid, "request", "failed", victim,
                                        now + step_ms);
                    tracer.asyncEnd(vpid, "request",
                                    reqName(state.request), victim,
                                    now + step_ms);
                }
                // A failed request frees its closed-loop client just
                // like a completion does.
                if (closed_loop)
                    injectNext(now + step_ms);
            } else {
                ++report.retries;
                // Retry k of the request is its attempt k + 1.
                delayed.emplace(now + step_ms +
                                    policy.backoffMs(static_cast<int>(
                                        state.fault_retries + 1)),
                                victim);
            }
        } else if (!plan.prefill.empty()) {
            // One request per prefill step: the engine prices a chunk
            // by (new tokens, past context) of a single request.
            TILUS_FATAL_IF(plan.prefill.size() > 1,
                           scheduler_.name()
                               << " planned " << plan.prefill.size()
                               << " prefill requests in one step");
            const PrefillChunk &chunk = plan.prefill.front();
            RequestState &state = states[chunk.id];
            TILUS_CHECK(state.phase == Phase::kPrefill);
            TILUS_FATAL_IF(
                chunk.tokens < 1 ||
                    chunk.tokens > limits.prefill_chunk_tokens ||
                    state.prefilled_tokens + chunk.tokens >
                        state.prefill_target_tokens,
                scheduler_.name() << " planned an invalid chunk of "
                                  << chunk.tokens << " tokens");
            TILUS_FATAL_IF(
                !pool.grow(chunk.id, state.prefilled_tokens + chunk.tokens),
                scheduler_.name()
                    << " ran out of KV pages prefilling request "
                    << state.request.id << " without planning a preemption");
            step_ms = prefillCostMs(chunk.tokens, state.prefilled_tokens);
            ++report.prefill_steps;
            if (tracing) {
                tracer.virtualBegin(vpid, "serving", "prefill", now,
                                    json::Object()
                                        .add("request", state.request.id)
                                        .add("tokens", chunk.tokens)
                                        .add("past",
                                             state.prefilled_tokens));
                tracer.virtualEnd(vpid, "serving", "prefill",
                                  now + step_ms);
                tracer.asyncInstant(vpid, "request", "prefill-chunk",
                                    chunk.id, now);
            }
            state.prefilled_tokens += chunk.tokens;
            state.kv_tokens += chunk.tokens;
            kv_used_tokens += chunk.tokens;
            if (state.prefilled_tokens == state.prefill_target_tokens) {
                // The step that finishes the prompt (or the recompute
                // after a preemption) emits the next output token — the
                // logits are already computed.
                state.phase = Phase::kDecode;
                if (state.generated_tokens == 0) {
                    state.first_token_ms = now + step_ms;
                    if (tracing)
                        tracer.asyncInstant(vpid, "request",
                                            "first-token", chunk.id,
                                            now + step_ms);
                }
                state.generated_tokens += 1;
                step_tokens = 1;
                if (state.generated_tokens == state.request.output_tokens)
                    done.push_back(chunk.id);
            }
        } else {
            const int64_t batch =
                static_cast<int64_t>(plan.decode.size());
            TILUS_FATAL_IF(batch > limits.max_batch,
                           scheduler_.name()
                               << " planned a decode batch of " << batch
                               << " > max_batch " << limits.max_batch);
            sorted_decode.assign(plan.decode.begin(), plan.decode.end());
            std::sort(sorted_decode.begin(), sorted_decode.end());
            TILUS_FATAL_IF(std::adjacent_find(sorted_decode.begin(),
                                              sorted_decode.end()) !=
                               sorted_decode.end(),
                           scheduler_.name()
                               << " planned duplicate decode ids");
            step_ms = decodeCostMs(batch);
            ++report.decode_steps;
            if (tracing) {
                tracer.virtualBegin(vpid, "serving", "decode", now,
                                    json::Object().add("batch", batch));
                tracer.virtualEnd(vpid, "serving", "decode",
                                  now + step_ms);
            }
            report.batch_histogram[batch] += 1;
            step_batch = batch;
            step_tokens = batch;
            for (int64_t id : plan.decode) {
                RequestState &state = states[id];
                TILUS_CHECK(state.phase == Phase::kDecode);
                TILUS_FATAL_IF(!pool.grow(id, state.kv_tokens + 1),
                               scheduler_.name()
                                   << " ran out of KV pages decoding request "
                                   << state.request.id
                                   << " without planning a preemption");
                state.kv_tokens += 1;
                kv_used_tokens += 1;
                state.generated_tokens += 1;
                if (state.generated_tokens == state.request.output_tokens)
                    done.push_back(id);
            }
        }

        tracker.onStep(now, step_ms,
                       static_cast<int64_t>(queued.size()),
                       kv_used_tokens, step_batch, step_tokens);
        report.peak_kv_used_tokens =
            std::max(report.peak_kv_used_tokens, kv_used_tokens);
        now += step_ms;
        busy_end_ms = now;

        for (int64_t id : done) {
            RequestState &state = states[id];
            release(id, Phase::kFinished);
            state.finish_ms = now;
            tracker.onFinish(state, now);
            ++finished;
            ++report.completed;
            if (tracing)
                tracer.asyncEnd(vpid, "request", reqName(state.request),
                                id, now);
            if (closed_loop)
                injectNext(now);
        }
        // The occupancy track samples after releases so a drop from a
        // finishing request is visible at the step boundary.
        if (tracing)
            tracer.virtualCounter(vpid, "kv_used_tokens", now,
                                  static_cast<double>(kv_used_tokens));
    }

    // Page accounting must balance: every allocation was returned.
    TILUS_CHECK_MSG(pool.usedPages() == 0 && kv_used_tokens == 0,
                    "KV accounting leaked: " << pool.usedPages()
                                             << " pages / "
                                             << kv_used_tokens
                                             << " tokens still held");
    // Every delayed retry must have re-queued and reached a terminal
    // phase before the loop can count every request finished.
    TILUS_CHECK_MSG(delayed.empty(), "retry backlog leaked "
                                         << delayed.size()
                                         << " delayed requests");

    // The registry takes each event count once per run: a lookup by name
    // builds a string, and no step may allocate. A count that stays 0
    // registers no counter.
    obs::Registry &registry = obs::Registry::instance();
    if (report.preemptions > 0)
        registry.counter("serving_preemptions_total").add(report.preemptions);
    if (report.injected_faults > 0)
        registry.counter("serving_step_faults_total")
            .add(report.injected_faults);
    if (report.failed > 0)
        registry.counter("serving_failed_total").add(report.failed);

    // Every aggregate was accumulated incrementally; derive the report.
    tracker.finalize(report, busy_end_ms);
    report.availability =
        report.completed + report.failed > 0
            ? static_cast<double>(report.completed) /
                  static_cast<double>(report.completed + report.failed)
            : 1.0;
    // Per-window series counter tracks live next to the step spans in
    // the run's virtual process (category "series", names "win:*").
    if (tracing && report.series.enabled())
        report.series.emitCounters(tracer, vpid);
    wall_span.arg("completed", report.completed)
        .arg("rejected", report.rejected)
        .arg("failed", report.failed)
        .arg("injected_faults", report.injected_faults)
        .arg("preemptions", report.preemptions)
        .arg("makespan_ms", report.makespan_ms);
    if (options_.keep_request_states)
        report.requests = std::move(states);
    return report;
}

} // namespace serving
} // namespace tilus
