#include "serving/scheduler.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <tuple>

#include "support/error.h"

namespace tilus {
namespace serving {

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::kQueued: return "queued";
      case Phase::kPrefill: return "prefill";
      case Phase::kDecode: return "decode";
      case Phase::kFinished: return "finished";
      case Phase::kRejected: return "rejected";
      case Phase::kFailed: return "failed";
    }
    return "?";
}

namespace {

/** Orders request ids most urgent first; empty = admission order. */
using MoreUrgent = std::function<bool(int64_t, int64_t)>;

/**
 * The one admission loop: admit @p candidates in order while the batch
 * has room and the pool can back them. A request needs its whole
 * `prompt + output` demand in reservation mode, and in paged mode pages
 * for its prefill target (prompt, or prompt + generated for a preempted
 * resume) — decode growth is on demand, backed by preemption. A request
 * that does not fit ends admission, or with @p bypass is skipped.
 */
template <typename Ids>
void
admit(const SchedulerView &view, const SchedulerLimits &limits,
      const Ids &candidates, bool bypass, BatchPlan &out)
{
    const KvPagePool &pool = *view.kv_pool;
    int64_t running = static_cast<int64_t>(view.running->size());
    int64_t free_budget = pool.freePages();
    for (int64_t id : candidates) {
        if (running >= limits.max_batch)
            break;
        const RequestState &state = (*view.states)[id];
        const int64_t need = pool.pagesForTokens(
            limits.paged() ? state.prefill_target_tokens
                           : state.kvDemandTokens());
        if (need > free_budget) {
            if (bypass)
                continue;
            break;
        }
        out.admit.push_back(id);
        ++running;
        free_budget -= need;
    }
}

/**
 * Make the chosen step feasible in the page pool by planning
 * preemptions. @p victims lists preemption candidates most-preferred
 * first; the rule every policy relies on for forward progress is that
 * the step's primary request (the prefill target, or the decode set's
 * most-preferred member) is never in @p victims.
 *
 * Fills @p out.preempt, drops victims from @p decodable, and returns
 * the page count still free for the step after the planned preemptions.
 */
int64_t
freePagesAfterPreempting(const SchedulerView &view,
                         std::vector<int64_t> &victims,
                         std::vector<int64_t> &decodable,
                         int64_t &pages_needed, BatchPlan &out)
{
    const KvPagePool &pool = *view.kv_pool;
    const std::vector<RequestState> &states = *view.states;
    int64_t free = pool.freePages();
    auto next_victim = victims.begin();
    while (pages_needed > free && next_victim != victims.end()) {
        const int64_t victim = *next_victim++;
        if (pool.pagesHeld(victim) == 0)
            continue; // evicting a page-less request frees nothing
        out.preempt.push_back(victim);
        free += pool.pagesHeld(victim);
        auto in_decode =
            std::find(decodable.begin(), decodable.end(), victim);
        if (in_decode != decodable.end()) {
            // The victim no longer decodes this step: its page need
            // (one more KV entry) leaves the bill.
            pages_needed -=
                pool.pagesLacking(victim, states[victim].kv_tokens + 1);
            decodable.erase(in_decode);
        }
    }
    return free;
}

/**
 * The one step planner, run after admission. Partitions the running set
 * plus this plan's admissions into prefillable and decodable work, then
 * plans one step: a prefill chunk for the most urgent prefillable
 * request, alternating with a decode step over every decodable one, and
 * preempts victims (least urgent first) when the pool is short. Without
 * @p more_urgent requests keep admission order and victims are LIFO.
 * The partition and the victims are rebuilt in @p lists.
 */
void
planPagedStep(const SchedulerView &view, const SchedulerLimits &limits,
              const MoreUrgent &more_urgent, bool &last_step_was_prefill,
              PlannerLists &lists, BatchPlan &out)
{
    const KvPagePool &pool = *view.kv_pool;
    const std::vector<RequestState> &states = *view.states;

    std::vector<int64_t> &prefillable = lists.prefillable;
    std::vector<int64_t> &decodable = lists.decodable;
    std::vector<int64_t> &victims = lists.victims;
    prefillable.clear();
    decodable.clear();
    for (int64_t id : *view.running) {
        const RequestState &state = states[id];
        if (state.prefilled_tokens < state.prefill_target_tokens)
            prefillable.push_back(id);
        else
            decodable.push_back(id);
    }
    for (int64_t id : out.admit)
        prefillable.push_back(id); // freshly admitted: nothing prefilled
    // Without an urgency order victims are LIFO, as in vLLM: most
    // recently admitted first, so the oldest request survives.
    victims.assign(view.running->rbegin(), view.running->rend());
    if (more_urgent) {
        std::sort(prefillable.begin(), prefillable.end(), more_urgent);
        std::sort(decodable.begin(), decodable.end(), more_urgent);
        std::sort(victims.begin(), victims.end(),
                  [&](int64_t a, int64_t b) { return more_urgent(b, a); });
    }

    const bool prefer_prefill = !last_step_was_prefill;
    if (!prefillable.empty() && (decodable.empty() || prefer_prefill)) {
        const int64_t id = prefillable.front();
        const RequestState &state = states[id];
        victims.erase(std::remove(victims.begin(), victims.end(), id),
                      victims.end());
        int64_t chunk =
            std::min(limits.prefill_chunk_tokens,
                     state.prefill_target_tokens - state.prefilled_tokens);
        int64_t needed =
            pool.pagesLacking(id, state.prefilled_tokens + chunk);
        // No decode runs this step: victims must not discount a bill
        // they are not part of.
        std::vector<int64_t> no_decode;
        const int64_t free = freePagesAfterPreempting(
            view, victims, no_decode, needed, out);
        if (needed > free) {
            // Even preempting everything else cannot cover the full
            // chunk: shrink it to what the pool can back. Submission
            // guarantees at least one token always fits.
            chunk = (pool.pagesHeld(id) + free) * pool.pageTokens() -
                    state.prefilled_tokens;
            TILUS_CHECK_MSG(chunk >= 1,
                            "paged prefill cannot make progress for "
                            "request " << state.request.id);
            chunk = std::min(chunk, limits.prefill_chunk_tokens);
        }
        out.prefill.push_back({id, chunk});
        last_step_was_prefill = true;
    } else if (!decodable.empty()) {
        // The most-preferred decoder is never a victim of its own step.
        victims.erase(std::remove(victims.begin(), victims.end(),
                                  decodable.front()),
                      victims.end());
        int64_t needed = 0;
        for (int64_t id : decodable)
            needed += pool.pagesLacking(id, states[id].kv_tokens + 1);
        const int64_t free = freePagesAfterPreempting(
            view, victims, decodable, needed, out);
        TILUS_CHECK_MSG(needed <= free,
                        "paged decode cannot make progress with "
                            << decodable.size() << " requests");
        // Swapped, not moved: the plan's cleared list comes back, so
        // both keep their capacity.
        out.decode.swap(decodable);
        last_step_was_prefill = false;
    }
}

/** Deadline class for goodput ordering: 0 = live SLO (still winnable),
    1 = best-effort (no SLO to win), 2 = missed (goodput already lost). */
int
deadlineClass(const RequestState &state, double now_ms)
{
    if (state.request.slo_ms <= 0)
        return 1;
    const double deadline = state.request.arrival_ms + state.request.slo_ms;
    return now_ms > deadline ? 2 : 0;
}

double
deadlineOf(const RequestState &state)
{
    if (state.request.slo_ms <= 0)
        return std::numeric_limits<double>::infinity();
    return state.request.arrival_ms + state.request.slo_ms;
}

} // namespace

void
FcfsScheduler::plan(const SchedulerView &view, const SchedulerLimits &limits,
                    BatchPlan &out)
{
    TILUS_CHECK(view.states != nullptr && view.queued != nullptr &&
                view.running != nullptr && view.kv_pool != nullptr);
    admit(view, limits, *view.queued, /*bypass=*/false, out);
    planPagedStep(view, limits, MoreUrgent(), last_step_was_prefill_,
                  lists_, out);
}

bool
SloScheduler::Urgency::operator<(const Urgency &other) const
{
    return std::tie(deadline_class, deadline_ms, arrival_ms, id) <
           std::tie(other.deadline_class, other.deadline_ms,
                    other.arrival_ms, other.id);
}

void
SloScheduler::plan(const SchedulerView &view, const SchedulerLimits &limits,
                   BatchPlan &out)
{
    TILUS_CHECK(view.states != nullptr && view.queued != nullptr &&
                view.running != nullptr && view.kv_pool != nullptr);
    const std::vector<RequestState> &states = *view.states;

    // Most urgent first: still-winnable deadlines (earliest first), then
    // best-effort, then already-missed; arrival order breaks ties.
    auto urgency = [&](int64_t id) {
        const RequestState &state = states[id];
        return Urgency{deadlineClass(state, view.now_ms), deadlineOf(state),
                       state.request.arrival_ms, id};
    };

    // Goodput-maximizing admission: earliest-deadline-first with bypass.
    // A request that does not fit is skipped, not waited for — a
    // tight-deadline arrival overtakes queued work it can outrun. The
    // queue is sorted by keys computed once per request per step.
    queue_keys_.clear();
    for (int64_t id : *view.queued)
        queue_keys_.push_back(urgency(id));
    std::sort(queue_keys_.begin(), queue_keys_.end());
    by_urgency_.clear();
    for (const Urgency &key : queue_keys_)
        by_urgency_.push_back(key.id);
    admit(view, limits, by_urgency_, /*bypass=*/true, out);
    // The chunk goes to the most urgent prefillable request, and victims
    // go in reverse urgency — missed deadlines and best-effort work pay
    // for pages before any still-winnable request does — so each
    // preemption costs the least goodput.
    planPagedStep(
        view, limits,
        [&](int64_t a, int64_t b) { return urgency(a) < urgency(b); },
        last_step_was_prefill_, lists_, out);
}

} // namespace serving
} // namespace tilus
