/**
 * @file
 * Serving-subsystem tests: percentile math on known distributions,
 * deterministic trace generation and replay, strict FCFS admission
 * order, max_batch and KV-capacity enforcement (back-pressure queues
 * instead of OOM), chunked-prefill accounting, closed-loop traces, and
 * exact lifecycle timestamps against a hand-computed schedule. A
 * synthetic StepCostModel with linear costs keeps every test instant
 * and makes expected timings computable by hand.
 *
 * The paged-KV section covers KvPagePool accounting, out-of-pages
 * preemption (never OOM), recompute-on-resume TTFT/TPOT accounting,
 * occupancy gains over whole-request reservation, the SLO policy's
 * goodput edge, and the golden ServingReport JSON schema that
 * BENCH_serving.json consumers rely on. The last section pins fixed
 * seeded runs of every policy to recorded digests.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <utility>

#include "cache/fingerprint.h"
#include "serving/simulator.h"
#include "support/fault.h"
#include "support/json.h"
#include "support/percentile.h"

namespace tilus {
namespace {

using serving::BatchPlan;
using serving::FcfsScheduler;
using serving::KvPagePool;
using serving::LatencySummary;
using serving::PagedFcfsScheduler;
using serving::Phase;
using serving::RequestState;
using serving::ServingReport;
using serving::SimOptions;
using serving::Simulator;
using serving::SloScheduler;
using serving::Trace;
using serving::TraceOptions;

/** Linear synthetic costs: decode 1 + 0.1*batch ms, prefill 0.01/token. */
class FakeCost : public llm::StepCostModel
{
  public:
    FakeCost(int64_t kv_capacity, int64_t max_batch,
             int64_t context_tokens = 0)
        : kv_capacity_(kv_capacity), max_batch_(max_batch),
          context_tokens_(context_tokens > 0 ? context_tokens
                                             : kv_capacity)
    {}

    double decodeMs(int64_t batch) override { return 1.0 + 0.1 * batch; }
    double
    prefillMs(int64_t tokens, int64_t /*past_tokens*/) override
    {
        return 0.01 * tokens; // past-insensitive: keeps hand math simple
    }
    int64_t kvCapacityTokens() const override { return kv_capacity_; }
    int64_t maxBatch() const override { return max_batch_; }
    int64_t contextTokens() const override { return context_tokens_; }

  private:
    int64_t kv_capacity_;
    int64_t max_batch_;
    int64_t context_tokens_;
};

SimOptions
exactOptions(const llm::StepCostModel &costs)
{
    SimOptions options;
    options.limits = serving::limitsFrom(costs);
    options.prefill_cost_bucket = 0; // exact costs for hand-checked math
    options.decode_cost_pow2 = false;
    return options;
}

TEST(Percentile, MatchesKnownDistributions)
{
    std::vector<double> one_to_hundred;
    for (int i = 1; i <= 100; ++i)
        one_to_hundred.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(one_to_hundred, 50), 50.5);
    EXPECT_DOUBLE_EQ(percentile(one_to_hundred, 95), 95.05);
    EXPECT_DOUBLE_EQ(percentile(one_to_hundred, 99), 99.01);
    EXPECT_DOUBLE_EQ(percentile(one_to_hundred, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(one_to_hundred, 100), 100.0);
    EXPECT_DOUBLE_EQ(meanOf(one_to_hundred), 50.5);

    EXPECT_DOUBLE_EQ(percentile({42.0}, 99), 42.0);
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(meanOf({}), 0.0);

    // Interpolation between two points: p25 of {10, 20} = 12.5.
    EXPECT_DOUBLE_EQ(percentile({20.0, 10.0}, 25), 12.5);
}

TEST(TraceGen, SameSeedSameTrace)
{
    TraceOptions options;
    options.num_requests = 200;
    options.seed = 7;
    Trace a = serving::poissonTrace(options);
    Trace b = serving::poissonTrace(options);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].arrival_ms, b.requests[i].arrival_ms);
        EXPECT_EQ(a.requests[i].prompt_tokens, b.requests[i].prompt_tokens);
        EXPECT_EQ(a.requests[i].output_tokens, b.requests[i].output_tokens);
    }

    options.seed = 8;
    Trace c = serving::poissonTrace(options);
    bool differs = false;
    for (size_t i = 0; i < a.requests.size(); ++i)
        differs = differs ||
                  a.requests[i].arrival_ms != c.requests[i].arrival_ms;
    EXPECT_TRUE(differs);
}

TEST(TraceGen, ArrivalsSortedAndRatesMatch)
{
    TraceOptions options;
    options.num_requests = 2000;
    options.rate_rps = 10.0;
    Trace trace = serving::poissonTrace(options);
    for (size_t i = 1; i < trace.requests.size(); ++i)
        EXPECT_GE(trace.requests[i].arrival_ms,
                  trace.requests[i - 1].arrival_ms);
    // Long-run rate within 10% of nominal.
    double span_s = trace.requests.back().arrival_ms / 1000.0;
    double rate = double(options.num_requests) / span_s;
    EXPECT_NEAR(rate, options.rate_rps, options.rate_rps * 0.1);

    // Bursty: same long-run rate, arrivals grouped in bursts.
    Trace bursty = serving::burstyTrace(options, 8);
    span_s = bursty.requests.back().arrival_ms / 1000.0;
    rate = double(options.num_requests) / span_s;
    EXPECT_NEAR(rate, options.rate_rps, options.rate_rps * 0.15);
    EXPECT_EQ(bursty.requests[0].arrival_ms, bursty.requests[7].arrival_ms);
    EXPECT_NE(bursty.requests[7].arrival_ms, bursty.requests[8].arrival_ms);
}

TEST(Simulator, DeterministicReplay)
{
    FakeCost costs(4096, 8);
    TraceOptions options;
    options.num_requests = 120;
    options.rate_rps = 50.0;
    options.seed = 13;
    Trace trace = serving::poissonTrace(options);

    FcfsScheduler sched_a, sched_b;
    Simulator sim_a(costs, sched_a, exactOptions(costs));
    Simulator sim_b(costs, sched_b, exactOptions(costs));
    ServingReport a = sim_a.run(trace);
    ServingReport b = sim_b.run(trace);
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_EQ(a.completed, options.num_requests);
    EXPECT_DOUBLE_EQ(a.makespan_ms, b.makespan_ms);
    EXPECT_DOUBLE_EQ(a.latency.p99, b.latency.p99);
}

TEST(Simulator, FcfsAdmissionFollowsArrivalOrder)
{
    FakeCost costs(100000, 2); // tight batch => real queueing
    TraceOptions options;
    options.num_requests = 40;
    options.rate_rps = 200.0;
    options.seed = 3;
    Trace trace = serving::poissonTrace(options);

    FcfsScheduler scheduler;
    Simulator simulator(costs, scheduler, exactOptions(costs));
    ServingReport report = simulator.run(trace);
    ASSERT_EQ(report.completed, options.num_requests);

    // Sorted by arrival, admission times must be non-decreasing.
    std::vector<const RequestState *> by_arrival;
    for (const RequestState &state : report.requests)
        by_arrival.push_back(&state);
    std::stable_sort(by_arrival.begin(), by_arrival.end(),
                     [](const RequestState *a, const RequestState *b) {
                         return a->request.arrival_ms <
                                b->request.arrival_ms;
                     });
    for (size_t i = 1; i < by_arrival.size(); ++i)
        EXPECT_GE(by_arrival[i]->admitted_ms,
                  by_arrival[i - 1]->admitted_ms);
    EXPECT_GT(report.max_queue_depth, 0);
}

TEST(Simulator, BatchNeverExceedsMaxBatch)
{
    FakeCost costs(1 << 20, 4);
    TraceOptions options;
    options.num_requests = 64;
    options.rate_rps = 500.0; // everyone arrives nearly at once
    Trace trace = serving::burstyTrace(options, 16);

    FcfsScheduler scheduler;
    Simulator simulator(costs, scheduler, exactOptions(costs));
    ServingReport report = simulator.run(trace);
    EXPECT_EQ(report.completed, options.num_requests);
    ASSERT_EQ(static_cast<int64_t>(report.batch_histogram.size()), 5);
    EXPECT_GT(report.batch_histogram[4], 0); // saturates the limit
    int64_t steps = 0;
    for (int64_t count : report.batch_histogram)
        steps += count;
    EXPECT_EQ(steps, report.decode_steps);
}

TEST(Simulator, KvBackPressureQueuesInsteadOfOom)
{
    // Capacity 300 tokens; every request demands 100+20=120, so at most
    // two run concurrently even though max_batch allows eight.
    FakeCost costs(300, 8);
    TraceOptions options;
    options.num_requests = 12;
    options.rate_rps = 1000.0;
    options.prompt_min = options.prompt_max = 100;
    options.output_min = options.output_max = 20;
    Trace trace = serving::poissonTrace(options);

    FcfsScheduler scheduler;
    Simulator simulator(costs, scheduler, exactOptions(costs));
    ServingReport report;
    ASSERT_NO_THROW(report = simulator.run(trace));
    EXPECT_EQ(report.completed, 12);
    EXPECT_EQ(report.rejected, 0);
    for (size_t batch = 3; batch < report.batch_histogram.size(); ++batch)
        EXPECT_EQ(report.batch_histogram[batch], 0) << batch;
    EXPECT_GT(report.max_queue_depth, 0); // back-pressure was exercised
}

TEST(Simulator, OversizedRequestRejectedOthersServed)
{
    FakeCost costs(500, 8);
    Trace trace;
    trace.requests.push_back({0, 0.0, 100, 10, 0});
    trace.requests.push_back({1, 1.0, 600, 10, 0}); // can never fit
    trace.requests.push_back({2, 2.0, 100, 10, 0});

    FcfsScheduler scheduler;
    Simulator simulator(costs, scheduler, exactOptions(costs));
    ServingReport report = simulator.run(trace);
    EXPECT_EQ(report.completed, 2);
    EXPECT_EQ(report.rejected, 1);
    EXPECT_EQ(report.requests[1].phase, Phase::kRejected);
    EXPECT_EQ(report.requests[0].phase, Phase::kFinished);
    EXPECT_EQ(report.requests[2].phase, Phase::kFinished);
}

TEST(Simulator, TrailingRejectedArrivalDoesNotInflateMakespan)
{
    // The last request arrives long after all work is done and is
    // unservable: the idle jump to its arrival must not count toward
    // makespan or dilute the throughput rates.
    FakeCost costs(500, 8);
    Trace trace;
    trace.requests.push_back({0, 0.0, 100, 10, 0});
    trace.requests.push_back({1, 10000.0, 600, 10, 0}); // oversized
    FcfsScheduler scheduler;
    Simulator simulator(costs, scheduler, exactOptions(costs));
    ServingReport report = simulator.run(trace);
    EXPECT_EQ(report.completed, 1);
    EXPECT_EQ(report.rejected, 1);
    EXPECT_LT(report.makespan_ms, 100.0);
    EXPECT_GT(report.throughput_tok_s, 100.0); // 10 tokens in ~11 ms
}

TEST(Simulator, ContextWindowRejectsOverlongRequests)
{
    // Pool capacity would admit the request, but it exceeds the
    // per-request context window the decode cost model assumes.
    FakeCost costs(1 << 20, 8, /*context_tokens=*/256);
    Trace trace;
    trace.requests.push_back({0, 0.0, 100, 10, 0});  // 110 <= 256
    trace.requests.push_back({1, 1.0, 300, 10, 0});  // 310 > 256
    FcfsScheduler scheduler;
    Simulator simulator(costs, scheduler, exactOptions(costs));
    ServingReport report = simulator.run(trace);
    EXPECT_EQ(report.completed, 1);
    EXPECT_EQ(report.rejected, 1);
    EXPECT_EQ(report.requests[1].phase, Phase::kRejected);
}

TEST(Simulator, HandComputedLifecycleTimestamps)
{
    // One request: prompt 200, output 5. Chunk 256 => a single prefill
    // step of 200 tokens costing 2.0 ms which also emits token 1; then
    // four decode steps at batch 1 costing 1.1 ms each.
    FakeCost costs(4096, 8);
    Trace trace;
    trace.requests.push_back({0, 0.0, 200, 5, 0});

    FcfsScheduler scheduler;
    Simulator simulator(costs, scheduler, exactOptions(costs));
    ServingReport report = simulator.run(trace);
    ASSERT_EQ(report.completed, 1);
    const RequestState &state = report.requests[0];
    EXPECT_DOUBLE_EQ(state.admitted_ms, 0.0);
    EXPECT_DOUBLE_EQ(state.first_token_ms, 2.0);
    EXPECT_DOUBLE_EQ(state.finish_ms, 2.0 + 4 * 1.1);
    EXPECT_DOUBLE_EQ(report.ttft.mean, 2.0);
    EXPECT_DOUBLE_EQ(report.tpot.mean, 1.1);
    EXPECT_DOUBLE_EQ(report.latency.mean, 6.4);
    EXPECT_EQ(report.prefill_steps, 1);
    EXPECT_EQ(report.decode_steps, 4);
    EXPECT_EQ(report.output_tokens, 5);
}

TEST(Simulator, ChunkedPrefillSplitsLongPrompts)
{
    FakeCost costs(4096, 8);
    Trace trace;
    trace.requests.push_back({0, 0.0, 1000, 2, 0});

    FcfsScheduler scheduler;
    SimOptions options = exactOptions(costs);
    options.limits.prefill_chunk_tokens = 100;
    Simulator simulator(costs, scheduler, options);
    ServingReport report = simulator.run(trace);
    EXPECT_EQ(report.completed, 1);
    EXPECT_EQ(report.prefill_steps, 10); // ceil(1000 / 100)
    // TTFT = 10 chunks x 1.0 ms each.
    EXPECT_DOUBLE_EQ(report.ttft.mean, 10.0);
}

TEST(Simulator, ChunkCostsTelescopeToOneShotPrefill)
{
    // A past-aware quadratic cost model: chunking a prompt must cost
    // exactly what one-shot prefill costs (C*(2P+C) telescopes to T^2).
    class QuadraticCost : public llm::StepCostModel
    {
      public:
        double decodeMs(int64_t batch) override { return 1.0 + batch; }
        double
        prefillMs(int64_t tokens, int64_t past_tokens) override
        {
            return 1e-3 * double(tokens) *
                   (2.0 * double(past_tokens) + double(tokens));
        }
        int64_t kvCapacityTokens() const override { return 1 << 20; }
        int64_t maxBatch() const override { return 8; }
        int64_t contextTokens() const override { return 1 << 20; }
    };

    QuadraticCost costs;
    Trace trace;
    trace.requests.push_back({0, 0.0, 1000, 1, 0});

    auto ttftWithChunk = [&](int64_t chunk) {
        FcfsScheduler scheduler;
        SimOptions options = exactOptions(costs);
        options.limits.prefill_chunk_tokens = chunk;
        Simulator simulator(costs, scheduler, options);
        return simulator.run(trace).ttft.mean;
    };
    const double one_shot = ttftWithChunk(1000); // 1e-3 * 1000^2
    EXPECT_DOUBLE_EQ(one_shot, 1000.0);
    EXPECT_DOUBLE_EQ(ttftWithChunk(250), one_shot);
    EXPECT_DOUBLE_EQ(ttftWithChunk(100), one_shot);
}

TEST(Simulator, AlternateModeInterleavesDecodeWithPrefill)
{
    // Request 0 decodes a short answer while request 1 prefills a long
    // prompt in 20 chunks: alternating step kinds keeps tokens flowing
    // between chunks, so request 0 finishes before request 1's prompt
    // is drained and its first token emitted.
    FakeCost costs(1 << 20, 8);
    Trace trace;
    trace.requests.push_back({0, 0.0, 10, 10, 0});
    trace.requests.push_back({1, 0.0, 2000, 2, 0});

    SimOptions options = exactOptions(costs);
    options.limits.prefill_chunk_tokens = 100;

    FcfsScheduler alternate;
    Simulator sim_alt(costs, alternate, options);
    ServingReport alt = sim_alt.run(trace);

    ASSERT_EQ(alt.completed, 2);
    EXPECT_LT(alt.requests[0].finish_ms, alt.requests[1].first_token_ms);
}

TEST(Simulator, ClosedLoopBoundsConcurrency)
{
    FakeCost costs(1 << 20, 8);
    TraceOptions options;
    options.num_requests = 24;
    Trace trace = serving::closedLoopTrace(options, 2);

    FcfsScheduler scheduler;
    Simulator simulator(costs, scheduler, exactOptions(costs));
    ServingReport report = simulator.run(trace);
    EXPECT_EQ(report.completed, 24);
    // Two clients => never more than two requests in flight.
    for (size_t batch = 3; batch < report.batch_histogram.size(); ++batch)
        EXPECT_EQ(report.batch_histogram[batch], 0) << batch;
    // Each injection is admitted at its submission instant: clients
    // spend no virtual time queued.
    EXPECT_DOUBLE_EQ(report.queue_wait.p99, 0.0);
}

TEST(Simulator, CostBucketingRoundsUpDeterministically)
{
    // With bucketing on, a 3-wide decode is billed as 4-wide and a
    // 130-token chunk as 192 tokens; metrics stay deterministic.
    class RecordingCost : public FakeCost
    {
      public:
        RecordingCost() : FakeCost(1 << 20, 8) {}
        double
        decodeMs(int64_t batch) override
        {
            decode_batches.push_back(batch);
            return FakeCost::decodeMs(batch);
        }
        double
        prefillMs(int64_t tokens, int64_t past_tokens) override
        {
            prefill_tokens.push_back(tokens);
            return FakeCost::prefillMs(tokens, past_tokens);
        }
        std::vector<int64_t> decode_batches;
        std::vector<int64_t> prefill_tokens;
    };

    RecordingCost costs;
    Trace trace;
    trace.requests.push_back({0, 0.0, 130, 3, 0});
    trace.requests.push_back({1, 0.0, 130, 3, 0});
    trace.requests.push_back({2, 0.0, 130, 3, 0});

    FcfsScheduler scheduler;
    SimOptions options;
    options.limits = serving::limitsFrom(costs);
    options.limits.prefill_chunk_tokens = 192;
    Simulator simulator(costs, scheduler, options);
    ServingReport report = simulator.run(trace);
    EXPECT_EQ(report.completed, 3);
    for (int64_t batch : costs.decode_batches)
        EXPECT_TRUE(batch == 1 || batch == 2 || batch == 4) << batch;
    for (int64_t tokens : costs.prefill_tokens)
        EXPECT_EQ(tokens % 64, 0) << tokens;
}

TEST(Simulator, WarmUpCoversEveryBucketedLookup)
{
    // warmUp must pre-touch exactly the cost buckets the event loop can
    // later request, so a warmed engine never tunes inside a timed run.
    class RecordingCost : public FakeCost
    {
      public:
        RecordingCost() : FakeCost(1 << 20, 8) {}
        double
        decodeMs(int64_t batch) override
        {
            decode_batches.insert(batch);
            return FakeCost::decodeMs(batch);
        }
        double
        prefillMs(int64_t tokens, int64_t past_tokens) override
        {
            prefill_tokens.insert(tokens);
            return FakeCost::prefillMs(tokens, past_tokens);
        }
        std::set<int64_t> decode_batches;
        std::set<int64_t> prefill_tokens;
    };

    RecordingCost costs;
    FcfsScheduler scheduler;
    SimOptions options;
    options.limits = serving::limitsFrom(costs);
    options.limits.prefill_chunk_tokens = 192;
    Simulator simulator(costs, scheduler, options);
    simulator.warmUp();
    EXPECT_EQ(costs.decode_batches,
              (std::set<int64_t>{1, 2, 4, 8})); // pow2 up to max_batch
    EXPECT_EQ(costs.prefill_tokens,
              (std::set<int64_t>{64, 128, 192})); // bucket multiples

    // A real run only ever requests lookups the warm-up already made.
    const std::set<int64_t> warm_decode = costs.decode_batches;
    const std::set<int64_t> warm_prefill = costs.prefill_tokens;
    Trace trace;
    trace.requests.push_back({0, 0.0, 130, 3, 0});
    trace.requests.push_back({1, 0.0, 130, 3, 0});
    trace.requests.push_back({2, 0.5, 200, 5, 0});
    ServingReport report = simulator.run(trace);
    EXPECT_EQ(report.completed, 3);
    EXPECT_EQ(costs.decode_batches, warm_decode);
    EXPECT_EQ(costs.prefill_tokens, warm_prefill);
}

TEST(Report, JsonContainsEveryHeadlineMetric)
{
    FakeCost costs(4096, 4);
    TraceOptions options;
    options.num_requests = 10;
    options.slo_ms = 1e9;
    Trace trace = serving::poissonTrace(options);
    FcfsScheduler scheduler;
    Simulator simulator(costs, scheduler, exactOptions(costs));
    ServingReport report = simulator.run(trace);
    report.system = "tilus";
    report.model = "fake";
    std::string json = report.toJson();
    for (const char *key :
         {"\"throughput_tok_s\":", "\"ttft_ms\":", "\"tpot_ms\":",
          "\"latency_ms\":", "\"p50\":", "\"p95\":", "\"p99\":",
          "\"goodput_req_s\":", "\"batch_histogram\":",
          "\"scheduler\":\"fcfs-alternate\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    // Every request met the (absurdly lax) SLO.
    EXPECT_DOUBLE_EQ(report.goodput_req_s, report.request_per_s);
}

// ------------------------------------------------------------ paged KV

SimOptions
pagedExactOptions(const llm::StepCostModel &costs, int64_t page_tokens)
{
    SimOptions options;
    options.limits = serving::pagedLimitsFrom(costs, page_tokens);
    options.prefill_cost_bucket = 0;
    options.decode_cost_pow2 = false;
    return options;
}

TEST(KvPagePool, AccountingBasics)
{
    KvPagePool pool(100, 16); // 6 whole pages, partial page dropped
    EXPECT_EQ(pool.totalPages(), 6);
    EXPECT_EQ(pool.pageTokens(), 16);
    EXPECT_EQ(pool.freePages(), 6);
    EXPECT_EQ(pool.pagesForTokens(0), 0);
    EXPECT_EQ(pool.pagesForTokens(1), 1);
    EXPECT_EQ(pool.pagesForTokens(16), 1);
    EXPECT_EQ(pool.pagesForTokens(17), 2);

    // Growth covers tokens at page granularity, never shrinks.
    EXPECT_TRUE(pool.grow(7, 20)); // 2 pages
    EXPECT_EQ(pool.pagesHeld(7), 2);
    EXPECT_EQ(pool.freePages(), 4);
    EXPECT_TRUE(pool.grow(7, 10)); // no-op: already covered
    EXPECT_EQ(pool.pagesHeld(7), 2);
    EXPECT_TRUE(pool.grow(8, 64)); // 4 pages: pool now full
    EXPECT_EQ(pool.freePages(), 0);

    // Exhaustion is a refusal, not a crash, and leaves the pool as-is.
    EXPECT_FALSE(pool.grow(7, 33));
    EXPECT_EQ(pool.pagesHeld(7), 2);
    EXPECT_EQ(pool.usedPages(), 6);

    // Release returns every page, and the freed pages back the next
    // owner.
    pool.release(7);
    EXPECT_EQ(pool.pagesHeld(7), 0);
    EXPECT_EQ(pool.freePages(), 2);
    EXPECT_TRUE(pool.grow(9, 32));
    EXPECT_EQ(pool.pagesHeld(9), 2);
    EXPECT_EQ(pool.freePages(), 0);
    pool.release(8);
    pool.release(9);
    EXPECT_EQ(pool.usedPages(), 0);
    pool.release(123); // unknown owner: no-op
    EXPECT_EQ(pool.freePages(), 6);
}

TEST(PagedSimulator, ReservationPolicyRefusedOnPagedLimits)
{
    // A reservation-mode policy admits against demands it never holds;
    // running it over a page pool must fail at construction, loudly.
    FakeCost costs(4096, 8);
    FcfsScheduler scheduler;
    EXPECT_THROW(
        Simulator(costs, scheduler, pagedExactOptions(costs, 16)),
        FatalError);
}

TEST(PagedSimulator, ExhaustionPreemptsInsteadOfOom)
{
    // 10 pages of 16 tokens. Each request peaks at 83 KV entries
    // (6 pages), so two concurrent requests eventually need 12 pages:
    // the pool must run dry mid-decode and recover by preemption.
    FakeCost costs(160, 2);
    Trace trace;
    trace.requests.push_back({0, 0.0, 64, 20, 0});
    trace.requests.push_back({1, 0.0, 64, 20, 0});

    PagedFcfsScheduler scheduler;
    Simulator simulator(costs, scheduler, pagedExactOptions(costs, 16));
    ServingReport report;
    ASSERT_NO_THROW(report = simulator.run(trace));
    EXPECT_EQ(report.completed, 2);
    EXPECT_EQ(report.rejected, 0);
    EXPECT_GE(report.preemptions, 1);
    // LIFO victims: the older request is never evicted.
    EXPECT_EQ(report.requests[0].preemptions, 0);
    EXPECT_GE(report.requests[1].preemptions, 1);
    EXPECT_EQ(report.output_tokens, 40); // nothing lost to preemption
    EXPECT_LT(report.requests[0].finish_ms, report.requests[1].finish_ms);

    // TTFT anchors to the FIRST emission, before any preemption: the
    // opening schedule is hand-computable (prefill A 0.64 ms, decode A
    // 1.1 ms, prefill B 0.64 ms).
    EXPECT_DOUBLE_EQ(report.requests[0].first_token_ms, 0.64);
    EXPECT_DOUBLE_EQ(report.requests[1].first_token_ms, 2.38);
}

TEST(PagedSimulator, PreemptedRequestAbsorbsStallIntoTpot)
{
    // The same two-request overcommit, against an ample-pool control
    // run: the preempted request's TTFT is identical (first emission
    // already happened), the recompute stall shows up purely as TPOT.
    Trace trace;
    trace.requests.push_back({0, 0.0, 64, 20, 0});
    trace.requests.push_back({1, 0.0, 64, 20, 0});

    FakeCost tight(160, 2);
    PagedFcfsScheduler sched_tight;
    Simulator sim_tight(tight, sched_tight, pagedExactOptions(tight, 16));
    ServingReport preempted = sim_tight.run(trace);
    ASSERT_GE(preempted.preemptions, 1);

    FakeCost ample(4096, 2);
    PagedFcfsScheduler sched_ample;
    Simulator sim_ample(ample, sched_ample, pagedExactOptions(ample, 16));
    ServingReport smooth = sim_ample.run(trace);
    ASSERT_EQ(smooth.preemptions, 0);

    EXPECT_DOUBLE_EQ(preempted.requests[1].first_token_ms,
                     smooth.requests[1].first_token_ms);
    const auto tpotOf = [](const ServingReport &r, size_t i) {
        return (r.requests[i].finish_ms - r.requests[i].first_token_ms) /
               double(r.requests[i].request.output_tokens - 1);
    };
    EXPECT_GT(tpotOf(preempted, 1), tpotOf(smooth, 1));
    EXPECT_EQ(preempted.requests[1].generated_tokens, 20);
}

TEST(PagedSimulator, AccountingBalancesAfterEveryTrace)
{
    // Stress both paged policies over bursty overcommitted traces; the
    // simulator CHECK-fails the run if any page or KV token leaks, so
    // surviving the sweep proves the accounting balances to zero.
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        TraceOptions options;
        options.num_requests = 60;
        options.rate_rps = 400.0;
        options.prompt_min = 32;
        options.prompt_max = 200;
        options.output_min = 16;
        options.output_max = 96;
        options.slo_ms = 40.0;
        options.seed = seed;
        Trace trace = serving::burstyTrace(options, 12);

        FakeCost costs(1024, 8); // 64 pages: heavy overcommit
        PagedFcfsScheduler fcfs;
        Simulator sim_fcfs(costs, fcfs, pagedExactOptions(costs, 16));
        ServingReport a;
        ASSERT_NO_THROW(a = sim_fcfs.run(trace)) << "seed " << seed;
        EXPECT_EQ(a.completed + a.rejected, options.num_requests);

        SloScheduler slo;
        Simulator sim_slo(costs, slo, pagedExactOptions(costs, 16));
        ServingReport b;
        ASSERT_NO_THROW(b = sim_slo.run(trace)) << "seed " << seed;
        EXPECT_EQ(b.completed + b.rejected, options.num_requests);
    }
}

TEST(PagedSimulator, DeterministicReplay)
{
    FakeCost costs(2048, 8);
    TraceOptions options;
    options.num_requests = 80;
    options.rate_rps = 120.0;
    options.seed = 5;
    options.prompt_max = 256;
    options.slo_ms = 300.0;
    Trace trace = serving::poissonTrace(options);

    PagedFcfsScheduler sched_a, sched_b;
    Simulator sim_a(costs, sched_a, pagedExactOptions(costs, 16));
    Simulator sim_b(costs, sched_b, pagedExactOptions(costs, 16));
    EXPECT_EQ(sim_a.run(trace).toJson(), sim_b.run(trace).toJson());
}

TEST(PagedSimulator, PagedRaisesOccupancyOverReservation)
{
    // Equal traffic, equal capacity: whole-request reservation leaves
    // KV idle for output tokens not yet generated, paged admission
    // converts that headroom into batch and KV occupancy.
    FakeCost costs(1600, 16);
    TraceOptions options;
    options.num_requests = 48;
    options.rate_rps = 150.0;
    options.prompt_min = 64;
    options.prompt_max = 128;
    options.output_min = 64;
    options.output_max = 128;
    options.seed = 11;
    Trace trace = serving::poissonTrace(options);

    FcfsScheduler reserve;
    SimOptions reserve_options = exactOptions(costs);
    Simulator sim_reserve(costs, reserve, reserve_options);
    ServingReport base = sim_reserve.run(trace);

    PagedFcfsScheduler paged;
    Simulator sim_paged(costs, paged, pagedExactOptions(costs, 16));
    ServingReport pg = sim_paged.run(trace);

    EXPECT_EQ(base.completed, 48);
    EXPECT_EQ(pg.completed, 48);
    EXPECT_GT(pg.mean_decode_batch, base.mean_decode_batch);
    EXPECT_GT(pg.mean_kv_used_frac, base.mean_kv_used_frac);
    EXPECT_GT(pg.peak_kv_used_tokens, base.peak_kv_used_tokens);
}

TEST(SloScheduler, TightDeadlineBypassesLooseQueueHead)
{
    // One slot: the best-effort giant is at the queue head when a
    // tight-SLO request arrives. EDF admission lets the tight one
    // overtake; paged FCFS would serve strictly in arrival order.
    FakeCost costs(4096, 1);
    Trace trace;
    trace.requests.push_back({0, 0.0, 400, 200, 0});   // best effort
    trace.requests.push_back({1, 0.0, 40, 4, 100.0});  // tight SLO

    SloScheduler slo;
    Simulator sim(costs, slo, pagedExactOptions(costs, 16));
    ServingReport report = sim.run(trace);
    ASSERT_EQ(report.completed, 2);
    EXPECT_LT(report.requests[1].finish_ms, report.requests[0].finish_ms);
    EXPECT_LE(report.requests[1].finish_ms, 100.0); // SLO met

    PagedFcfsScheduler fcfs;
    Simulator sim_fcfs(costs, fcfs, pagedExactOptions(costs, 16));
    ServingReport base = sim_fcfs.run(trace);
    ASSERT_EQ(base.completed, 2);
    EXPECT_GT(base.requests[1].finish_ms, 100.0); // SLO missed
}

TEST(SloScheduler, BeatsPagedFcfsGoodputOnBurstyTrace)
{
    // A burst of mixed deadline classes: FCFS interleaves tight and
    // best-effort work in arrival order and misses deadlines across
    // the board; the SLO policy front-loads the winnable ones.
    FakeCost costs(2048, 8);
    TraceOptions options;
    options.num_requests = 40;
    options.rate_rps = 300.0;
    options.prompt_min = 48;
    options.prompt_max = 160;
    options.output_min = 16;
    options.output_max = 48;
    options.seed = 21;
    Trace trace = serving::burstyTrace(options, 10);
    for (size_t i = 0; i < trace.requests.size(); ++i)
        trace.requests[i].slo_ms = (i % 2 == 0) ? 120.0 : 0.0;

    PagedFcfsScheduler fcfs;
    Simulator sim_fcfs(costs, fcfs, pagedExactOptions(costs, 16));
    ServingReport base = sim_fcfs.run(trace);

    SloScheduler slo;
    Simulator sim_slo(costs, slo, pagedExactOptions(costs, 16));
    ServingReport tuned = sim_slo.run(trace);

    EXPECT_EQ(base.completed, 40);
    EXPECT_EQ(tuned.completed, 40);
    EXPECT_GT(tuned.goodput_req_s, base.goodput_req_s);
}

TEST(Report, GoldenJsonSchemaIsPinned)
{
    // BENCH_serving.json consumers parse this schema; field names,
    // order, and number formatting (%.6g) are part of the contract
    // documented in src/serving/README.md. Touching toJson() means
    // updating the doc, this literal, and downstream consumers.
    ServingReport report;
    report.scheduler = "golden";
    report.system = "tilus";
    report.model = "m";
    report.wdtype = "u4";
    report.rate_rps = 4;
    report.seed = 7;
    report.total_requests = 2;
    report.completed = 2;
    report.rejected = 0;
    report.failed = 1;
    report.retries = 3;
    report.injected_faults = 4;
    report.met_slo = 2;
    report.prompt_tokens = 100;
    report.output_tokens = 10;
    report.prefill_steps = 2;
    report.decode_steps = 8;
    report.preemptions = 1;
    report.makespan_ms = 12.5;
    report.throughput_tok_s = 800;
    report.request_per_s = 160;
    report.goodput_req_s = 160;
    report.availability = 0.8;
    const LatencySummary summary = {2, 1.5, 1.5, 2.0, 2.25};
    report.ttft = summary;
    report.tpot = summary;
    report.latency = summary;
    report.queue_wait = summary;
    report.mean_queue_depth = 0.25;
    report.max_queue_depth = 3;
    report.mean_decode_batch = 1.75;
    report.kv_page_tokens = 16;
    report.kv_capacity_tokens = 256;
    report.mean_kv_used_tokens = 128;
    report.peak_kv_used_tokens = 200;
    report.mean_kv_used_frac = 0.5;
    report.batch_histogram = {0, 4, 2, 2};
    // A populated series block: 5 ms windows over a 12.5 ms run (the
    // last window covers only 2.5 ms and normalizes by that).
    report.series = obs::TimeSeries(5.0);
    const int ch_tok = report.series.channel(
        "throughput_tok_s", obs::TimeSeries::Kind::kRatePerSec);
    const int ch_queue = report.series.channel(
        "queue_depth", obs::TimeSeries::Kind::kMean);
    report.series.add(ch_tok, 1.0, 4);
    report.series.add(ch_tok, 6.0, 4);
    report.series.integrate(ch_queue, 0.0, 10.0, 1.0);
    report.series.finalize(12.5);

    EXPECT_EQ(
        report.toJson(),
        "{\"scheduler\":\"golden\",\"system\":\"tilus\",\"model\":\"m\","
        "\"wdtype\":\"u4\",\"rate_rps\":4,\"seed\":7,"
        "\"total_requests\":2,\"completed\":2,\"rejected\":0,"
        "\"failed\":1,\"retries\":3,\"injected_faults\":4,"
        "\"met_slo\":2,"
        "\"prompt_tokens\":100,\"output_tokens\":10,\"prefill_steps\":2,"
        "\"decode_steps\":8,\"preemptions\":1,\"makespan_ms\":12.5,"
        "\"throughput_tok_s\":800,\"request_per_s\":160,"
        "\"goodput_req_s\":160,\"availability\":0.8,"
        "\"ttft_ms\":{\"mean\":1.5,\"p50\":1.5,\"p95\":2,\"p99\":2.25},"
        "\"tpot_ms\":{\"mean\":1.5,\"p50\":1.5,\"p95\":2,\"p99\":2.25},"
        "\"latency_ms\":{\"mean\":1.5,\"p50\":1.5,\"p95\":2,\"p99\":2.25},"
        "\"queue_wait_ms\":{\"mean\":1.5,\"p50\":1.5,\"p95\":2,"
        "\"p99\":2.25},"
        "\"mean_queue_depth\":0.25,\"max_queue_depth\":3,"
        "\"mean_decode_batch\":1.75,\"kv_page_tokens\":16,"
        "\"kv_capacity_tokens\":256,\"mean_kv_used_tokens\":128,"
        "\"peak_kv_used_tokens\":200,\"mean_kv_used_frac\":0.5,"
        "\"batch_histogram\":[0,4,2,2],"
        "\"series\":{\"window_ms\":5,\"windows\":3,"
        "\"throughput_tok_s\":[800,800,0],\"queue_depth\":[1,1,0]}}");
}

TEST(Report, IdentityStringsUseTheSharedJsonEscaper)
{
    // Free-form identity strings go through json::escape, the escaper
    // every exported document shares.
    ServingReport report;
    report.scheduler = "a\"b\\c\nd\x01" "e\r";
    const std::string head =
        "{\"scheduler\":\"" + json::escape(report.scheduler) + "\",";
    EXPECT_EQ(report.toJson().compare(0, head.size(), head), 0)
        << report.toJson();
    EXPECT_EQ(json::escape(report.scheduler),
              "a\\\"b\\\\c\\nd\\u0001e\\r");
}

TEST(Report, UnsignedSeedRendersInFull)
{
    ServingReport report;
    report.seed = UINT64_MAX;
    EXPECT_NE(report.toJson().find(",\"seed\":18446744073709551615,"),
              std::string::npos)
        << report.toJson();
}

/** Assert sketch estimate @p got is within @p tol relative error of
    exact @p want (absolute when want is 0 — all-zero distributions
    must report exactly 0). */
void
expectWithin(double got, double want, double tol, const char *what)
{
    if (want == 0.0)
        EXPECT_NEAR(got, 0.0, 1e-12) << what;
    else
        EXPECT_LE(std::fabs(got - want) / std::fabs(want), tol) << what;
}

/** Exact per-metric sample vectors from retained request states. */
struct ExactSamples
{
    std::vector<double> ttft, tpot, latency, queue_wait;

    void
    append(const std::vector<RequestState> &states)
    {
        for (const RequestState &state : states) {
            if (state.phase != Phase::kFinished)
                continue;
            const serving::Request &request = state.request;
            ttft.push_back(state.first_token_ms - request.arrival_ms);
            latency.push_back(state.finish_ms - request.arrival_ms);
            queue_wait.push_back(state.admitted_ms - request.arrival_ms);
            if (request.output_tokens > 1)
                tpot.push_back(
                    (state.finish_ms - state.first_token_ms) /
                    static_cast<double>(request.output_tokens - 1));
        }
    }
};

TEST(Report, SketchTailsTrackExactRequestVectors)
{
    // The incrementally accumulated sketches must agree with the exact
    // reference (support/percentile.h over the retained per-request
    // states) within the configured relative accuracy, plus a hair of
    // interpolation slop at 1000 samples.
    FakeCost costs(8192, 8);
    FcfsScheduler scheduler;
    Simulator sim(costs, scheduler, exactOptions(costs));
    TraceOptions topt;
    topt.num_requests = 1000;
    topt.rate_rps = 6;
    topt.prompt_min = 16;
    topt.prompt_max = 256;
    const ServingReport report = sim.run(serving::poissonTrace(topt));
    ASSERT_GT(report.completed, 900);

    ExactSamples exact;
    exact.append(report.requests);
    const double tol = 0.012; // alpha = 0.01 + interpolation slop
    const std::pair<const LatencySummary *, const std::vector<double> *>
        metrics[] = {{&report.ttft, &exact.ttft},
                     {&report.tpot, &exact.tpot},
                     {&report.latency, &exact.latency},
                     {&report.queue_wait, &exact.queue_wait}};
    for (const auto &[summary, samples] : metrics) {
        EXPECT_EQ(summary->count,
                  static_cast<int64_t>(samples->size()));
        EXPECT_DOUBLE_EQ(summary->mean, meanOf(*samples)); // exact sum
        expectWithin(summary->p50, percentile(*samples, 50), tol, "p50");
        expectWithin(summary->p95, percentile(*samples, 95), tol, "p95");
        expectWithin(summary->p99, percentile(*samples, 99), tol, "p99");
    }
}

TEST(Report, SketchOnlyModeDropsRequestStatesNotAggregates)
{
    // keep_request_states = false is the O(1)-memory path for 10^5+
    // request traces: the report must carry no per-request vector yet
    // serialize identically to a retained run of the same trace.
    FakeCost costs(4096, 4);
    TraceOptions topt;
    topt.num_requests = 200;
    const Trace trace = serving::poissonTrace(topt);

    FcfsScheduler sched_a;
    Simulator keep(costs, sched_a, exactOptions(costs));
    const ServingReport with_states = keep.run(trace);

    SimOptions lean_options = exactOptions(costs);
    lean_options.keep_request_states = false;
    FcfsScheduler sched_b;
    Simulator lean(costs, sched_b, lean_options);
    const ServingReport without = lean.run(trace);

    EXPECT_FALSE(with_states.requests.empty());
    EXPECT_TRUE(without.requests.empty());
    EXPECT_EQ(with_states.toJson(), without.toJson());
}

TEST(Report, MergeReproducesPooledShardPercentiles)
{
    // Two disjoint request shards served by independent replicas:
    // merging the two reports must reproduce the percentiles of the
    // pooled samples within the sketch bound, and pool the counters.
    FakeCost costs(8192, 8);
    TraceOptions topt;
    topt.num_requests = 500;
    topt.rate_rps = 5;
    topt.seed = 11;
    FcfsScheduler sched_a;
    Simulator sim_a(costs, sched_a, exactOptions(costs));
    ServingReport merged = sim_a.run(serving::poissonTrace(topt));
    topt.seed = 12;
    FcfsScheduler sched_b;
    Simulator sim_b(costs, sched_b, exactOptions(costs));
    const ServingReport other = sim_b.run(serving::poissonTrace(topt));

    ExactSamples pooled;
    pooled.append(merged.requests);
    pooled.append(other.requests);
    const int64_t completed = merged.completed + other.completed;
    const int64_t tokens = merged.output_tokens + other.output_tokens;
    const double makespan =
        std::max(merged.makespan_ms, other.makespan_ms);

    merged.merge(other);
    EXPECT_EQ(merged.completed, completed);
    EXPECT_EQ(merged.output_tokens, tokens);
    EXPECT_DOUBLE_EQ(merged.makespan_ms, makespan);
    EXPECT_DOUBLE_EQ(merged.throughput_tok_s,
                     static_cast<double>(tokens) / makespan * 1000.0);
    EXPECT_EQ(merged.requests.size(), pooled.ttft.size());

    const double tol = 0.012;
    expectWithin(merged.ttft.p50, percentile(pooled.ttft, 50), tol,
                 "ttft p50");
    expectWithin(merged.ttft.p99, percentile(pooled.ttft, 99), tol,
                 "ttft p99");
    expectWithin(merged.latency.p95, percentile(pooled.latency, 95),
                 tol, "latency p95");
    expectWithin(merged.tpot.p50, percentile(pooled.tpot, 50), tol,
                 "tpot p50");
    EXPECT_DOUBLE_EQ(merged.latency.mean, meanOf(pooled.latency));
}

TEST(Report, SeriesWindowsAccountForRunTotals)
{
    // The per-window series must re-aggregate to the report totals:
    // window token sums equal output_tokens, window integrals equal
    // the time-weighted means times the makespan.
    FakeCost costs(8192, 8);
    FcfsScheduler scheduler;
    SimOptions options = exactOptions(costs);
    options.series_window_ms = 50.0;
    Simulator sim(costs, scheduler, options);
    TraceOptions topt;
    topt.num_requests = 300;
    ServingReport report = sim.run(serving::poissonTrace(topt));

    ASSERT_TRUE(report.series.enabled());
    ASSERT_EQ(report.series.windows(),
              static_cast<int64_t>(
                  std::ceil(report.makespan_ms / 50.0)));
    using Kind = obs::TimeSeries::Kind;
    const int ch_tok =
        report.series.channel("throughput_tok_s", Kind::kRatePerSec);
    const int ch_queue =
        report.series.channel("queue_depth", Kind::kMean);
    const int ch_kv =
        report.series.channel("kv_used_tokens", Kind::kMean);
    const int ch_preempt =
        report.series.channel("preemptions", Kind::kCount);
    double tok_sum = 0, queue_integral = 0, kv_integral = 0,
           preempt_sum = 0;
    for (int64_t w = 0; w < report.series.windows(); ++w) {
        tok_sum += report.series.raw(ch_tok, w);
        queue_integral += report.series.raw(ch_queue, w);
        kv_integral += report.series.raw(ch_kv, w);
        preempt_sum += report.series.raw(ch_preempt, w);
    }
    EXPECT_DOUBLE_EQ(tok_sum,
                     static_cast<double>(report.output_tokens));
    EXPECT_DOUBLE_EQ(preempt_sum,
                     static_cast<double>(report.preemptions));
    const double queue_want =
        report.mean_queue_depth * report.makespan_ms;
    EXPECT_NEAR(queue_integral, queue_want,
                1e-9 * std::max(1.0, std::fabs(queue_want)));
    const double kv_want =
        report.mean_kv_used_tokens * report.makespan_ms;
    EXPECT_NEAR(kv_integral, kv_want,
                1e-9 * std::max(1.0, std::fabs(kv_want)));
}

// ------------------------------------------------------- fault injection
//
// The step-fault process of src/serving/simulator.cc: a failing engine
// step burns its cost, evicts its victim, and either re-queues it with
// backoff-delayed eligibility or terminates it as Phase::kFailed past
// the retry budget. Timings below are hand-computed from FakeCost.

/** Disarms the fault registry when a test scope exits, so an armed
    trigger can never leak into later tests of this process. */
struct FaultGuard
{
    ~FaultGuard() { fault::disarm(); }
};

TEST(Faults, StepFaultRetryTimingIsExact)
{
    FaultGuard guard;
    FakeCost costs(1024, 4);
    FcfsScheduler fcfs;
    SimOptions options = exactOptions(costs);
    options.step_faults.base_ms = 100;
    options.step_faults.mult = 2.0;

    Trace trace;
    trace.requests.push_back({0, 0.0, 100, 2, 0.0});

    // The 1st engine step faults; the lone request retries once.
    // t=0: prefill(100) = 1 ms faulted -> eligible at 1 + 100 backoff.
    // t=101: prefill(100) = 1 ms, first token at 102.
    // t=102: decode(batch 1) = 1.1 ms -> finished at 103.1.
    fault::configure("serving.step=n1");
    Simulator sim(costs, fcfs, options);
    ServingReport report = sim.run(trace);

    EXPECT_EQ(report.injected_faults, 1);
    EXPECT_EQ(report.retries, 1);
    EXPECT_EQ(report.failed, 0);
    EXPECT_EQ(report.completed, 1);
    EXPECT_DOUBLE_EQ(report.availability, 1.0);
    ASSERT_EQ(report.requests.size(), 1u);
    const RequestState &state = report.requests[0];
    EXPECT_EQ(state.phase, Phase::kFinished);
    EXPECT_EQ(state.fault_retries, 1);
    // The pre-first-token retry stall lands in TTFT (contract in
    // src/serving/README.md).
    EXPECT_DOUBLE_EQ(state.first_token_ms, 102.0);
    EXPECT_DOUBLE_EQ(state.finish_ms, 103.1);
    EXPECT_EQ(fault::injectionCount("serving.step"), 1);
}

TEST(Faults, RetryBudgetExhaustionFailsTheRequest)
{
    FaultGuard guard;
    FakeCost costs(1024, 4);
    FcfsScheduler fcfs;
    SimOptions options = exactOptions(costs);
    options.step_faults.max_attempts = 3;
    options.step_faults.base_ms = 100;
    options.step_faults.mult = 2.0;

    Trace trace;
    trace.requests.push_back({0, 0.0, 100, 2, 0.0});

    // Every step faults: attempts at t=0, t=101 (1+100), t=302
    // (102+200); the 3rd fault ends attempt 3 of 3 -> kFailed at 303.
    fault::configure("serving.step=always");
    Simulator sim(costs, fcfs, options);
    ServingReport report = sim.run(trace);

    EXPECT_EQ(report.injected_faults, 3);
    EXPECT_EQ(report.retries, 2);
    EXPECT_EQ(report.failed, 1);
    EXPECT_EQ(report.completed, 0);
    EXPECT_DOUBLE_EQ(report.availability, 0.0);
    ASSERT_EQ(report.requests.size(), 1u);
    EXPECT_EQ(report.requests[0].phase, Phase::kFailed);
    EXPECT_DOUBLE_EQ(report.requests[0].finish_ms, 303.0);
}

TEST(Faults, ClosedLoopClientFreedOnFailure)
{
    FaultGuard guard;
    FakeCost costs(1024, 4);
    FcfsScheduler fcfs;
    SimOptions options = exactOptions(costs);
    options.step_faults.max_attempts = 1; // first fault is terminal

    TraceOptions topts;
    topts.num_requests = 12;
    topts.seed = 5;
    Trace trace = serving::closedLoopTrace(topts, 3);

    // Every step faults and the budget is zero: each client's request
    // fails on its first step and the client must pull the next one —
    // the loop only terminates if failures free their clients.
    fault::configure("serving.step=always");
    Simulator sim(costs, fcfs, options);
    ServingReport report = sim.run(trace);

    EXPECT_EQ(report.completed, 0);
    EXPECT_EQ(report.failed + report.rejected, 12);
    EXPECT_EQ(report.retries, 0);
    EXPECT_DOUBLE_EQ(report.availability, 0.0);
}

TEST(Faults, PagedRunUnderFaultsBalancesAndIsDeterministic)
{
    FaultGuard guard;
    FakeCost costs(2048, 8);
    TraceOptions topts;
    topts.num_requests = 120;
    topts.seed = 17;
    topts.rate_rps = 40;
    Trace trace = serving::poissonTrace(topts);

    auto run = [&]() {
        PagedFcfsScheduler paged;
        Simulator sim(costs, paged, pagedExactOptions(costs, 16));
        return sim.run(trace);
    };

    // configure() resets every trigger stream, so two identical runs
    // inject at identical probes and the reports match byte for byte.
    fault::configure("serving.step=p0.05@42");
    ServingReport a = run();
    fault::configure("serving.step=p0.05@42");
    ServingReport b = run();
    EXPECT_GT(a.injected_faults, 0);
    EXPECT_EQ(a.toJson(), b.toJson());

    // Internal consistency: every request reached a terminal phase (the
    // KV-balance invariants are asserted inside run()).
    int64_t terminal = a.completed + a.failed + a.rejected;
    EXPECT_EQ(terminal, a.total_requests);
    EXPECT_EQ(fault::injectionCount("serving.step"), b.injected_faults);

    // Disarmed runs are byte-identical to each other (the zero-overhead
    // off path changes nothing).
    fault::disarm();
    ServingReport c = run();
    ServingReport d = run();
    EXPECT_EQ(c.toJson(), d.toJson());
    EXPECT_EQ(c.injected_faults, 0);
    EXPECT_EQ(c.failed, 0);
    EXPECT_EQ(c.retries, 0);
    EXPECT_DOUBLE_EQ(c.availability, 1.0);
}

TEST(Faults, MalformedSpecIsRejectedWithoutArming)
{
    FaultGuard guard;
    fault::disarm();
    EXPECT_THROW(fault::configure("serving.step"), FatalError);
    EXPECT_THROW(fault::configure("serving.step=n0"), FatalError);
    EXPECT_THROW(fault::configure("serving.step=p1.5"), FatalError);
    EXPECT_THROW(fault::configure("serving.step=p0.1@x"), FatalError);
    EXPECT_THROW(fault::configure("=always"), FatalError);
    EXPECT_FALSE(fault::enabled());
}

// ----------------------------------------------------------- pinned runs
//
// Fixed seeded runs through every policy and both KV modes, each reduced
// to one digest of its report JSON plus every request's phase,
// first-token time and finish time (bit patterns, not rounded). A change
// to admission, preemption, release or step planning that moves a
// single timestamp fails here.

std::string
runDigest(const ServingReport &report)
{
    cache::Hasher h;
    h.str(report.toJson());
    for (const RequestState &state : report.requests) {
        h.str(serving::phaseName(state.phase));
        h.f64(state.first_token_ms);
        h.f64(state.finish_ms);
    }
    return h.digest().hex();
}

TEST(Pinned, SeededRunsKeepTheirReports)
{
    FaultGuard guard;
    fault::disarm();

    // Reservation-mode FCFS under KV back-pressure, with one request
    // whose demand exceeds the whole capacity (rejected at submission).
    {
        FakeCost costs(2048, 8);
        TraceOptions options;
        options.num_requests = 60;
        options.rate_rps = 80.0;
        options.prompt_min = 32;
        options.prompt_max = 256;
        options.output_min = 16;
        options.output_max = 128;
        options.seed = 101;
        Trace trace = serving::poissonTrace(options);
        trace.requests.push_back({60, 50.0, 2000, 100, 0});
        FcfsScheduler fcfs;
        SimOptions sim_options;
        sim_options.limits = serving::limitsFrom(costs);
        Simulator sim(costs, fcfs, sim_options);
        ServingReport report = sim.run(trace);
        ASSERT_EQ(report.scheduler, "fcfs-alternate");
        ASSERT_EQ(report.rejected, 1);
        ASSERT_GT(report.max_queue_depth, 0);
        EXPECT_EQ(runDigest(report), "037d5fab1596b2f626f02745c26541c2")
            << "fcfs-alternate";
    }

    // Paged FCFS on a pool small enough to force preemptions.
    {
        FakeCost costs(1024, 8);
        TraceOptions options;
        options.num_requests = 60;
        options.rate_rps = 400.0;
        options.prompt_min = 32;
        options.prompt_max = 200;
        options.output_min = 16;
        options.output_max = 96;
        options.seed = 102;
        Trace trace = serving::burstyTrace(options, 12);
        PagedFcfsScheduler paged;
        Simulator sim(costs, paged, pagedExactOptions(costs, 16));
        ServingReport report = sim.run(trace);
        ASSERT_GT(report.preemptions, 0);
        EXPECT_EQ(runDigest(report), "f4bb357ecabb6f0338f9165dc759cdad")
            << "fcfs-paged";
    }

    // The SLO policy on mixed deadlines: tight, loose and best-effort.
    {
        FakeCost costs(1024, 8);
        TraceOptions options;
        options.num_requests = 60;
        options.rate_rps = 300.0;
        options.prompt_min = 48;
        options.prompt_max = 160;
        options.output_min = 16;
        options.output_max = 64;
        options.seed = 103;
        Trace trace = serving::burstyTrace(options, 10);
        const double slos[] = {60.0, 0.0, 250.0};
        for (size_t i = 0; i < trace.requests.size(); ++i)
            trace.requests[i].slo_ms = slos[i % 3];
        SloScheduler slo;
        Simulator sim(costs, slo, pagedExactOptions(costs, 16));
        ServingReport report = sim.run(trace);
        ASSERT_GT(report.preemptions, 0);
        ASSERT_LT(report.met_slo, report.completed);
        EXPECT_EQ(runDigest(report), "adfb21d1253eca2525b5d81db7f4f7b3")
            << "slo-paged";
    }

    // Paged FCFS on a closed loop while engine steps fault.
    {
        FakeCost costs(2048, 8);
        TraceOptions options;
        options.num_requests = 80;
        options.prompt_min = 32;
        options.prompt_max = 256;
        options.output_min = 8;
        options.output_max = 64;
        options.seed = 104;
        Trace trace = serving::closedLoopTrace(options, 6);
        fault::configure("serving.step=p0.05@7");
        PagedFcfsScheduler paged;
        Simulator sim(costs, paged, pagedExactOptions(costs, 16));
        ServingReport report = sim.run(trace);
        fault::disarm();
        ASSERT_GT(report.retries, 0);
        EXPECT_EQ(runDigest(report), "bb5edcbd0b8a23cbffdd14eba1400a91")
            << "fcfs-paged, step faults";
    }
}

} // namespace
} // namespace tilus
