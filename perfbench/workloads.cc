/**
 * @file
 * One process of the end-to-end benchmark; perfbench/run.py drives it.
 *
 *   tilus_perfbench <workload> --mode setup|run|once|replay --seed N
 *       --out FILE [--seconds T] [--spawn-ns NS] [--spans FILE]
 *
 * The kernel and tune caches live in TILUS_CACHE_DIR, which run.py makes
 * private to the process. `setup` prepares the workload's inputs (and,
 * for warm-serve, fills the cache) and exits; `run` then repeats the
 * timed operation until T seconds have passed; `once` performs one
 * operation and `replay` one operation through perfbench::Replayer with
 * spans recorded, both digesting the kernel artifacts they leave. Every
 * mode writes one JSON object to FILE: setup time, per-op wall time,
 * modeled results, digests the replay must reproduce, and any errors.
 */
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "autotune/tuner.h"
#include "cache/compile_pool.h"
#include "dtype/cast.h"
#include "kernels/matmul.h"
#include "llm/engine.h"
#include "obs/build_info.h"
#include "replay.h"
#include "serving/simulator.h"
#include "sim/gpu_spec.h"
#include "support/error.h"
#include "support/rng.h"

using namespace tilus;
using perfbench::Span;
using perfbench::SpanLog;

namespace {

struct Args
{
    std::string workload;
    std::string mode = "run";
    uint64_t seed = 1;
    double seconds = 10;
    int64_t spawn_ns = 0;
    std::string out;
    std::string spans;
};

/** Everything the seed decides. */
struct Inputs
{
    uint64_t seed = 0;
    /** Prefill chunk of every served engine: the same candidates, tile
        counts and compile work as 256 for any value in [253, 256]. */
    int64_t prefill_chunk = 256;
    int64_t estimate_m = 16;  ///< tensor-core batch of the Fig. 11 estimate
};

uint64_t
splitmix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

Inputs
inputsFrom(uint64_t seed)
{
    Inputs in;
    in.seed = seed;
    in.prefill_chunk = 253 + int64_t(splitmix(seed ^ 1) % 4);
    in.estimate_m = 9 + int64_t(splitmix(seed ^ 3) % 8);
    return in;
}

std::string
hexDigest(const std::string &bytes)
{
    cache::Hasher h;
    h.str(bytes);
    return h.digest().hex();
}

std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

/** A flat JSON object built key by key. */
class JsonObject
{
  public:
    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        oss_ << (first_ ? "" : ",") << jsonStr(key) << ":" << json;
        first_ = false;
        return *this;
    }
    JsonObject &num(const std::string &key, double v)
    {
        return raw(key, jsonNum(v));
    }
    JsonObject &str(const std::string &key, const std::string &v)
    {
        return raw(key, jsonStr(v));
    }
    std::string done() const { return "{" + oss_.str() + "}"; }

  private:
    std::ostringstream oss_;
    bool first_ = true;
};

std::string
jsonList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + items[i];
    return out + "]";
}

// ------------------------------------------------------------- serving

/** Headline traffic: heavy requests at a rate near the knee. */
constexpr int64_t kHeadlineRequests = 100000;
/** The fixed ladder of offered rates, under-load to over-load. */
constexpr double kLadderRps[] = {1, 2, 3, 4, 5, 6, 8};
constexpr int64_t kRungRequests = 10000;
/** A rung request meets the limits when both hold (and it finished). */
constexpr double kTtftLimitMs = 2000;
constexpr double kTpotLimitMs = 50;

serving::Trace
traffic(double rate_rps, int64_t requests, uint64_t seed)
{
    serving::TraceOptions options;
    options.num_requests = requests;
    options.rate_rps = rate_rps;
    options.prompt_min = 64;
    options.prompt_max = 768;
    options.output_min = 32;
    options.output_max = 256;
    options.seed = seed;
    return serving::poissonTrace(options);
}

/** The headline trace and one trace per ladder rung. */
struct Traffic
{
    double headline_rps = 0;
    serving::Trace headline;
    std::vector<serving::Trace> rungs;
};

Traffic
makeTraffic(double headline_rps, uint64_t seed)
{
    Traffic t;
    t.headline_rps = headline_rps;
    t.headline = traffic(headline_rps, kHeadlineRequests, splitmix(seed));
    for (double rate : kLadderRps)
        t.rungs.push_back(
            traffic(rate, kRungRequests, splitmix(seed + uint64_t(rate))));
    return t;
}

/**
 * The engine as the serving loop sees it, counting step lookups. With
 * `pad` set, decode batches pad to 1 or max_batch — the two decode
 * buckets a cold-engine tunes — the way an engine pads to its captured
 * graph sizes. (Prefill chunks always bucket to the scheduler's chunk.)
 */
class StepCosts : public llm::StepCostModel
{
  public:
    StepCosts(llm::StepCostModel &engine, bool pad)
        : engine_(engine), pad_(pad)
    {}

    double
    decodeMs(int64_t batch) override
    {
        ++lookups;
        if (pad_)
            batch = batch <= 1 ? 1 : engine_.maxBatch();
        return engine_.decodeMs(batch);
    }
    double
    prefillMs(int64_t tokens, int64_t past_tokens) override
    {
        ++lookups;
        return engine_.prefillMs(tokens, past_tokens);
    }
    int64_t kvCapacityTokens() const override
    {
        return engine_.kvCapacityTokens();
    }
    int64_t maxBatch() const override { return engine_.maxBatch(); }
    int64_t contextTokens() const override
    {
        return engine_.contextTokens();
    }

    int64_t lookups = 0;

  private:
    llm::StepCostModel &engine_;
    bool pad_;
};

/** Mean time per output token after the first (0 for one token). */
double
tpotMs(const serving::RequestState &s)
{
    const int64_t out = s.request.output_tokens;
    return out > 1 ? (s.finish_ms - s.first_token_ms) / double(out - 1) : 0;
}

struct Served
{
    std::string json;   ///< serving block of the output
    std::string digest; ///< of the headline ServingReport JSON
    int64_t sent = 0;
    int64_t bad = 0; ///< rejected + failed + broken conservation
};

/**
 * Serve the headline trace and the ladder through @p costs with the
 * paged FCFS scheduler. `warm_up` runs Simulator::warmUp first (the
 * warm start of warm-serve).
 */
/** Paged KV limits of @p costs; prefill chunks of the seed's size,
    priced at that one bucket. */
serving::SimOptions
simOptions(const llm::StepCostModel &costs, const Inputs &in)
{
    serving::SimOptions options;
    options.limits = serving::pagedLimitsFrom(costs);
    options.limits.prefill_chunk_tokens = in.prefill_chunk;
    options.prefill_cost_bucket = in.prefill_chunk;
    return options;
}

Served
serve(StepCosts &costs, const Inputs &in, const Traffic &t, bool warm_up)
{
    serving::SimOptions options = simOptions(costs, in);
    serving::PagedFcfsScheduler scheduler;
    serving::Simulator sim(costs, scheduler, options);
    if (warm_up) {
        Span span("llm.warmup");
        sim.warmUp();
    }

    Served out;
    auto account = [&](const serving::ServingReport &r) {
        out.sent += r.total_requests;
        out.bad += r.rejected + r.failed;
        if (r.completed + r.rejected + r.failed != r.total_requests)
            ++out.bad;
    };
    double host_ns = 0;
    int64_t steps = 0;
    auto run = [&](serving::Simulator &s, const serving::Trace &trace) {
        Span span("serving.run");
        const int64_t t0 = perfbench::nowNs();
        serving::ServingReport r = s.run(trace);
        host_ns += double(perfbench::nowNs() - t0);
        steps += r.prefill_steps + r.decode_steps;
        account(r);
        return r;
    };

    serving::ServingReport head = run(sim, t.headline);
    out.digest = hexDigest(head.toJson());
    // Exact percentiles: the report's sketch quantizes them to buckets.
    std::vector<double> ttft, tpot, queue_wait;
    for (const serving::RequestState &s : head.requests) {
        if (s.phase != serving::Phase::kFinished)
            continue;
        ttft.push_back(s.first_token_ms - s.request.arrival_ms);
        queue_wait.push_back(s.admitted_ms - s.request.arrival_ms);
        if (s.request.output_tokens > 1)
            tpot.push_back(tpotMs(s));
    }

    std::vector<std::string> rungs;
    for (size_t i = 0; i < t.rungs.size(); ++i) {
        serving::ServingReport r = run(sim, t.rungs[i]);
        int64_t met = 0;
        for (const serving::RequestState &s : r.requests)
            met += s.phase == serving::Phase::kFinished &&
                   s.first_token_ms - s.request.arrival_ms <=
                       kTtftLimitMs &&
                   tpotMs(s) <= kTpotLimitMs;
        rungs.push_back(JsonObject()
                            .num("rate_rps", kLadderRps[i])
                            .num("sent", double(r.total_requests))
                            .num("met", double(met))
                            .done());
    }

    const serving::LatencySummary ttft_s = serving::summarize(ttft);
    const serving::LatencySummary tpot_s = serving::summarize(tpot);
    const serving::LatencySummary wait_s = serving::summarize(queue_wait);
    JsonObject h;
    h.num("rate_rps", t.headline_rps)
        .num("sent", double(head.total_requests))
        .num("completed", double(head.completed))
        .num("rejected", double(head.rejected))
        .num("failed", double(head.failed))
        .num("goodput_req_s", head.goodput_req_s)
        .num("throughput_tok_s", head.throughput_tok_s)
        .num("ttft_ms_p50", ttft_s.p50)
        .num("ttft_ms_p99", ttft_s.p99)
        .num("ttft_count", double(ttft_s.count))
        .num("tpot_ms_p50", tpot_s.p50)
        .num("tpot_ms_p99", tpot_s.p99)
        .num("tpot_count", double(tpot_s.count))
        .num("queue_wait_ms_p50", wait_s.p50)
        .num("queue_wait_ms_p99", wait_s.p99)
        .num("queue_wait_count", double(wait_s.count))
        .num("preemptions", double(head.preemptions))
        .num("mean_decode_batch", head.mean_decode_batch)
        .num("mean_kv_used_frac", head.mean_kv_used_frac);
    out.json = JsonObject()
                   .raw("headline", h.done())
                   .raw("rungs", jsonList(rungs))
                   .num("ttft_limit_ms", kTtftLimitMs)
                   .num("tpot_limit_ms", kTpotLimitMs)
                   .num("host_s", host_ns / 1e9)
                   .num("steps", double(steps))
                   .num("step_lookups", double(costs.lookups))
                   .done();
    return out;
}

// ----------------------------------------------------------- workloads

/** Results of one process, written as JSON at exit. */
struct Result
{
    double setup_s = 0;
    std::vector<std::string> ops;     ///< {"wall_s","attempted","failed"}
    std::vector<double> kernel_us;    ///< modeled kernel times
    std::vector<std::string> digests; ///< what the replay must reproduce
    std::string serving = "null";
    std::vector<std::string> errors;
    int64_t failed = 0; ///< failures found after the timed ops
};

/**
 * A workload: setup() prepares inputs (not timed as an op), op() is the
 * timed operation and returns {attempted, failed}, finish() runs the
 * untimed checks and modeled measurements once after the last op.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setup() = 0;
    virtual std::pair<int64_t, int64_t> op(int index, bool replay) = 0;
    virtual void finish(Result &result, bool replay) = 0;
    /** May op() run again in this process? */
    virtual bool repeatable() const { return true; }
};

std::string
cacheDir()
{
    const char *dir = std::getenv("TILUS_CACHE_DIR");
    TILUS_FATAL_IF(!dir || !*dir, "TILUS_CACHE_DIR must be set");
    return dir;
}

std::string
winnerDigest(const autotune::TuneResult &r)
{
    return jsonStr(r.config.name() + "@" + jsonNum(r.latency.total_us));
}

/** Re-read every sweep from the tune DB through a fresh Runtime; counts
    any sweep that is not a warm hit or has no valid winner. */
std::vector<autotune::TuneResult>
rereadWinners(const std::vector<autotune::SweepRequest> &sweeps,
              Result &result)
{
    runtime::Runtime rt(sim::l40s());
    cache::TuneDb &db = cache::TuneDb::instance();
    std::vector<autotune::TuneResult> winners;
    for (const autotune::SweepRequest &req : sweeps) {
        const int64_t hits = db.stats().disk_hits;
        winners.push_back(autotune::sweepCached(rt, req));
        const autotune::TuneResult &w = winners.back();
        const std::string what = req.wdtype.name() + " n=" +
                                 std::to_string(req.n) + " k=" +
                                 std::to_string(req.k) + " m=" +
                                 std::to_string(req.m);
        if (db.stats().disk_hits != hits + 1) {
            ++result.failed;
            result.errors.push_back("tune DB re-read missed " + what);
        }
        if (w.candidates_tried == 0 || !std::isfinite(w.latency.total_us)) {
            ++result.failed;
            result.errors.push_back("empty sweep " + what);
        }
    }
    if (rt.compileCount() != 0) {
        ++result.failed;
        result.errors.push_back("tune DB re-read compiled kernels");
    }
    for (const autotune::TuneResult &w : winners) {
        result.kernel_us.push_back(w.latency.total_us);
        result.digests.push_back(winnerDigest(w));
    }
    return winners;
}

/**
 * cold-engine: a Tilus u4 Gemma-2-9B engine on an empty cache, timed
 * over warmUp of one SIMT decode bucket (1), one tensor-core decode
 * bucket (16) and one prefill chunk, with the paper's full tune space.
 */
class ColdEngine : public Workload
{
  public:
    explicit ColdEngine(const Inputs &in) : in_(in) {}

    void
    setup() override
    {
        rt_ = std::make_unique<runtime::Runtime>(sim::l40s());
        engine_ = std::make_unique<llm::ServingEngine>(*rt_, llm::gemma2_9b(),
                                                       options_);
        sweeps_ = perfbench::engineSweeps(llm::gemma2_9b(), options_,
                                          decode_, prefill());
        traffic_ = makeTraffic(kColdHeadlineRps, in_.seed);
    }

    std::pair<int64_t, int64_t>
    op(int, bool replay) override
    {
        int64_t failed = 0;
        if (replay) {
            // A member, so that freeing its ~2700 kernels happens after
            // the op, as the untraced engine's do.
            replayer_ = std::make_unique<perfbench::Replayer>(sim::l40s(),
                                                              cacheDir());
            Span op_span("replay.op");
            for (const autotune::SweepRequest &req : sweeps_) {
                autotune::TuneResult r = replayer_->sweep(req);
                if (r.candidates_tried == 0)
                    ++failed;
                replayed_.push_back(winnerDigest(r));
            }
        } else {
            engine_->warmUp(decode_, prefill());
        }
        return {int64_t(sweeps_.size()), failed};
    }

    void
    finish(Result &result, bool replay) override
    {
        rereadWinners(sweeps_, result);
        if (replay && replayed_ != result.digests) {
            ++result.failed;
            result.errors.push_back("replayed winners differ from the "
                                    "tune DB re-read");
        }
        runtime::Runtime rt(sim::l40s());
        llm::ServingEngine warm(rt, llm::gemma2_9b(), options_);
        {
            Span span("llm.warmup");
            warm.warmUp(decode_, prefill());
        }
        if (!replay) {
            // The cold sweep's step costs and the re-read ones must be
            // bit-identical.
            bool same = true;
            for (int64_t b : decode_)
                same &= warm.decodeMs(b) == engine_->decodeMs(b);
            same &= warm.prefillMs(in_.prefill_chunk) ==
                    engine_->prefillMs(in_.prefill_chunk);
            if (!same) {
                ++result.failed;
                result.errors.push_back("cold and re-read step costs "
                                        "differ");
            }
        }
        StepCosts costs(warm, /*pad=*/true);
        Served served = serve(costs, in_, traffic_, false);
        result.serving = served.json;
        result.digests.push_back(jsonStr(served.digest));
        result.failed += served.bad;
    }

    bool repeatable() const override { return false; }

  private:
    static constexpr double kColdHeadlineRps = 2.0;

    std::vector<int64_t> prefill() const { return {in_.prefill_chunk}; }

    Inputs in_;
    llm::EngineOptions options_; // Tilus, u4, g128, O2, full space
    std::vector<int64_t> decode_ = {1, 16};
    std::unique_ptr<runtime::Runtime> rt_;
    std::unique_ptr<llm::ServingEngine> engine_;
    std::vector<autotune::SweepRequest> sweeps_;
    std::unique_ptr<perfbench::Replayer> replayer_;
    std::vector<std::string> replayed_;
    Traffic traffic_;
};

/** The compact space of examples/serving_trace.cpp. */
autotune::TuneSpace
compactSpace()
{
    autotune::TuneSpace space;
    space.bm_tc = {16, 64};
    space.bn = {128};
    space.bk = {64};
    space.warps_m = {1};
    space.warps_n = {4};
    space.simt_warps = {4};
    space.stages = {2, 3};
    return space;
}

/**
 * warm-serve: set-up fills the cache with the compact space; the timed
 * op is a fresh Runtime + engine + Simulator::warmUp (all tune-DB hits)
 * and the paged FCFS scheduler serving the headline trace and ladder.
 */
class WarmServe : public Workload
{
  public:
    /** @p fill: set-up fills the cache (the setup mode). */
    WarmServe(const Inputs &in, bool fill)
        : in_(in), fill_(fill), space_(compactSpace())
    {
        options_.tune_space = &space_;
    }

    void
    setup() override
    {
        if (fill_) {
            runtime::Runtime rt(sim::l40s());
            llm::ServingEngine engine(rt, llm::gemma2_9b(), options_);
            StepCosts costs(engine, false);
            serving::PagedFcfsScheduler scheduler;
            serving::Simulator(costs, scheduler, simOptions(costs, in_))
                .warmUp();
        }
        traffic_ = makeTraffic(kWarmHeadlineRps, in_.seed);
    }

    std::pair<int64_t, int64_t>
    op(int index, bool replay) override
    {
        Span op_span("replay.op");
        runtime::Runtime rt(sim::l40s());
        if (replay) {
            perfbench::Replayer replayer(sim::l40s(), cacheDir());
            for (const autotune::SweepRequest &req : sweeps())
                replayer.sweep(req);
        }
        llm::ServingEngine engine(rt, llm::gemma2_9b(), options_);
        StepCosts costs(engine, false);
        Served served = serve(costs, in_, traffic_, true);
        int64_t failed = served.bad;
        if (rt.compileCount() != 0 || rt.diskLoadCount() != 0)
            ++failed; // the warm path reads only the tune DB
        if (index == 0) {
            first_ = served;
        } else if (served.digest != first_.digest) {
            ++failed; // every repetition serves identically
        }
        return {served.sent, failed};
    }

    void
    finish(Result &result, bool) override
    {
        rereadWinners(sweeps(), result);
        result.serving = first_.json;
        result.digests.push_back(jsonStr(first_.digest));
    }

  private:
    static constexpr double kWarmHeadlineRps = 2.0;

    std::vector<autotune::SweepRequest>
    sweeps() const
    {
        return perfbench::engineSweeps(llm::gemma2_9b(), options_,
                                       {1, 2, 4, 8, 16},
                                       {in_.prefill_chunk});
    }

    Inputs in_;
    bool fill_;
    autotune::TuneSpace space_;
    llm::EngineOptions options_;
    Traffic traffic_;
    Served first_;
};

/**
 * spectrum: for every type of fullWeightSpectrum(), build, compile and
 * functionally launch the weight transform and the matmul at a decode
 * shape, checked against a double-precision host reference; plus the
 * modeled latency at the Fig. 11 scale.
 */
class Spectrum : public Workload
{
  public:
    explicit Spectrum(const Inputs &in) : in_(in) {}

    void
    setup() override
    {
        Rng rng(in_.seed);
        const int64_t m = kM;
        for (const DataType &dtype : fullWeightSpectrum()) {
            Case c;
            c.config.wdtype = dtype;
            c.config.n = kN;
            c.config.k = kK;
            c.config.bm = 16;
            c.config.bn = 64;
            c.config.bk = 32;
            c.config.warp_n = 2;
            c.config.stages = 2;
            c.a = PackedBuffer(float16(), m * kK);
            std::vector<double> av(m * kK), bv(kK * kN);
            for (int64_t i = 0; i < m * kK; ++i) {
                c.a.setRaw(i, encodeValue(float16(), rng.nextDouble(-1, 1)));
                av[i] = decodeValue(float16(), c.a.getRaw(i));
            }
            c.b = PackedBuffer(dtype, kK * kN);
            const uint64_t mask = (uint64_t(1) << dtype.bits()) - 1;
            for (int64_t i = 0; i < kK * kN; ++i) {
                c.b.setRaw(i, rng.next() & mask);
                bv[i] = decodeValue(dtype, c.b.getRaw(i));
            }
            c.ref.assign(m * kN, 0.0);
            for (int64_t i = 0; i < m; ++i)
                for (int64_t kk = 0; kk < kK; ++kk) {
                    const double a = av[i * kK + kk];
                    for (int64_t j = 0; j < kN; ++j)
                        c.ref[i * kN + j] += a * bv[kk * kN + j];
                }
            cases_.push_back(std::move(c));
        }
    }

    std::pair<int64_t, int64_t>
    op(int index, bool replay) override
    {
        Span op_span("replay.op");
        const std::string dir =
            cacheDir() + "/op-" + std::to_string(index + 1);
        runtime::Runtime rt(sim::l40s());
        cache::KernelCache disk(dir);
        rt.setDiskCache(&disk);
        std::unique_ptr<perfbench::Replayer> replayer;
        if (replay)
            replayer = std::make_unique<perfbench::Replayer>(sim::l40s(),
                                                             dir);
        auto get = [&](const ir::Program &p) -> const lir::Kernel & {
            return replayer ? replayer->get(p, {}) : rt.getOrCompile(p, {});
        };
        auto launch = [&](const lir::Kernel &k,
                          const std::vector<runtime::KernelArg> &a) {
            return replayer ? replayer->launch(rt, k, a) : rt.launch(k, a);
        };

        int64_t failed = 0;
        std::vector<std::string> outputs;
        const int64_t m = kM;
        for (Case &c : cases_) {
            const kernels::MatmulConfig &cfg = c.config;
            try {
                kernels::MatmulBundle bundle;
                {
                    Span span("kernels.build");
                    bundle = kernels::buildMatmul(cfg);
                }
                auto da = rt.alloc(float16(), {m, cfg.k});
                auto db_raw = rt.alloc(cfg.wdtype, {cfg.k, cfg.n});
                auto db = rt.alloc(uint8(), {cfg.k / cfg.bk, cfg.n / cfg.bn,
                                             cfg.tileBytes()});
                auto dc = rt.alloc(float16(), {m, cfg.n});
                rt.upload(da, c.a);
                rt.upload(db_raw, c.b);
                launch(get(*bundle.transform_program),
                       {{bundle.t_in_ptr, int64_t(db_raw.ptr)},
                        {bundle.t_out_ptr, int64_t(db.ptr)}});
                launch(get(bundle.main_program),
                       {{bundle.m, m},
                        {bundle.a_ptr, int64_t(da.ptr)},
                        {bundle.b_ptr, int64_t(db.ptr)},
                        {bundle.c_ptr, int64_t(dc.ptr)}});
                PackedBuffer out = rt.download(dc);
                double worst = 0;
                std::string bytes;
                for (int64_t i = 0; i < m * cfg.n; ++i) {
                    const uint64_t raw = out.getRaw(i);
                    bytes.append(reinterpret_cast<const char *>(&raw), 2);
                    const double got = decodeValue(float16(), raw);
                    worst = std::max(worst,
                                     std::abs(got - c.ref[i]) /
                                         std::max(1.0, std::abs(c.ref[i])));
                }
                outputs.push_back(jsonStr(hexDigest(bytes)));
                if (!(worst < 2e-2)) {
                    ++failed;
                    errors_.push_back(cfg.wdtype.name() + " mismatch " +
                                      jsonNum(worst));
                }
            } catch (const TilusError &e) {
                ++failed;
                errors_.push_back(cfg.wdtype.name() + ": " + e.what());
            }
        }

        std::vector<double> kernel_us;
        for (Case &c : cases_) {
            kernels::MatmulConfig big = c.config;
            big.n = 57344; // Fig. 11: BS=16 class, K=8192, N=57344
            big.k = 8192;
            big.bn = 128;
            big.group_size = 128;
            kernel_us.push_back(
                (replayer ? replayer->estimate(big, in_.estimate_m, {}, {})
                          : autotune::estimateConfig(rt, big,
                                                     in_.estimate_m))
                    .total_us);
        }
        if (index == 0) {
            outputs_ = outputs;
            kernel_us_ = kernel_us;
        } else {
            failed += outputs != outputs_ || kernel_us != kernel_us_;
            std::filesystem::remove_all(dir);
        }
        return {int64_t(cases_.size()), failed};
    }

    void
    finish(Result &result, bool) override
    {
        result.kernel_us = kernel_us_;
        result.digests = outputs_;
        for (double us : kernel_us_)
            result.digests.push_back(jsonStr(jsonNum(us)));
        result.errors.insert(result.errors.end(), errors_.begin(),
                             errors_.end());

        // Serving with one non-power-of-two type: int6 weights through
        // an engine tuned over one candidate per template family.
        autotune::TuneSpace space = compactSpace();
        space.bm_tc = {16};
        space.stages = {2};
        llm::EngineOptions options;
        options.wdtype = int6();
        options.tune_space = &space;
        runtime::Runtime rt(sim::l40s());
        llm::ServingEngine engine(rt, llm::gemma2_9b(), options);
        {
            Span span("llm.warmup");
            engine.warmUp({1, 16}, {in_.prefill_chunk});
        }
        StepCosts costs(engine, /*pad=*/true);
        Served served = serve(costs, in_, makeTraffic(kSpectrumHeadlineRps,
                                                      in_.seed),
                              false);
        result.serving = served.json;
        result.digests.push_back(jsonStr(served.digest));
        result.failed += served.bad;
    }

  private:
    static constexpr int64_t kM = 16; ///< decode rows: one tensor-core tile
    static constexpr int64_t kN = 512;
    static constexpr int64_t kK = 512;
    static constexpr double kSpectrumHeadlineRps = 1.5;

    struct Case
    {
        kernels::MatmulConfig config;
        PackedBuffer a;
        PackedBuffer b;
        std::vector<double> ref;
    };

    Inputs in_;
    std::vector<Case> cases_;
    std::vector<std::string> outputs_;
    std::vector<double> kernel_us_;
    std::vector<std::string> errors_;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    TILUS_FATAL_IF(argc < 2, "usage: tilus_perfbench <workload> [options]");
    args.workload = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--mode")
            args.mode = value;
        else if (key == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::atof(value);
        else if (key == "--spawn-ns")
            args.spawn_ns = std::atoll(value);
        else if (key == "--out")
            args.out = value;
        else if (key == "--spans")
            args.spans = value;
        else
            TILUS_FATAL_IF(true, "unknown option " << key);
    }
    TILUS_FATAL_IF(args.out.empty(), "--out is required");
    return args;
}

std::unique_ptr<Workload>
makeWorkload(const Args &args, const Inputs &in)
{
    if (args.workload == "cold-engine")
        return std::make_unique<ColdEngine>(in);
    if (args.workload == "warm-serve")
        return std::make_unique<WarmServe>(in, args.mode == "setup");
    if (args.workload == "spectrum")
        return std::make_unique<Spectrum>(in);
    TILUS_FATAL_IF(true, "unknown workload " << args.workload);
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "tilus_perfbench: refusing to measure a "
                         "non-optimized build\n");
    return 3;
#endif
    const Args args = parseArgs(argc, argv);
    const bool replay = args.mode == "replay";
    if (replay)
        SpanLog::instance().enable(int(args.seed));
    const Inputs in = inputsFrom(args.seed);
    std::unique_ptr<Workload> workload = makeWorkload(args, in);

    Result result;
    workload->setup();
    const int64_t ready = perfbench::nowNs();
    result.setup_s = double(ready - (args.spawn_ns ? args.spawn_ns : ready)) /
                     1e9;

    if (args.mode != "setup") {
        const int64_t deadline = ready + int64_t(args.seconds * 1e9);
        for (int i = 0;; ++i) {
            const int64_t t0 = perfbench::nowNs();
            auto [attempted, failed] = workload->op(i, replay);
            const double wall = double(perfbench::nowNs() - t0) / 1e9;
            result.ops.push_back(JsonObject()
                                     .num("wall_s", wall)
                                     .num("attempted", double(attempted))
                                     .num("failed", double(failed))
                                     .done());
            const bool more = args.mode == "run" &&
                              workload->repeatable() &&
                              perfbench::nowNs() < deadline;
            if (!more)
                break;
        }
        workload->finish(result, replay);
    }
    if (args.mode == "once" || replay)
        result.digests.push_back(
            jsonStr(perfbench::kernelArtifactsDigest(cacheDir())));

    rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    std::vector<std::string> kernel_us, errors;
    for (double us : result.kernel_us)
        kernel_us.push_back(jsonNum(us));
    for (const std::string &e : result.errors)
        errors.push_back(jsonStr(e));
    std::ofstream out(args.out);
    out << JsonObject()
               .str("workload", args.workload)
               .str("mode", args.mode)
               .num("seed", double(args.seed))
               .raw("build", obs::buildInfoJson())
               .num("compile_threads", cache::compileThreads())
               .num("setup_s", result.setup_s)
               .raw("ops", jsonList(result.ops))
               .num("failed", double(result.failed))
               .num("rss_mb", double(usage.ru_maxrss) / 1024.0)
               .raw("kernel_us", jsonList(kernel_us))
               .raw("digests", jsonList(result.digests))
               .raw("serving", result.serving)
               .raw("errors", jsonList(errors))
               .done()
        << "\n";
    if (replay && !args.spans.empty())
        SpanLog::instance().write(args.spans);
    return 0;
}
