#include "autotune/tuner.h"

#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "cache/compile_pool.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sim/interpreter.h"
#include "support/error.h"
#include "support/math_util.h"

namespace tilus {
namespace autotune {

namespace {

/** full = s1 + (s2 - s1) * extra (all counters are loop-linear). */
sim::SimStats
extrapolate(const sim::SimStats &s1, const sim::SimStats &s2, double extra)
{
    sim::SimStats out = s1;
    auto lin = [&](int64_t a, int64_t b) {
        return a + static_cast<int64_t>(
                       std::llround(static_cast<double>(b - a) * extra));
    };
#define TILUS_EXTRAPOLATE(f) out.f = lin(s1.f, s2.f);
    TILUS_SIM_COUNTERS(TILUS_EXTRAPOLATE)
#undef TILUS_EXTRAPOLATE
    for (const auto &[id, b2] : s2.load_bytes_by_global) {
        int64_t b1 = 0;
        auto it = s1.load_bytes_by_global.find(id);
        if (it != s1.load_bytes_by_global.end())
            b1 = it->second;
        out.load_bytes_by_global[id] = lin(b1, b2);
    }
    for (const auto &[id, b2] : s2.store_bytes_by_global) {
        int64_t b1 = 0;
        auto it = s1.store_bytes_by_global.find(id);
        if (it != s1.store_bytes_by_global.end())
            b1 = it->second;
        out.store_bytes_by_global[id] = lin(b1, b2);
    }
    out.max_groups_in_flight =
        std::max(s1.max_groups_in_flight, s2.max_groups_in_flight);
    out.overlapped = s1.overlapped || s2.overlapped;
    return out;
}

/** Bind every kernel parameter: the token count by name, pointers to 0. */
ir::Env
ghostEnv(const lir::Kernel &kernel, int64_t m)
{
    ir::Env env;
    for (const ir::Var &p : kernel.params)
        env.bind(p, p.name() == "m" ? m : 0);
    return env;
}

} // namespace

sim::LatencyBreakdown
estimateConfig(runtime::Runtime &rt, const kernels::MatmulConfig &config,
               int64_t m, const compiler::CompileOptions &opts,
               const sim::PerfTraits &traits)
{
    TILUS_FATAL_IF(!config.valid(),
                   "estimateConfig: invalid config " << config.name());
    // Probe instances with 1 and 2 outer pipeline iterations.
    auto probe = [&](int outers) {
        kernels::MatmulConfig p = config;
        p.k = config.bk * config.stages * outers;
        if (p.group_size > 0)
            p.group_size = p.bk;
        kernels::MatmulBundle bundle = kernels::buildMatmul(p);
        const lir::Kernel &kernel =
            rt.getOrCompile(bundle.main_program, opts);
        return sim::traceOneBlock(kernel, ghostEnv(kernel, m));
    };
    sim::SimStats s1 = probe(1);
    sim::SimStats s2 = probe(2);

    kernels::MatmulBundle full = kernels::buildMatmul(config);
    const lir::Kernel &kernel = rt.getOrCompile(full.main_program, opts);
    const double full_outers =
        static_cast<double>(config.k / config.bk) / config.stages;
    sim::SimStats stats = extrapolate(s1, s2, full_outers - 1.0);
    ir::Env env = ghostEnv(kernel, m);
    return sim::estimateLatency(kernel, stats, env, rt.spec(), traits);
}

std::vector<kernels::MatmulConfig>
enumerateConfigs(DataType wdtype, int64_t n, int64_t k, int64_t m,
                 const TuneSpace &space)
{
    std::vector<kernels::MatmulConfig> out;
    auto consider = [&](kernels::MatmulConfig cfg) {
        if (cfg.valid())
            out.push_back(cfg);
    };
    if (m >= 9) {
        for (int64_t bm : space.bm_tc) {
            if (bm > roundUp(std::max<int64_t>(m, 16), 16))
                continue;
            // Prefill-scale problems only benefit from the largest block
            // tiles; pruning the rest keeps tuning cost near-constant
            // across the batch spectrum.
            if (m >= 1024 && bm < 64)
                continue;
            for (int64_t bn : space.bn)
                for (int64_t bk : space.bk)
                    for (int wm : space.warps_m)
                        for (int wn : space.warps_n)
                            for (int st : space.stages) {
                                kernels::MatmulConfig cfg;
                                cfg.wdtype = wdtype;
                                cfg.n = n;
                                cfg.k = k;
                                cfg.bm = bm;
                                cfg.bn = bn;
                                cfg.bk = bk;
                                cfg.warp_m = wm;
                                cfg.warp_n = wn;
                                cfg.stages = st;
                                cfg.use_tensor_cores = true;
                                consider(cfg);
                            }
        }
    }
    if (m < 16) {
        for (int64_t bn : space.bn) {
            for (int64_t bk : space.bk)
                for (int sw : space.simt_warps)
                    for (int st : space.stages) {
                        kernels::MatmulConfig cfg;
                        cfg.wdtype = wdtype;
                        cfg.n = n;
                        cfg.k = k;
                        cfg.bm = std::min<int64_t>(m, 8);
                        cfg.bn = bn * 2; // SIMT favors wider column tiles
                        cfg.bk = bk;
                        cfg.simt_warps = sw;
                        cfg.stages = st;
                        cfg.use_tensor_cores = false;
                        consider(cfg);
                    }
        }
    }
    return out;
}

cache::Fingerprint
tuneKey(const SweepRequest &req, const sim::GpuSpec &spec)
{
    cache::Hasher h;
    h.u32(cache::kTuneDbVersion);
    // Recorded latencies price compiled kernels: a compiler behavior
    // change invalidates every stored winner.
    h.u32(compiler::kCompilerRevision);
    // Problem.
    cache::hashDataType(h, req.wdtype);
    h.i64(req.n);
    h.i64(req.k);
    h.i64(req.m);
    h.i64(req.group_size);
    h.u8(req.convert_via_smem);
    // Compilation options (opt_level included: O0/O2 twins never alias).
    cache::hashOptions(h, req.opts);
    // Structural generator traits.
    h.f64(req.traits.occupancy_factor);
    h.f64(req.traits.per_iter_serial_us);
    // The full tuning space.
    cache::hashIntVector(h, req.space.bm_tc);
    cache::hashIntVector(h, req.space.bn);
    cache::hashIntVector(h, req.space.bk);
    cache::hashInt32Vector(h, req.space.warps_m);
    cache::hashInt32Vector(h, req.space.warps_n);
    cache::hashInt32Vector(h, req.space.simt_warps);
    cache::hashInt32Vector(h, req.space.stages);
    // The GPU the latency model priced.
    h.str(spec.name);
    h.i64(spec.sm_arch);
    h.i64(spec.num_sms);
    h.i64(spec.dram_bytes);
    h.f64(spec.dram_gbps);
    h.f64(spec.l2_gbps);
    h.f64(spec.fp16_tc_tflops);
    h.f64(spec.fp32_tflops);
    h.f64(spec.alu_topsps);
    h.f64(spec.smem_gbps);
    h.i64(spec.smem_per_sm);
    h.i64(spec.max_smem_per_block);
    h.i64(spec.max_threads_per_sm);
    h.i64(spec.max_blocks_per_sm);
    h.f64(spec.clock_ghz);
    h.f64(spec.launch_overhead_us);
    h.f64(spec.dram_latency_us);
    h.u8(spec.supports_cp_async);
    return h.digest();
}

TuneResult
sweepCached(runtime::Runtime &rt, const SweepRequest &req,
            cache::TuneDb *db)
{
    if (!db)
        db = &cache::TuneDb::instance();
    const cache::Fingerprint key = tuneKey(req, rt.spec());
    obs::Span sweep_span("autotune", "sweep");
    sweep_span.arg("key", key.hex())
        .arg("wdtype", req.wdtype.name())
        .arg("n", req.n)
        .arg("k", req.k)
        .arg("m", req.m);
    if (std::optional<cache::TuneRecord> record = db->load(key)) {
        obs::Registry::instance().counter("tune_sweeps_warm_total").add();
        sweep_span.arg("db", "warm");
        TuneResult hit;
        hit.config = record->config;
        hit.latency = record->latency;
        hit.candidates_tried = record->candidates_tried;
        hit.candidates = std::move(record->candidates);
        return hit;
    }
    obs::Registry::instance().counter("tune_sweeps_cold_total").add();
    sweep_span.arg("db", "cold");

    std::vector<kernels::MatmulConfig> candidates;
    for (kernels::MatmulConfig cfg :
         enumerateConfigs(req.wdtype, req.n, req.k, req.m, req.space)) {
        cfg.group_size = req.group_size;
        cfg.convert_via_smem = req.convert_via_smem;
        if (cfg.valid())
            candidates.push_back(cfg);
    }

    TuneResult best;
    best.latency.total_us = std::numeric_limits<double>::infinity();
    best.candidates_tried = static_cast<int>(candidates.size());
    if (candidates.empty())
        return best;

    // One compile-pool task per candidate compiles its two probe depths
    // and its full-depth instance, ghost-traces the probes on the tree
    // walk, and prices the extrapolation. Estimates land by candidate
    // index, so the winner and the tune record below are chosen serially
    // in candidate order, exactly as a one-thread sweep chooses them.
    obs::Registry::instance()
        .counter("tune_candidates_total")
        .add(static_cast<int64_t>(candidates.size()));
    std::vector<sim::LatencyBreakdown> estimates(candidates.size());
    cache::parallelFor(
        static_cast<int64_t>(candidates.size()), [&](int64_t i) {
            const kernels::MatmulConfig &cfg = candidates[i];
            obs::Span candidate_span("autotune", "candidate");
            if (candidate_span.live())
                candidate_span.arg("config", cfg.name()).arg("m", req.m);
            const sim::LatencyBreakdown est =
                estimateConfig(rt, cfg, req.m, req.opts, req.traits);
            estimates[i] = est;
            candidate_span.arg("estimated_us", est.total_us);
            // The profiler view of this candidate: bound classification
            // plus every modeled component, as candidate-span args and
            // as a category-"profile" instant (tools/check_trace.py
            // validates the instant's schema).
            if (candidate_span.live()) {
                const char *bound = obs::boundName(obs::classifyBound(est));
                candidate_span.arg("bound", bound)
                    .arg("serial_us", est.serial_us)
                    .arg("dram_us", est.dram_us);
                json::Object profile_args;
                profile_args.add("config", cfg.name());
                profile_args.add("bound", bound);
                profile_args.add("total_us", est.total_us);
                profile_args.add("dram_us", est.dram_us);
                profile_args.add("l2_us", est.l2_us);
                profile_args.add("tc_us", est.tc_us);
                profile_args.add("simt_us", est.simt_us);
                profile_args.add("alu_us", est.alu_us);
                profile_args.add("smem_us", est.smem_us);
                profile_args.add("serial_us", est.serial_us);
                obs::Tracer::instance().instant("profile", "candidate",
                                                profile_args);
            }
        });

    best.candidates.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
        best.candidates.push_back(
            cache::TuneCandidate{candidates[i], estimates[i]});
        if (estimates[i].total_us < best.latency.total_us) {
            best.latency = estimates[i];
            best.config = candidates[i];
        }
    }
    if (sweep_span.live())
        sweep_span.arg("best_config", best.config.name())
            .arg("best_us", best.latency.total_us)
            .arg("candidates",
                 static_cast<int64_t>(best.candidates_tried));

    cache::TuneRecord record;
    record.config = best.config;
    record.latency = best.latency;
    record.candidates_tried = best.candidates_tried;
    record.candidates = best.candidates;
    db->store(key, record);
    return best;
}

TuneResult
tune(runtime::Runtime &rt, DataType wdtype, int64_t n, int64_t k,
     int64_t m, const compiler::CompileOptions &opts,
     const sim::PerfTraits &traits, const TuneSpace &space)
{
    SweepRequest req;
    req.wdtype = wdtype;
    req.n = n;
    req.k = k;
    req.m = m;
    req.opts = opts;
    req.traits = traits;
    req.space = space;
    TuneResult best = sweepCached(rt, req);
    TILUS_FATAL_IF(best.candidates_tried == 0,
                   "no valid configuration for " << wdtype.name() << " n="
                                                 << n << " k=" << k
                                                 << " m=" << m);
    return best;
}

} // namespace autotune
} // namespace tilus
