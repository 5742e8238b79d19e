/**
 * @file
 * The auto-tuner (Section 9.2/9.3): the matmul template takes tile sizes
 * as tunable hyperparameters; around two hundred configurations per
 * operator are enumerated, compiled, and ranked with the simulator's
 * analytical model, mirroring the paper's auto-tuning flow.
 *
 * Cost control: tracing a full kernel block walks the whole k-loop, so
 * the tuner traces two short "probe" instances (1 and 2 outer pipeline
 * iterations) and extrapolates every counter linearly to the full depth —
 * the loop body is iteration-invariant, so the extrapolation is exact.
 */
#pragma once

#include <vector>

#include "cache/tune_db.h"
#include "kernels/matmul.h"
#include "runtime/runtime.h"
#include "sim/timing.h"

namespace tilus {
namespace autotune {

/** One tuning outcome. */
struct TuneResult
{
    kernels::MatmulConfig config;
    sim::LatencyBreakdown latency;
    int candidates_tried = 0;
    /** Every estimated candidate with its full LatencyBreakdown, in
        enumeration order (persisted in the tune database, so warm
        sweeps return it too). Explains *why* the winner won and feeds
        analytic-ranker validation against sweep history. */
    std::vector<cache::TuneCandidate> candidates;
};

/** Tuning-space controls (the defaults yield ~200 candidates). */
struct TuneSpace
{
    std::vector<int64_t> bm_tc = {16, 32, 64};
    std::vector<int64_t> bn = {64, 128, 256};
    std::vector<int64_t> bk = {32, 64, 128};
    std::vector<int> warps_m = {1, 2};
    std::vector<int> warps_n = {2, 4};
    std::vector<int> simt_warps = {2, 4, 8};
    std::vector<int> stages = {2, 3, 4};
};

/**
 * Estimate one configuration's latency on `rt`'s GPU for token count `m`
 * via probe-trace extrapolation (no full-depth execution). The two
 * probes and the full-depth instance come from Runtime::loadOrCompile:
 * each is freed once it is traced or priced, so a sweep holds no
 * kernel, and a program an earlier sweep priced is read back from the
 * disk tier (compiled again when the disk tier is off).
 */
sim::LatencyBreakdown
estimateConfig(runtime::Runtime &rt, const kernels::MatmulConfig &config,
               int64_t m, const compiler::CompileOptions &opts = {},
               const sim::PerfTraits &traits = {});

/** Enumerate valid candidate configurations for a problem. */
std::vector<kernels::MatmulConfig>
enumerateConfigs(DataType wdtype, int64_t n, int64_t k, int64_t m,
                 const TuneSpace &space = {});

/**
 * The full input of one tuning sweep. Everything here (plus the GpuSpec
 * of the runtime the sweep runs on) feeds the persistent tune-database
 * key — two sweeps that could rank candidates differently never share a
 * record, so O0/O2 twins and per-system TuneSpace cuts stay distinct.
 */
struct SweepRequest
{
    DataType wdtype = tilus::uint4();
    int64_t n = 0;
    int64_t k = 0;
    int64_t m = 0;

    /** Applied to every enumerated candidate (0 = no scales). */
    int64_t group_size = 0;

    /** Structural Triton variant (Figure 1(a) smem round trip). */
    bool convert_via_smem = false;

    compiler::CompileOptions opts;
    sim::PerfTraits traits;
    TuneSpace space;
};

/** The persistent tune-database key of @p req on @p spec (covers the
    problem, the full TuneSpace, the GpuSpec, the complete
    CompileOptions, the PerfTraits, and cache::kTuneDbVersion). */
cache::Fingerprint tuneKey(const SweepRequest &req,
                           const sim::GpuSpec &spec);

/**
 * Run one tuning sweep through the persistent autotune database.
 *
 * On a database hit the stored winner is returned immediately —
 * enumeration, compilation, and probe tracing are all skipped. On a
 * miss the sweep enumerates candidates and estimates each one in its own
 * compile-pool task (cache/compile_pool.h): compile, ghost-trace on the
 * tree walk, price. The winner is then picked serially in candidate
 * order and recorded, so the record does not depend on the thread count.
 * When no candidate is valid, the result has candidates_tried == 0 and
 * infinite latency (callers decide whether that is fatal).
 *
 * @p db nullptr selects cache::TuneDb::instance(); tests pass their own
 * temp-dir database.
 */
TuneResult sweepCached(runtime::Runtime &rt, const SweepRequest &req,
                       cache::TuneDb *db = nullptr);

/**
 * Pick the best configuration for matmul(m x k, k x n) with the given
 * weight type. Results are deterministic; priced kernels persist in the
 * disk tier and whole-sweep outcomes in the autotune database, across
 * calls and processes (a thin wrapper over sweepCached).
 */
TuneResult tune(runtime::Runtime &rt, DataType wdtype, int64_t n,
                int64_t k, int64_t m,
                const compiler::CompileOptions &opts = {},
                const sim::PerfTraits &traits = {},
                const TuneSpace &space = {});

} // namespace autotune
} // namespace tilus
