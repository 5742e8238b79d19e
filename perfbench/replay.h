/**
 * @file
 * The traced half of the benchmark: an in-memory span log and a replayer
 * that re-runs the cold compile path through the layers' public entry
 * points (kernel build, fingerprint, O0 lowering, each optimizer pass,
 * serialize/store, micro-op decode, ghost trace, latency model), timing
 * every step. The replay must reproduce the untraced run exactly; run.py
 * compares winners, serialized kernels and serving reports byte for byte.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "autotune/tuner.h"
#include "cache/kernel_cache.h"
#include "cache/tune_db.h"
#include "llm/engine.h"
#include "runtime/runtime.h"

namespace perfbench {

/** CLOCK_MONOTONIC in nanoseconds (the clock run.py stamps spawns with). */
int64_t nowNs();

/**
 * Spans recorded by the benchmark's own code: name, start, end, parent,
 * thread, run id and one numeric value. Kept in memory, written once.
 * Disabled (the untraced run) every call is a single branch.
 */
class SpanLog
{
  public:
    static SpanLog &instance();

    void enable(int run_id);
    bool enabled() const { return enabled_; }

    /** Open a span; the parent is the innermost open span of this
        thread, or the pool parent on a worker thread. Returns its id. */
    int open(const std::string &name);
    void close(int id, double value);
    /** A zero-length record carrying one value. */
    void point(const std::string &name, double value);
    /** Parent of spans opened on threads with no open span (the compile
        pool's workers); -1 clears it. */
    void setPoolParent(int id) { pool_parent_ = id; }

    /** One JSON object per line. */
    void write(const std::string &path) const;

  private:
    struct Record
    {
        std::string name;
        int64_t start_ns = 0;
        int64_t end_ns = 0;
        int parent = -1;
        int thread = 0;
        double value = 0;
    };

    bool enabled_ = false;
    int run_id_ = 0;
    int pool_parent_ = -1;
    mutable std::mutex mutex_;
    std::vector<Record> records_;
};

/** RAII span; value() sets the number stored with it. */
class Span
{
  public:
    explicit Span(const std::string &name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void value(double v) { value_ = v; }
    int id() const { return id_; }

  private:
    int id_ = -1;
    double value_ = 0;
};

/** Every tune sweep a ServingEngine::warmUp over these buckets issues, in
    issue order (the mapping of baselines::evaluateMatmul for Tilus
    quantized linears plus the f16 LM head). */
std::vector<tilus::autotune::SweepRequest>
engineSweeps(const tilus::llm::ModelConfig &model,
             const tilus::llm::EngineOptions &options,
             const std::vector<int64_t> &decode_batches,
             const std::vector<int64_t> &prefill_chunks);

/** Number of LIR nodes in a kernel body, nested bodies included. */
int64_t countLirOps(const tilus::lir::Kernel &kernel);

/**
 * One digest over every kernel artifact (*.lirk) under @p dir. The
 * serializer stores process-global tensor ids, so ids are renumbered in
 * declaration order first: two processes that compile the same kernels,
 * in any order on any number of threads, then agree byte for byte.
 */
std::string kernelArtifactsDigest(const std::string &dir);

/**
 * Runtime::getOrCompile, autotune::estimateConfig and
 * autotune::sweepCached, replayed step by step with a span per layer.
 * Thread-safe where the originals are (get() runs on the compile pool).
 */
class Replayer
{
  public:
    Replayer(const tilus::sim::GpuSpec &spec, const std::string &cache_dir);

    const tilus::lir::Kernel &
    get(const tilus::ir::Program &program,
        const tilus::compiler::CompileOptions &options);

    tilus::sim::LatencyBreakdown
    estimate(const tilus::kernels::MatmulConfig &config, int64_t m,
             const tilus::compiler::CompileOptions &options,
             const tilus::sim::PerfTraits &traits);

    tilus::autotune::TuneResult
    sweep(const tilus::autotune::SweepRequest &req);

    /** Functional launch over all blocks on @p rt's device. */
    tilus::sim::SimStats
    launch(tilus::runtime::Runtime &rt, const tilus::lir::Kernel &kernel,
           const std::vector<tilus::runtime::KernelArg> &args);

  private:
    struct Entry
    {
        std::unique_ptr<tilus::lir::Kernel> kernel;
        std::unique_ptr<tilus::sim::MicroProgram> program;
    };

    const tilus::sim::MicroProgram *decoded(const tilus::lir::Kernel &k);

    tilus::sim::GpuSpec spec_;
    tilus::cache::KernelCache disk_;
    tilus::cache::TuneDb tune_db_;
    std::mutex mutex_;
    std::map<tilus::cache::Fingerprint, Entry> cache_;
    std::map<const tilus::lir::Kernel *, Entry *> entries_;
};

} // namespace perfbench
