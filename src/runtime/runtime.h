/**
 * @file
 * The Tilus runtime system (Section 8, step 4): it owns the simulated
 * device, loads compiled kernels, caches them to avoid recompilation,
 * provides the workspace used by AllocateGlobal, and launches kernels
 * over a CUDA-stream-like interface. Latency estimates do not need a
 * runtime: sim::traceOneBlock traces one block and sim::estimateLatency
 * prices it with the analytical model (the autotuner extrapolates two
 * short probes first).
 */
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/fingerprint.h"
#include "cache/kernel_cache.h"
#include "compiler/compiler.h"
#include "dtype/packing.h"
#include "ir/program.h"
#include "sim/device.h"
#include "sim/gpu_spec.h"
#include "sim/interpreter.h"
#include "sim/microop.h" // perfbench/replay.h needs MicroProgram from here
#include "sim/timing.h"

namespace tilus {
namespace runtime {

/** A device tensor handle: pointer + dtype + row-major shape. */
struct DeviceTensor
{
    uint64_t ptr = 0;
    DataType dtype = tilus::float16();
    std::vector<int64_t> shape;

    int64_t
    numel() const
    {
        int64_t n = 1;
        for (int64_t s : shape)
            n *= s;
        return n;
    }

    int64_t bytes() const { return packedByteSize(dtype, numel()); }
};

/** Name/value argument for kernel launches. */
struct KernelArg
{
    ir::Var var;
    int64_t value;
};

/** The runtime: device + kernel cache + execution context. */
class Runtime
{
  public:
    explicit Runtime(sim::GpuSpec spec)
        : spec_(std::move(spec)), device_(spec_.dram_bytes)
    {}

    const sim::GpuSpec &spec() const { return spec_; }
    sim::Device &device() { return device_; }

    /** Allocate a device tensor (256-byte aligned, OOM-checked). */
    DeviceTensor alloc(DataType dtype, std::vector<int64_t> shape);

    /** Copy a packed host buffer into a device tensor. */
    void upload(const DeviceTensor &tensor, const PackedBuffer &host);

    /** Copy a device tensor back into a packed host buffer. */
    PackedBuffer download(const DeviceTensor &tensor);

    /**
     * Compile (or fetch from cache) a program and keep it for launches.
     * The key is the content-addressed fingerprint of (program, options,
     * cache format version) — see cache::fingerprintProgram — so
     * equivalent rebuilds of one template configuration share a kernel
     * no matter which process-global ids their IR carries, and O0/O2
     * twins of the same program never alias. Lookup order: in-memory
     * tier, then the on-disk artifact store (skipped when
     * TILUS_CACHE=off or setDiskCache(nullptr)), then compiler::compile
     * — freshly compiled kernels are persisted to disk. The kernel then
     * stays in the memory tier for the Runtime's life.
     *
     * Thread-safe: racing lookups of one fingerprint each materialize
     * a kernel, and the first to insert wins; the losers' copies are
     * discarded uncounted and unpersisted, so this lookup is
     * deduplicated at insertion.
     */
    const lir::Kernel &getOrCompile(const ir::Program &program,
                                    const compiler::CompileOptions &options);

    /**
     * The same lookup for a kernel the caller prices and drops (the
     * autotuner's probes and full-depth instances): it borrows the
     * kernel the memory tier already holds, or else loads it from the
     * disk tier, or else compiles it with retry and persists it — but
     * never inserts it into the memory tier, so the kernel is freed
     * with its last reference. A later lookup of the same program reads
     * it back from disk, or compiles it again when the disk tier is
     * off. Thread-safe; racing lookups of one fingerprint each
     * materialize, count and persist their own copy.
     */
    std::shared_ptr<const lir::Kernel>
    loadOrCompile(const ir::Program &program,
                  const compiler::CompileOptions &options);

    /** Number of real compilations performed (cache effectiveness);
        getOrCompile's discarded race losers are not counted. */
    int compileCount() const { return compile_count_; }

    /** Number of kernels materialized from the disk tier instead of
        being compiled (counted as compileCount is). */
    int diskLoadCount() const { return disk_load_count_; }

    /** Override the disk tier (tests use temp-dir caches); nullptr
        makes the runtime memory-only. Default: KernelCache::instance(). */
    void setDiskCache(cache::KernelCache *disk) { disk_cache_ = disk; }

    /**
     * Launch a kernel functionally over all blocks. sim::run decodes it
     * for the micro-op engine, once per launch, amortized over the grid.
     */
    sim::SimStats launch(const lir::Kernel &kernel,
                         const std::vector<KernelArg> &args);

  private:
    /** The one lookup behind getOrCompile (@p keep) and loadOrCompile. */
    std::shared_ptr<const lir::Kernel>
    lookup(const ir::Program &program,
           const compiler::CompileOptions &options, bool keep);

    static ir::Env toEnv(const lir::Kernel &kernel,
                         const std::vector<KernelArg> &args);
    void checkArch(const lir::Kernel &kernel) const;

    sim::GpuSpec spec_;
    sim::Device device_;
    /// Guards cache_ and the counts; compilation runs outside it. The
    /// simulated device is NOT thread-safe — only compilation and ghost
    /// tracing may run concurrently, launches stay single-threaded.
    std::mutex mutex_;
    /// The memory tier: getOrCompile's kernels, never evicted.
    std::map<cache::Fingerprint, std::shared_ptr<const lir::Kernel>> cache_;
    cache::KernelCache *disk_cache_ = &cache::KernelCache::instance();
    int compile_count_ = 0;
    int disk_load_count_ = 0;
};

} // namespace runtime
} // namespace tilus
