#include "runtime/runtime.h"

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/fault.h"
#include "support/logging.h"

namespace tilus {
namespace runtime {

namespace {

/**
 * Compile with bounded retry and graceful degradation: up to two
 * attempts at the requested opt level (fault site "compile.kernel" is
 * probed per attempt), then — when the requested level is above O0 —
 * one O0 attempt, sacrificing optimization to keep serving rather than
 * failing the kernel outright. Only when that also fails does a
 * structured CompileError surface, carrying the program name, the
 * attempt count, and the first underlying error. Sets @p degraded so
 * the caller can keep O0 fallbacks out of the fingerprint-keyed disk
 * cache (a later healthy process must not be served the degraded
 * build). PanicErrors (internal bugs) are never retried or degraded.
 */
std::unique_ptr<lir::Kernel>
compileWithRetry(const ir::Program &program,
                 const compiler::CompileOptions &options, bool *degraded)
{
    constexpr int kAttempts = 2;
    auto &reg = obs::Registry::instance();
    std::string first_error;
    int attempts = 0;
    for (int attempt = 1; attempt <= kAttempts; ++attempt) {
        try {
            ++attempts;
            fault::maybeThrow("compile.kernel");
            return std::make_unique<lir::Kernel>(
                compiler::compile(program, options));
        } catch (const PanicError &) {
            throw;
        } catch (const TilusError &e) {
            if (first_error.empty())
                first_error = e.what();
            reg.counter("compile_attempt_failures_total").add(1);
            if (attempt < kAttempts)
                reg.counter("compile_retries_total").add(1);
        }
    }
    if (options.opt_level != compiler::OptLevel::O0) {
        compiler::CompileOptions o0 = options;
        o0.opt_level = compiler::OptLevel::O0;
        try {
            ++attempts;
            fault::maybeThrow("compile.kernel");
            auto kernel = std::make_unique<lir::Kernel>(
                compiler::compile(program, o0));
            reg.counter("compile_o0_degrades_total").add(1);
            warn("compile: kernel '" + program.name +
                 "' degraded to O0 after " + std::to_string(kAttempts) +
                 " failed attempts: " + first_error);
            *degraded = true;
            return kernel;
        } catch (const PanicError &) {
            throw;
        } catch (const TilusError &) {
            reg.counter("compile_attempt_failures_total").add(1);
        }
    }
    throw CompileError("kernel '" + program.name + "': compile failed after " +
                       std::to_string(attempts) + " attempts" +
                       (attempts > kAttempts ? " (including O0 degrade)" : "") +
                       ": " + first_error);
}

} // namespace

DeviceTensor
Runtime::alloc(DataType dtype, std::vector<int64_t> shape)
{
    DeviceTensor tensor;
    tensor.dtype = dtype;
    tensor.shape = std::move(shape);
    tensor.ptr = device_.allocate(tensor.bytes());
    return tensor;
}

void
Runtime::upload(const DeviceTensor &tensor, const PackedBuffer &host)
{
    TILUS_CHECK_MSG(host.dtype() == tensor.dtype &&
                        host.numel() == tensor.numel(),
                    "upload: host/device tensor mismatch");
    device_.write(tensor.ptr, host.data(), host.byteSize());
}

PackedBuffer
Runtime::download(const DeviceTensor &tensor)
{
    PackedBuffer host(tensor.dtype, tensor.numel());
    device_.read(tensor.ptr, host.data(), host.byteSize());
    return host;
}

const lir::Kernel &
Runtime::getOrCompile(const ir::Program &program,
                      const compiler::CompileOptions &options)
{
    return *lookup(program, options, /*keep=*/true);
}

std::shared_ptr<const lir::Kernel>
Runtime::loadOrCompile(const ir::Program &program,
                       const compiler::CompileOptions &options)
{
    return lookup(program, options, /*keep=*/false);
}

std::shared_ptr<const lir::Kernel>
Runtime::lookup(const ir::Program &program,
                const compiler::CompileOptions &options, bool keep)
{
    const cache::Fingerprint fp =
        cache::fingerprintProgram(program, options);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = cache_.find(fp);
        if (it != cache_.end()) {
            obs::Registry::instance()
                .counter("runtime_memory_hit_total")
                .add();
            return it->second;
        }
    }

    obs::Span span("runtime", keep ? "get-or-compile" : "load-or-compile");
    if (span.live())
        span.arg("program", program.name).arg("fingerprint", fp.hex());

    // Materialize outside the lock: compilation (and disk I/O) is the
    // expensive part, and the compile pool runs many of these
    // concurrently.
    std::unique_ptr<lir::Kernel> kernel;
    bool from_disk = false;
    bool degraded = false;
    if (disk_cache_) {
        kernel = disk_cache_->load(fp);
        from_disk = kernel != nullptr;
    }
    if (!kernel)
        kernel = compileWithRetry(program, options, &degraded);
    span.arg("outcome", from_disk  ? "disk-hit"
                        : degraded ? "compiled-degraded"
                                   : "compiled");

    std::shared_ptr<const lir::Kernel> result = std::move(kernel);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (keep) {
            auto [pos, inserted] = cache_.emplace(fp, result);
            if (!inserted)
                return pos->second; // another thread won the race
        }
        ++(from_disk ? disk_load_count_ : compile_count_);
    }
    // A degraded (O0-fallback) kernel is fingerprinted under the
    // *requested* options; persisting it would serve the degraded build
    // to every later healthy process, so it is never stored. I/O runs
    // off the lock.
    if (!from_disk && !degraded && disk_cache_)
        disk_cache_->store(fp, *result);
    return result;
}

ir::Env
Runtime::toEnv(const lir::Kernel &kernel,
               const std::vector<KernelArg> &args)
{
    // Cached kernels keep the parameter variables of the build that first
    // compiled them; bind by parameter name so any equivalent bundle's
    // handles work (CUDA binds by position for the same reason).
    ir::Env env;
    for (const KernelArg &arg : args) {
        bool bound = false;
        for (const ir::Var &param : kernel.params) {
            if (param.name() == arg.var.name()) {
                env.bind(param, arg.value);
                bound = true;
                break;
            }
        }
        if (!bound)
            env.bind(arg.var, arg.value);
    }
    return env;
}

void
Runtime::checkArch(const lir::Kernel &kernel) const
{
    if (!spec_.supportsArch(kernel.sm_arch)) {
        throw SimError("an illegal instruction was encountered: kernel '" +
                       kernel.name + "' requires sm_" +
                       std::to_string(kernel.sm_arch) + " but " +
                       spec_.name + " is sm_" +
                       std::to_string(spec_.sm_arch));
    }
}

sim::SimStats
Runtime::launch(const lir::Kernel &kernel, const std::vector<KernelArg> &args)
{
    checkArch(kernel);
    TILUS_FATAL_IF(kernel.smem_bytes > spec_.max_smem_per_block,
                   "kernel '" << kernel.name << "' needs "
                              << kernel.smem_bytes
                              << " B shared memory; device limit is "
                              << spec_.max_smem_per_block);
    sim::RunOptions options;
    obs::ProfileSink &sink = obs::ProfileSink::instance();
    if (!sink.enabled())
        return sim::run(kernel, toEnv(kernel, args), &device_, options);

    // TILUS_PROFILE armed: attribute this launch's counters to LIR
    // instructions, fold in the analytical model (a one-block ghost
    // trace supplies the timing input), and hand the profile to the
    // sink for the process-exit document.
    ir::Env env = toEnv(kernel, args);
    obs::ProfileCollector collector(kernel);
    options.profile = &collector;
    sim::SimStats stats = sim::run(kernel, env, &device_, options);
    sim::SimStats block_stats = sim::traceOneBlock(kernel, env);
    sink.record(collector.finish(block_stats, env, spec_, {},
                                 stats.used_microops ? "microop"
                                                     : "treewalk"));
    return stats;
}

} // namespace runtime
} // namespace tilus
