/**
 * @file
 * The per-candidate executor used by cold autotune sweeps.
 *
 * A cold tuning pass compiles and ghost-traces a few hundred candidate
 * kernels; the candidates are independent, so the tuner runs one task
 * per candidate on a small thread pool and only picks the winner
 * serially. The path is thread-safe by construction: IR nodes are
 * immutable shared trees, the process-global id counters are atomic,
 * ghost tracing walks the tree and touches no device, and
 * runtime::Runtime serializes its cache map behind a mutex.
 *
 * TILUS_COMPILE_THREADS pins the worker count (1 runs inline — the
 * escape hatch when debugging); the default is min(hardware threads, 8).
 */
#pragma once

#include <cstdint>
#include <functional>

namespace tilus {
namespace cache {

/** Worker count of the compile pool: TILUS_COMPILE_THREADS or
    min(hardware_concurrency, 8), never less than 1. */
int compileThreads();

/**
 * Run fn(0..n-1) across worker threads ( @p threads <= 0 means
 * compileThreads() ). Blocks until every index completed. The
 * *lowest-index* exception thrown by any invocation is rethrown here
 * after all workers join — deterministic for deterministic inputs, so
 * callers (and fault-injection tests) can assert on the message;
 * remaining indices may be skipped once an exception is recorded.
 */
void parallelFor(int64_t n, const std::function<void(int64_t)> &fn,
                 int threads = 0);

} // namespace cache
} // namespace tilus
