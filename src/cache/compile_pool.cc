#include "cache/compile_pool.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tilus {
namespace cache {

int
compileThreads()
{
    if (const char *env = std::getenv("TILUS_COMPILE_THREADS")) {
        int n = std::atoi(env);
        if (n >= 1)
            return n;
    }
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    return static_cast<int>(hw < 8 ? hw : 8);
}

void
parallelFor(int64_t n, const std::function<void(int64_t)> &fn,
            int threads)
{
    if (threads <= 0)
        threads = compileThreads();
    if (n <= 0)
        return;
    obs::Registry::instance().counter("compile_pool_tasks_total").add(n);
    obs::Span span("cache", "compile-pool");
    span.arg("tasks", n).arg("threads", static_cast<int64_t>(threads));
    if (threads == 1 || n == 1) {
        for (int64_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    if (static_cast<int64_t>(threads) > n)
        threads = static_cast<int>(n);

    std::atomic<int64_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    int64_t first_error_index = -1;
    std::mutex error_mutex;

    // Deterministic first-error: indices are claimed strictly in order,
    // so every index below any claimed one was claimed too, and every
    // claimed task runs to completion and records its failure below.
    // Keeping the *lowest-index* failure therefore always propagates
    // the same exception for the same inputs, regardless of which
    // thread loses the race — fault-injection tests assert on the
    // message.
    auto worker = [&]() {
        while (!failed.load(std::memory_order_relaxed)) {
            int64_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (first_error_index < 0 || i < first_error_index) {
                    first_error_index = i;
                    first_error = std::current_exception();
                }
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace cache
} // namespace tilus
