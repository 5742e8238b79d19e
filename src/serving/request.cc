#include "serving/request.h"

#include "support/error.h"
#include "support/rng.h"

namespace tilus {
namespace serving {

namespace {

void
checkOptions(const TraceOptions &options)
{
    TILUS_FATAL_IF(options.num_requests <= 0,
                   "trace needs at least one request");
    TILUS_FATAL_IF(options.prompt_min < 1 ||
                       options.prompt_max < options.prompt_min,
                   "invalid prompt length range ["
                       << options.prompt_min << ", " << options.prompt_max
                       << "]");
    TILUS_FATAL_IF(options.output_min < 1 ||
                       options.output_max < options.output_min,
                   "invalid output length range ["
                       << options.output_min << ", " << options.output_max
                       << "]");
}

/** The length/SLO fields every generator fills the same way. */
Request
drawRequest(const TraceOptions &options, Rng &rng, int64_t id)
{
    Request request;
    request.id = id;
    request.prompt_tokens =
        rng.nextRange(options.prompt_min, options.prompt_max);
    request.output_tokens =
        rng.nextRange(options.output_min, options.output_max);
    request.slo_ms = options.slo_ms;
    return request;
}

} // namespace

Trace
poissonTrace(const TraceOptions &options)
{
    checkOptions(options);
    TILUS_FATAL_IF(options.rate_rps <= 0,
                   "open-loop trace needs a positive rate");
    Rng rng(options.seed);
    const double mean_gap_ms = 1000.0 / options.rate_rps;
    Trace trace;
    trace.requests.reserve(static_cast<size_t>(options.num_requests));
    double now_ms = 0;
    for (int64_t i = 0; i < options.num_requests; ++i) {
        Request request = drawRequest(options, rng, i);
        now_ms += rng.nextExponential(mean_gap_ms);
        request.arrival_ms = now_ms;
        trace.requests.push_back(request);
    }
    return trace;
}

Trace
burstyTrace(const TraceOptions &options, int64_t burst)
{
    checkOptions(options);
    TILUS_FATAL_IF(options.rate_rps <= 0,
                   "open-loop trace needs a positive rate");
    TILUS_FATAL_IF(burst <= 0, "burst size must be positive");
    Rng rng(options.seed);
    // Gaps separate bursts, so scale the mean gap by the burst size to
    // keep the long-run request rate at rate_rps.
    const double mean_gap_ms =
        1000.0 / options.rate_rps * static_cast<double>(burst);
    Trace trace;
    trace.requests.reserve(static_cast<size_t>(options.num_requests));
    double now_ms = 0;
    for (int64_t i = 0; i < options.num_requests; ++i) {
        if (i % burst == 0)
            now_ms += rng.nextExponential(mean_gap_ms);
        Request request = drawRequest(options, rng, i);
        request.arrival_ms = now_ms;
        trace.requests.push_back(request);
    }
    return trace;
}

Trace
closedLoopTrace(const TraceOptions &options, int64_t clients)
{
    checkOptions(options);
    TILUS_FATAL_IF(clients <= 0,
                   "closed loop needs at least one client");
    Rng rng(options.seed);
    Trace trace;
    trace.requests.reserve(static_cast<size_t>(options.num_requests));
    trace.closed_loop_clients = clients;
    for (int64_t i = 0; i < options.num_requests; ++i)
        trace.requests.push_back(drawRequest(options, rng, i));
    return trace;
}

} // namespace serving
} // namespace tilus
