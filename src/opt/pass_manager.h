/**
 * @file
 * The PassManager composes named LIR passes into a pipeline, records a
 * per-pass report (changed flag, and per-pass SimStats/latency when run
 * instrumented against a GPU spec), and provides the standard pipelines
 * behind CompileOptions::opt_level. compiler::compile runs the standard
 * pipeline after lowering; benches and tests run it explicitly to
 * inspect per-pass deltas.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compiler/options.h"
#include "opt/pass.h"
#include "sim/gpu_spec.h"
#include "sim/stats.h"
#include "sim/timing.h"

namespace tilus {
namespace opt {

/** Outcome of one pass (and, first, of the un-optimized input). */
struct PassRecord
{
    std::string name;   ///< pass name ("<input>" for the baseline row)
    bool changed = false;
    /** Traced one-block stats after this pass (instrumented runs). */
    sim::SimStats stats;
    /** Latency estimate after this pass (instrumented runs). */
    sim::LatencyBreakdown latency;
};

/** An ordered pipeline of passes over one kernel. */
class PassManager
{
  public:
    /** Append a pass; returns *this for chaining. */
    PassManager &add(std::unique_ptr<Pass> pass);

    /** Run every pass in order; true iff any pass changed the kernel. */
    bool run(lir::Kernel &kernel);

    /**
     * Like run(), additionally tracing one block (ghost mode) and
     * estimating latency on @p spec after every pass, so records()
     * exposes the per-pass SimStats/latency deltas. @p args must bind
     * every kernel parameter.
     */
    bool runInstrumented(lir::Kernel &kernel, const ir::Env &args,
                         const sim::GpuSpec &spec);

    /** Per-pass reports of the most recent run. */
    const std::vector<PassRecord> &records() const { return records_; }

    /** The pipeline compiled in by CompileOptions::opt_level. */
    static PassManager standardPipeline(compiler::OptLevel level);

  private:
    bool runImpl(lir::Kernel &kernel, const ir::Env *args,
                 const sim::GpuSpec *spec);

    std::vector<std::unique_ptr<Pass>> passes_;
    std::vector<PassRecord> records_;
};

} // namespace opt
} // namespace tilus
