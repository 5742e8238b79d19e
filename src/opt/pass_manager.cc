#include "opt/pass_manager.h"

#include "cache/fingerprint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/interpreter.h"

namespace tilus {
namespace opt {

PassManager &
PassManager::add(std::unique_ptr<Pass> pass)
{
    passes_.push_back(std::move(pass));
    return *this;
}

bool
PassManager::run(lir::Kernel &kernel)
{
    return runImpl(kernel, nullptr, nullptr);
}

bool
PassManager::runInstrumented(lir::Kernel &kernel, const ir::Env &args,
                             const sim::GpuSpec &spec)
{
    return runImpl(kernel, &args, &spec);
}

bool
PassManager::runImpl(lir::Kernel &kernel, const ir::Env *args,
                     const sim::GpuSpec *spec)
{
    obs::Span pipeline_span("opt", "pass-pipeline");
    if (pipeline_span.live()) {
        // Structural fingerprint of the input kernel, so a pipeline
        // span in the trace can be correlated with cache entries and
        // autotune candidates. Only computed while tracing.
        cache::Hasher h;
        h.str(lir::printKernel(kernel));
        pipeline_span.arg("kernel", kernel.name)
            .arg("kernel_fingerprint", h.digest().hex())
            .arg("passes", static_cast<int64_t>(passes_.size()));
    }

    records_.clear();
    auto instrument = [&](PassRecord &record) {
        if (!args || !spec)
            return;
        record.stats = sim::traceOneBlock(kernel, *args);
        record.latency = sim::estimateLatency(kernel, record.stats,
                                              *args, *spec);
    };

    PassRecord baseline;
    baseline.name = "<input>";
    instrument(baseline);
    records_.push_back(std::move(baseline));

    bool any = false;
    for (const std::unique_ptr<Pass> &pass : passes_) {
        PassRecord record;
        record.name = pass->name();
        {
            obs::Span pass_span("opt", record.name);
            record.changed = pass->run(kernel);
            pass_span.arg("kernel", kernel.name)
                .arg("changed", record.changed);
        }
        obs::Registry::instance().counter("opt_passes_run_total").add();
        if (record.changed)
            obs::Registry::instance()
                .counter("opt_passes_changed_total")
                .add();
        any |= record.changed;
        instrument(record);
        records_.push_back(std::move(record));
    }
    // Per-pass LatencyBreakdown deltas on the pipeline span
    // (instrumented runs only): which component each pass moved — e.g.
    // software-pipeline collapsing serial_us — readable straight off
    // the trace without replaying the pipeline.
    if (pipeline_span.live() && args && spec) {
        for (size_t i = 1; i < records_.size(); ++i) {
            const sim::LatencyBreakdown &prev = records_[i - 1].latency;
            const sim::LatencyBreakdown &cur = records_[i].latency;
            const std::string &name = records_[i].name;
            pipeline_span
                .arg((name + ".d_total_us").c_str(),
                     cur.total_us - prev.total_us)
                .arg((name + ".d_serial_us").c_str(),
                     cur.serial_us - prev.serial_us)
                .arg((name + ".d_dram_us").c_str(),
                     cur.dram_us - prev.dram_us);
        }
    }
    return any;
}

PassManager
PassManager::standardPipeline(compiler::OptLevel level)
{
    PassManager pm;
    if (level == compiler::OptLevel::O0)
        return pm;
    pm.add(createSoftwarePipelinePass());
    pm.add(createSyncEliminationPass());
    // dead-tensor before addr-hoist: hoisting an address used only by
    // a dead load would leave an orphaned preheader assignment no
    // later pass can remove.
    pm.add(createDeadTensorPass());
    pm.add(createAddressHoistPass());
    return pm;
}

} // namespace opt
} // namespace tilus
