/**
 * @file
 * bench_opt: before/after latency of the LIR pass pipeline (src/opt/).
 *
 * For a spread of kernels the harness compiles the same program at O0
 * and O2, traces one block in ghost mode, and reports the analytical
 * TimingModel estimate of both — the headline row being the synchronous
 * stages=1 matmul that the software-pipelining pass double-buffers
 * (pipelined=true at O2 only, with lower total latency). One kernel is
 * additionally run through PassManager::runInstrumented to show the
 * per-pass latency deltas. With an argument, the sweep is recorded as a
 * JSON document (see BENCH_opt.json).
 */
#include "bench_common.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "opt/pass_manager.h"
#include "sim/gpu_spec.h"
#include "sim/interpreter.h"

using namespace tilus;
using namespace tilus::bench;

namespace {

struct Row
{
    std::string name;
    sim::LatencyBreakdown o0;
    sim::LatencyBreakdown o2;
    int64_t o0_bar_syncs = 0;
    int64_t o2_bar_syncs = 0;
};

ir::Env
bindParams(const lir::Kernel &kernel, int64_t m)
{
    ir::Env env;
    for (const ir::Var &p : kernel.params)
        env.bind(p, p.name() == "m" ? m : 0);
    return env;
}

Row
evaluate(const std::string &label, const ir::Program &program, int64_t m,
         const sim::GpuSpec &spec)
{
    Row row;
    row.name = label;
    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    lir::Kernel k0 = compiler::compile(program, o0);
    lir::Kernel k2 = compiler::compile(program, {});
    ir::Env env0 = bindParams(k0, m);
    ir::Env env2 = bindParams(k2, m);
    sim::SimStats s0 = sim::traceOneBlock(k0, env0);
    sim::SimStats s2 = sim::traceOneBlock(k2, env2);
    row.o0 = sim::estimateLatency(k0, s0, env0, spec);
    row.o2 = sim::estimateLatency(k2, s2, env2, spec);
    row.o0_bar_syncs = s0.bar_syncs;
    row.o2_bar_syncs = s2.bar_syncs;
    return row;
}

kernels::MatmulConfig
config(DataType wdtype, int stages, bool tensor_cores = true)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = wdtype;
    cfg.n = 4096;
    cfg.k = 4096;
    cfg.bm = 16;
    cfg.bn = 64;
    cfg.bk = 32;
    cfg.warp_m = 1;
    cfg.warp_n = 2;
    cfg.stages = stages;
    cfg.use_tensor_cores = tensor_cores;
    if (!tensor_cores) {
        cfg.bm = 2;
        cfg.bn = 256;
        cfg.simt_warps = 2;
    }
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const sim::GpuSpec spec = sim::l40s();
    const int64_t m = 16;

    printHeader("bench_opt: LIR pass pipeline, O0 vs O2 (L40S, "
                "simulated)");

    std::vector<Row> rows;
    for (int stages : {1, 2, 4}) {
        auto cfg = config(uint4(), stages);
        rows.push_back(evaluate(cfg.name(),
                                kernels::buildMatmul(cfg).main_program,
                                m, spec));
    }
    {
        auto cfg = config(float16(), 1);
        rows.push_back(evaluate(cfg.name(),
                                kernels::buildMatmul(cfg).main_program,
                                m, spec));
    }
    {
        auto cfg = config(uint4(), 1, /*tensor_cores=*/false);
        rows.push_back(evaluate(cfg.name(),
                                kernels::buildMatmul(cfg).main_program,
                                1, spec));
    }

    std::printf("%-44s %10s %10s %8s %6s %6s %13s %13s\n", "kernel",
                "O0 us", "O2 us", "speedup", "O0bar", "O2bar",
                "O0 bound", "O2 bound");
    for (const Row &row : rows) {
        std::printf("%-44s %10.1f %10.1f %7.2fx %6ld %6ld %13s %13s\n",
                    row.name.c_str(), row.o0.total_us, row.o2.total_us,
                    row.o0.total_us / row.o2.total_us,
                    long(row.o0_bar_syncs), long(row.o2_bar_syncs),
                    obs::boundName(obs::classifyBound(row.o0)),
                    obs::boundName(obs::classifyBound(row.o2)));
    }

    // Per-pass breakdown for the headline kernel.
    {
        auto cfg = config(uint4(), 1);
        auto bundle = kernels::buildMatmul(cfg);
        compiler::CompileOptions o0;
        o0.opt_level = compiler::OptLevel::O0;
        lir::Kernel kernel = compiler::compile(bundle.main_program, o0);
        ir::Env env = bindParams(kernel, m);
        opt::PassManager pm =
            opt::PassManager::standardPipeline(compiler::OptLevel::O2);
        pm.runInstrumented(kernel, env, spec);
        std::printf("\nper-pass latency, %s:\n", cfg.name().c_str());
        for (const auto &record : pm.records()) {
            std::printf("  %-18s %10.1f us  pipelined=%-3s %s\n",
                        record.name.c_str(), record.latency.total_us,
                        record.latency.pipelined ? "yes" : "no",
                        record.name == "<input>"
                            ? ""
                            : (record.changed ? "(changed)"
                                              : "(no change)"));
        }
    }

    std::vector<std::string> runs;
    for (const Row &row : rows)
        runs.push_back(
            json::Object()
                .add("kernel", row.name)
                .add("o0_total_us", row.o0.total_us)
                .add("o2_total_us", row.o2.total_us)
                .add("o0_pipelined", row.o0.pipelined)
                .add("o2_pipelined", row.o2.pipelined)
                .add("o0_bar_syncs", row.o0_bar_syncs)
                .add("o2_bar_syncs", row.o2_bar_syncs)
                .add("o0_serial_us", row.o0.serial_us)
                .add("o2_serial_us", row.o2.serial_us)
                .add("o0_dram_us", row.o0.dram_us)
                .add("o2_dram_us", row.o2.dram_us)
                .add("o0_alu_us", row.o0.alu_us)
                .add("o2_alu_us", row.o2.alu_us)
                .add("o0_bound", obs::boundName(obs::classifyBound(row.o0)))
                .add("o2_bound", obs::boundName(obs::classifyBound(row.o2)))
                .str());
    const std::string doc = json::Object()
                                .add("bench", "opt")
                                .raw("build_info", obs::buildInfoJson())
                                .add("gpu", "L40S")
                                .add("m", m)
                                .raw("runs", jsonRows(runs))
                                .str();
    if (!writeDocument(argc, argv, doc))
        return 1;

    // Self-gate on the headline kernel (stage-1 u4: the one the
    // software-pipelining pass exists for): O2 must pipeline it and win
    // by a clear margin. Recorded history is 2.4x+, so 1.5x only trips
    // on a real regression. The line prints on success too.
    const Row &headline = rows.front();
    const double speedup = headline.o0.total_us / headline.o2.total_us;
    const double threshold = 1.5;
    // Software pipelining exists to collapse the per-iteration DRAM
    // round trip: the serialization component of the pipelined kernel
    // must be a small fraction of the synchronous one (history: ~30x).
    const double serial_ratio =
        headline.o2.serial_us / headline.o0.serial_us;
    const bool serial_pinned = serial_ratio <= 0.25;
    const bool pass =
        speedup >= threshold && headline.o2.pipelined && serial_pinned;
    std::printf("\ngate %s: %s O0/O2 speedup = %.2fx (threshold "
                "%.1fx, margin %+.2fx), o2_pipelined = %s, "
                "serial_us %.1f -> %.1f (ratio %.3f, threshold 0.25) "
                "(registry: %lld passes run, %lld changed)\n",
                pass ? "PASS" : "FAIL", headline.name.c_str(), speedup,
                threshold, speedup - threshold,
                headline.o2.pipelined ? "true" : "false",
                headline.o0.serial_us, headline.o2.serial_us,
                serial_ratio,
                static_cast<long long>(
                    obs::Registry::instance().counterValue(
                        "opt_passes_run_total")),
                static_cast<long long>(
                    obs::Registry::instance().counterValue(
                        "opt_passes_changed_total")));
    if (!pass) {
        std::fprintf(stderr, "error: pass-pipeline speedup regressed\n");
        return 1;
    }
    return 0;
}
