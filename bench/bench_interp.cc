/**
 * @file
 * bench_interp: wall-clock throughput of the LIR simulator itself —
 * legacy tree-walk interpreter vs the pre-decoded micro-op engine
 * (src/sim/microop.h). Unlike every other bench in this directory this
 * measures *host* wall time, not modeled GPU latency: the simulator is
 * the substrate under ctest, the autotuner's probes, the differential
 * oracle, and all figure sweeps, so simulated cells per second directly
 * bounds how much of the design space those consumers can afford.
 *
 * For the stage-1/stage-2 u4/f16 matmul kernels the harness runs the
 * same functional simulation (full grid, seeded device) under both
 * engines, checks the device bytes agree, and reports simulated
 * cells/sec (M*N*K MAC cells per host second). With an argument the
 * sweep is written as JSON (see BENCH_interp.json).
 *
 * The binary doubles as a CI gate: it exits non-zero if the micro-op
 * engine cannot decode one of the covered matmul kernels, or if any run
 * diverged.
 */
#include <chrono>
#include <cstring>

#include "bench_common.h"
#include "obs/build_info.h"
#include "obs/profile.h"
#include "opt/oracle.h"
#include "sim/interpreter.h"
#include "sim/microop.h"

using namespace tilus;
using namespace tilus::bench;

namespace {

using Clock = std::chrono::steady_clock;

struct Row
{
    std::string name;
    double treewalk_s = 0;
    double microop_s = 0;
    double cells = 0;
    bool identical = false;
    bool used_microops = false;
    int affine = 0, uniform = 0, generic = 0;
};

kernels::MatmulConfig
config(DataType wdtype, int stages)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = wdtype;
    cfg.n = 1024;
    cfg.k = 512;
    cfg.bm = 16;
    cfg.bn = 64;
    cfg.bk = 32;
    cfg.warp_m = 1;
    cfg.warp_n = 2;
    cfg.stages = stages;
    return cfg;
}

/** One functional, seeded, full-grid run; returns host seconds. */
double
timeRun(const lir::Kernel &kernel, sim::Engine engine,
        const opt::OracleConfig &oracle, sim::Device &device,
        sim::SimStats &stats, obs::ProfileCollector *profile = nullptr)
{
    // Reuse the oracle's seeded-arena convention so both engines see the
    // same inputs and the device bytes can be compared afterwards.
    auto t0 = Clock::now();
    stats = opt::runSeeded(kernel, oracle, device, engine, profile);
    auto t1 = Clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

Row
evaluate(const kernels::MatmulConfig &cfg, int64_t m)
{
    Row row;
    row.name = cfg.name();
    auto bundle = kernels::buildMatmul(cfg);
    lir::Kernel kernel = compiler::compile(bundle.main_program, {});

    sim::MicroProgram program = sim::compileMicroProgram(kernel);
    row.affine = program.numAffineExprs();
    row.uniform = program.numUniformExprs();
    row.generic = program.numGenericExprs();

    opt::OracleConfig oracle;
    oracle.scalars = {{"m", m}};
    oracle.device_bytes = 16 << 20;

    // Best of three runs per engine (each on a fresh seeded device —
    // the workspace bump allocator advances per run): the comparison is
    // wall clock, so take the least-disturbed sample of each.
    const int reps = 3;
    sim::SimStats stats_tree, stats_micro;
    row.treewalk_s = 1e30;
    row.microop_s = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        sim::Device dev_tree(oracle.device_bytes);
        sim::Device dev_micro(oracle.device_bytes);
        row.treewalk_s =
            std::min(row.treewalk_s,
                     timeRun(kernel, sim::Engine::kTreeWalk, oracle,
                             dev_tree, stats_tree));
        try {
            row.microop_s =
                std::min(row.microop_s,
                         timeRun(kernel, sim::Engine::kMicroOps, oracle,
                                 dev_micro, stats_micro));
        } catch (const TilusError &e) {
            // An undecodable kernel throws; report it as the gate
            // failure it is instead of aborting the sweep.
            std::fprintf(stderr, "%s: %s\n", row.name.c_str(), e.what());
            row.used_microops = false;
            row.identical = false;
            return row;
        }
        if (rep + 1 == reps) {
            row.used_microops = stats_micro.used_microops;
            row.identical = opt::devicesIdentical(
                dev_tree, dev_micro, oracle.device_bytes);
        }
    }
    row.cells = double(m) * double(cfg.n) * double(cfg.k);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const int64_t m = 16;
    printHeader("bench_interp: simulator wall clock, tree-walk vs "
                "micro-op engine (functional, full grid)");

    std::vector<Row> rows;
    for (int stages : {1, 2}) {
        rows.push_back(evaluate(config(uint4(), stages), m));
        rows.push_back(evaluate(config(float16(), stages), m));
    }

    std::printf("%-44s %10s %10s %8s %14s %5s\n", "kernel", "tree s",
                "micro s", "speedup", "micro cells/s", "exprs");
    bool failed = false;
    for (const Row &row : rows) {
        std::printf("%-44s %10.3f %10.3f %7.2fx %14.3g %d/%d/%d%s%s\n",
                    row.name.c_str(), row.treewalk_s, row.microop_s,
                    row.treewalk_s / row.microop_s,
                    row.cells / row.microop_s, row.affine, row.uniform,
                    row.generic, row.identical ? "" : "  DIVERGED",
                    row.used_microops ? "" : "  UNDECODABLE");
        if (!row.identical || !row.used_microops)
            failed = true;
    }

    // Profiler A/B on the headline kernel: disarmed runs (the default
    // RunOptions::profile == nullptr path every ctest and sweep takes)
    // against armed runs with a live ProfileCollector. Every run must
    // leave the same device bytes as the disarmed reference run —
    // attribution only *observes* counters. After one warm-up run in
    // each mode the modes alternate, each run on a fresh device
    // allocated after the previous one is freed, so allocator state,
    // drift and run order hit both modes alike; each mode reports its
    // fastest run, so the ratio measures the armed hot path.
    const int ab_reps = 5;
    bool profile_identical = true;
    double profile_disarmed_s = 1e30, profile_armed_s = 1e30;
    {
        auto cfg = config(uint4(), 1);
        auto bundle = kernels::buildMatmul(cfg);
        lir::Kernel kernel = compiler::compile(bundle.main_program, {});
        opt::OracleConfig oracle;
        oracle.scalars = {{"m", m}};
        oracle.device_bytes = 16 << 20;

        sim::SimStats stats;
        sim::Device reference(oracle.device_bytes);
        timeRun(kernel, sim::Engine::kMicroOps, oracle, reference, stats);
        // Run 0 warms the armed mode up; odd runs are disarmed.
        for (int run = 0; run <= 2 * ab_reps; ++run) {
            const bool armed = run % 2 == 0;
            sim::Device device(oracle.device_bytes);
            obs::ProfileCollector collector(kernel);
            const double seconds =
                timeRun(kernel, sim::Engine::kMicroOps, oracle, device, stats,
                        armed ? &collector : nullptr);
            profile_identical =
                profile_identical &&
                opt::devicesIdentical(reference, device,
                                      oracle.device_bytes);
            if (run == 0)
                continue;
            double &best = armed ? profile_armed_s : profile_disarmed_s;
            best = std::min(best, seconds);
        }
        std::printf("\nprofiler A/B (%s, min of %d alternating runs "
                    "each): disarmed %.4fs armed %.4fs (overhead "
                    "%.2fx), devices %s\n",
                    cfg.name().c_str(), ab_reps, profile_disarmed_s,
                    profile_armed_s,
                    profile_armed_s / profile_disarmed_s,
                    profile_identical ? "identical" : "DIVERGED");
        if (!profile_identical)
            failed = true;
    }

    std::vector<std::string> runs;
    for (const Row &row : rows)
        runs.push_back(
            json::Object()
                .add("kernel", row.name)
                .add("treewalk_s", row.treewalk_s)
                .add("microop_s", row.microop_s)
                .add("speedup", row.treewalk_s / row.microop_s)
                .add("treewalk_cells_per_s", row.cells / row.treewalk_s)
                .add("microop_cells_per_s", row.cells / row.microop_s)
                .add("identical", row.identical)
                .add("used_microops", row.used_microops)
                .add("affine_exprs", int64_t{row.affine})
                .add("uniform_exprs", int64_t{row.uniform})
                .add("generic_exprs", int64_t{row.generic})
                .str());
    const std::string doc =
        json::Object()
            .add("bench", "interp")
            .raw("build_info", obs::buildInfoJson())
            .add("m", m)
            .add("profile_identical", profile_identical)
            .add("profile_disarmed_s", profile_disarmed_s)
            .add("profile_armed_s", profile_armed_s)
            .add("profile_overhead", profile_armed_s / profile_disarmed_s)
            .raw("runs", jsonRows(runs))
            .str();
    if (!writeDocument(argc, argv, doc))
        return 1;

    // The gate line prints on success too, so a green CI log still
    // shows what was checked.
    std::printf("gate %s: undecodable or divergence = %s (threshold "
                "none), profile A/B identical = %s\n",
                failed ? "FAIL" : "PASS", failed ? "seen" : "none",
                profile_identical ? "true" : "false");
    if (failed) {
        std::fprintf(stderr, "\nerror: micro-op engine diverged or could "
                             "not decode a covered kernel\n");
        return 1;
    }
    return 0;
}
