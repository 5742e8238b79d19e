/**
 * @file
 * Chaos suite: the fault-injection registry itself (spec grammar,
 * trigger kinds, deterministic replay, injection accounting), the
 * compile layer's retry / O0-degrade / structured-error ladder, and the
 * capstone — the full compile -> cache -> serve pipeline driven under
 * randomized seeded fault schedules, asserting the system degrades
 * instead of crashing: KV pools balance, reports stay internally
 * consistent, and disarmed runs are byte-identical.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <vector>

#include "cache/kernel_cache.h"
#include "kernels/matmul.h"
#include "llm/engine.h"
#include "obs/metrics.h"
#include "serving/simulator.h"
#include "sim/gpu_spec.h"
#include "support/fault.h"

namespace tilus {
namespace {

using kernels::MatmulConfig;

/** Disarms the fault registry when a test scope exits. */
struct FaultGuard
{
    ~FaultGuard() { fault::disarm(); }
};

/** A unique directory under /tmp, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "tilus_chaos_XXXXXX")
                .string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        EXPECT_NE(mkdtemp(buf.data()), nullptr);
        path = buf.data();
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

ir::Program
smallProgram()
{
    MatmulConfig cfg;
    cfg.wdtype = uint4();
    cfg.n = 128;
    cfg.k = 128;
    cfg.bm = 16;
    cfg.bn = 64;
    cfg.bk = 32;
    cfg.warp_m = 1;
    cfg.warp_n = 2;
    cfg.stages = 2;
    cfg.use_tensor_cores = true;
    return kernels::buildMatmul(cfg).main_program;
}

// ------------------------------------------------------- the registry

TEST(FaultRegistry, AlwaysTriggerFiresEveryProbe)
{
    FaultGuard guard;
    fault::configure("chaos.site=always");
    EXPECT_TRUE(fault::enabled());
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(fault::maybeFail("chaos.site"));
    EXPECT_FALSE(fault::maybeFail("chaos.other")); // unmatched site
    EXPECT_EQ(fault::injectionCount(), 5);
    EXPECT_EQ(fault::injectionCount("chaos.site"), 5);
    EXPECT_EQ(fault::injectionCount("chaos.other"), 0);
}

TEST(FaultRegistry, NthHitFiresExactlyOnce)
{
    FaultGuard guard;
    fault::configure("chaos.site=n3");
    EXPECT_FALSE(fault::maybeFail("chaos.site"));
    EXPECT_FALSE(fault::maybeFail("chaos.site"));
    EXPECT_TRUE(fault::maybeFail("chaos.site")); // the 3rd probe
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(fault::maybeFail("chaos.site"));
    EXPECT_EQ(fault::injectionCount(), 1);
}

TEST(FaultRegistry, ProbabilityStreamReplaysPerSeed)
{
    FaultGuard guard;
    auto sample = [](const std::string &spec) {
        fault::configure(spec);
        std::vector<bool> fired;
        for (int i = 0; i < 256; ++i)
            fired.push_back(fault::maybeFail("chaos.site"));
        return fired;
    };
    std::vector<bool> a = sample("chaos.site=p0.3@7");
    std::vector<bool> b = sample("chaos.site=p0.3@7");
    EXPECT_EQ(a, b); // configure() resets the stream: exact replay
    EXPECT_NE(a, sample("chaos.site=p0.3@8")); // another stream
    // Unseeded: the stream is keyed off the site pattern, still
    // deterministic across configures.
    EXPECT_EQ(sample("chaos.site=p0.3"), sample("chaos.site=p0.3"));

    int64_t fired = 0;
    for (bool f : a)
        fired += f ? 1 : 0;
    EXPECT_GT(fired, 0);   // p=0.3 over 256 probes: both outcomes
    EXPECT_LT(fired, 256); // occur (deterministically, seed 7)
}

TEST(FaultRegistry, FirstMatchingEntryDecidesAndPrefixMatches)
{
    FaultGuard guard;
    fault::configure("chaos.a.b=n1,chaos.*=always");
    EXPECT_TRUE(fault::maybeFail("chaos.a.b"));  // exact entry: n1
    EXPECT_FALSE(fault::maybeFail("chaos.a.b")); // n1 spent, not always
    EXPECT_TRUE(fault::maybeFail("chaos.a.c"));  // wildcard entry
    EXPECT_TRUE(fault::maybeFail("chaos.zzz"));
    EXPECT_FALSE(fault::maybeFail("other.site"));
}

TEST(FaultRegistry, MaybeThrowCarriesTheSite)
{
    FaultGuard guard;
    fault::configure("chaos.site=always");
    try {
        fault::maybeThrow("chaos.site");
        FAIL() << "armed site did not throw";
    } catch (const fault::FaultInjectedError &e) {
        EXPECT_EQ(e.site(), "chaos.site");
    }
    EXPECT_NO_THROW(fault::maybeThrow("chaos.other"));
}

TEST(FaultRegistry, InjectionsAreCountedInObsRegistry)
{
    FaultGuard guard;
    auto &reg = obs::Registry::instance();
    const int64_t total_before = reg.counter("fault_injected_total").value();
    const int64_t site_before =
        reg.counter("fault_chaos_site_injected_total").value();
    fault::configure("chaos.site=always");
    for (int i = 0; i < 3; ++i)
        fault::maybeFail("chaos.site");
    EXPECT_EQ(reg.counter("fault_injected_total").value() - total_before,
              3);
    EXPECT_EQ(reg.counter("fault_chaos_site_injected_total").value() -
                  site_before,
              3);
}

TEST(FaultRegistry, DisarmRestoresTheZeroOverheadPath)
{
    FaultGuard guard;
    fault::configure("chaos.site=always");
    EXPECT_TRUE(fault::maybeFail("chaos.site"));
    fault::disarm();
    EXPECT_FALSE(fault::enabled());
    EXPECT_FALSE(fault::maybeFail("chaos.site"));
    EXPECT_EQ(fault::injectionCount(), 0); // disarm resets counts
}

// ---------------------------------------------------- compile degrade

TEST(CompileFaults, RetryAbsorbsSingleInjectedFailure)
{
    FaultGuard guard;
    auto &reg = obs::Registry::instance();
    const int64_t retries_before =
        reg.counter("compile_retries_total").value();
    const int64_t degrades_before =
        reg.counter("compile_o0_degrades_total").value();

    fault::configure("compile.kernel=n1"); // first attempt only
    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(nullptr);
    EXPECT_NO_THROW(rt.getOrCompile(smallProgram(), {}));
    EXPECT_EQ(rt.compileCount(), 1);
    EXPECT_EQ(reg.counter("compile_retries_total").value() -
                  retries_before,
              1);
    // The retry succeeded at the requested level: no degrade.
    EXPECT_EQ(reg.counter("compile_o0_degrades_total").value() -
                  degrades_before,
              0);
}

/**
 * Find a probability-stream seed whose first three draws at @p prob
 * fire, fire, miss. With an explicit '@SEED' the stream depends only on
 * the seed, so a pattern observed on a scratch site replays exactly at
 * "compile.kernel": attempts 1 and 2 fail, the O0 attempt succeeds.
 */
uint64_t
findFireFireMissSeed(double prob)
{
    for (uint64_t seed = 0; seed < 10000; ++seed) {
        fault::configure("chaos.scratch=p" + std::to_string(prob) + "@" +
                         std::to_string(seed));
        const bool a = fault::maybeFail("chaos.scratch");
        const bool b = fault::maybeFail("chaos.scratch");
        const bool c = fault::maybeFail("chaos.scratch");
        if (a && b && !c)
            return seed;
    }
    ADD_FAILURE() << "no fire-fire-miss seed below 10000 at p=" << prob;
    return 0;
}

TEST(CompileFaults, RepeatedFailuresDegradeToO0AndStayOffDisk)
{
    FaultGuard guard;
    auto &reg = obs::Registry::instance();
    const uint64_t seed = findFireFireMissSeed(0.6);

    TempDir dir;
    cache::KernelCache disk(dir.path);
    const ir::Program program = smallProgram();
    const int64_t degrades_before =
        reg.counter("compile_o0_degrades_total").value();

    fault::configure("compile.kernel=p0.6@" + std::to_string(seed));
    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(&disk);
    EXPECT_NO_THROW(rt.getOrCompile(program, {}));
    EXPECT_EQ(rt.compileCount(), 1);
    EXPECT_EQ(reg.counter("compile_o0_degrades_total").value() -
                  degrades_before,
              1);
    // The O0 fallback is fingerprinted under the *requested* options:
    // persisting it would poison every later healthy process.
    EXPECT_EQ(disk.stats().stores, 0);

    // A healthy process over the same disk compiles fresh and persists.
    fault::disarm();
    runtime::Runtime healthy(sim::l40s());
    healthy.setDiskCache(&disk);
    healthy.getOrCompile(program, {});
    EXPECT_EQ(healthy.compileCount(), 1);
    EXPECT_EQ(disk.stats().stores, 1);
}

TEST(CompileFaults, ExhaustedLadderThrowsStructuredError)
{
    FaultGuard guard;
    fault::configure("compile.kernel=always");
    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(nullptr);
    try {
        rt.getOrCompile(smallProgram(), {});
        FAIL() << "compile under always-fault did not throw";
    } catch (const CompileError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("compile failed after 3 attempts"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("including O0 degrade"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("injected fault"), std::string::npos) << msg;
    }
    EXPECT_EQ(rt.compileCount(), 0);
}

// ------------------------------------------------- pipeline under chaos

/** One full compile -> cache -> serve pass on a fresh cache directory;
    the caller arms (or disarms) the fault registry first. */
serving::ServingReport
runPipeline(const std::string &cache_dir)
{
    runtime::Runtime rt(sim::l40s());
    cache::KernelCache disk(cache_dir);
    rt.setDiskCache(&disk);

    // Compact tuning space: exercises the real kernel generators while
    // keeping the per-matmul sweep small enough for a unit test.
    autotune::TuneSpace space;
    space.bm_tc = {16};
    space.bn = {128};
    space.bk = {64};
    space.warps_m = {1};
    space.warps_n = {4};
    space.simt_warps = {4};
    space.stages = {2};

    llm::EngineOptions engine_options;
    engine_options.system = baselines::System::kTilus;
    engine_options.wdtype = uint4();
    engine_options.tune_space = &space;
    llm::ServingEngine engine(rt, llm::gemma2_9b(), engine_options);

    serving::TraceOptions trace_options;
    trace_options.num_requests = 10;
    trace_options.rate_rps = 16.0;
    trace_options.prompt_max = 256;
    trace_options.output_min = 8;
    trace_options.output_max = 24;
    trace_options.seed = 29;

    serving::FcfsScheduler scheduler;
    serving::SimOptions sim_options;
    sim_options.limits = serving::limitsFrom(engine);
    sim_options.step_faults.base_ms = 20;
    serving::Simulator simulator(engine, scheduler, sim_options);
    return simulator.run(serving::poissonTrace(trace_options));
}

TEST(Chaos, PipelineSurvivesRandomizedFaultSchedules)
{
    FaultGuard guard;
    for (uint64_t seed : {3u, 11u}) {
        TempDir dir;
        const std::string s = std::to_string(seed);
        // Faults at every layer at once: disk reads / writes /
        // corruption during kernel caching, compile attempts, and
        // engine steps during serving.
        fault::configure("cache.disk.read=p0.08@" + s +
                         ",cache.disk.write=p0.08@" + s +
                         ",cache.disk.corrupt=p0.05@" + s +
                         ",compile.kernel=p0.03@" + s +
                         ",serving.step=p0.02@" + s);
        serving::ServingReport report;
        try {
            report = runPipeline(dir.path);
        } catch (const CompileError &e) {
            // A compile whose whole retry ladder was hit is a valid
            // structured outcome of this schedule — never a crash.
            EXPECT_NE(std::string(e.what()).find("compile failed"),
                      std::string::npos);
            continue;
        }
        // The report stays internally consistent under any schedule
        // (KV-pool balance is asserted inside Simulator::run).
        EXPECT_EQ(report.completed + report.rejected + report.failed,
                  report.total_requests)
            << "seed " << seed;
        EXPECT_GE(report.availability, 0.0);
        EXPECT_LE(report.availability, 1.0);
        EXPECT_EQ(report.injected_faults,
                  fault::injectionCount("serving.step"))
            << "seed " << seed;
        EXPECT_GE(report.retries, 0);
    }
}

TEST(Chaos, DisarmedPipelineIsByteIdentical)
{
    FaultGuard guard;
    fault::disarm();
    TempDir dir_a;
    TempDir dir_b;
    const std::string a = runPipeline(dir_a.path).toJson();
    const std::string b = runPipeline(dir_b.path).toJson();
    EXPECT_EQ(a, b);
    EXPECT_EQ(fault::injectionCount(), 0);

    // An explicitly empty spec is the same off state as disarm().
    fault::configure("");
    EXPECT_FALSE(fault::enabled());
    TempDir dir_c;
    EXPECT_EQ(runPipeline(dir_c.path).toJson(), a);
}

} // namespace
} // namespace tilus
