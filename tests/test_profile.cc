/**
 * @file
 * Kernel-profiler tests (obs/profile.h): conservation — per-instruction
 * attributed counters must sum exactly to the whole-run SimStats, and
 * per-region latency components to the modeled breakdown, for every
 * suite kernel, on both engines, at O0 and O2 — plus
 * instruction-by-instruction cross-engine agreement, the golden
 * stage-1 u4 matmul profile (region segmentation, roofline
 * classification), region segmentation surviving a kernel-cache round
 * trip, and the disarmed-mode guarantee that profiling off means
 * byte-identical devices.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "autotune/tuner.h"
#include "cache/serialize.h"
#include "compiler/compiler.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "obs/profile.h"
#include "opt/oracle.h"
#include "sim/gpu_spec.h"
#include "sim/interpreter.h"

namespace tilus {
namespace {

kernels::MatmulConfig
baseConfig(DataType wdtype)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = wdtype;
    cfg.n = 256;
    cfg.k = 64;
    cfg.bm = 16;
    cfg.bn = 64;
    cfg.bk = 32;
    cfg.warp_m = 1;
    cfg.warp_n = 2;
    return cfg;
}

/** The conservation suite: matmul variants, elementwise, transform. */
std::vector<std::pair<std::string, ir::Program>>
suitePrograms()
{
    std::vector<std::pair<std::string, ir::Program>> programs;
    for (int stages : {1, 2}) {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = stages;
        programs.emplace_back(cfg.name(),
                              kernels::buildMatmul(cfg).main_program);
    }
    {
        auto cfg = baseConfig(tilus::float16());
        cfg.stages = 1;
        programs.emplace_back(cfg.name(),
                              kernels::buildMatmul(cfg).main_program);
    }
    {
        kernels::MatmulConfig cfg;
        cfg.wdtype = tilus::uint4();
        cfg.n = 256;
        cfg.k = 64;
        cfg.bm = 2;
        cfg.bn = 128;
        cfg.bk = 32;
        cfg.simt_warps = 2;
        cfg.stages = 1;
        cfg.use_tensor_cores = false;
        programs.emplace_back(cfg.name(),
                              kernels::buildMatmul(cfg).main_program);
    }
    {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = 2;
        auto bundle = kernels::buildMatmul(cfg);
        programs.emplace_back("transform", *bundle.transform_program);
    }
    programs.emplace_back("vector_add",
                          kernels::buildVectorAdd(2, 4).program);
    programs.emplace_back("axpy", kernels::buildAxpy(1, 2).program);
    return programs;
}

/** The regions' components sum to the whole-kernel breakdown, launch
    time excepted (it prices the launch, not any instruction). */
void
expectComponentsConserved(const obs::KernelProfile &p,
                          const std::string &what)
{
    obs::ComponentUs sum;
    for (const obs::RegionProfile &region : p.regions)
        sum.add(region.components);
    auto near = [&](const char *name, double got, double want) {
        EXPECT_NEAR(got, want, 1e-12 * std::abs(want)) << what << " " << name;
    };
    near("dram_us", sum.dram_us, p.latency.dram_us);
    near("l2_us", sum.l2_us, p.latency.l2_us);
    near("tc_us", sum.tc_us, p.latency.tc_us);
    near("simt_us", sum.simt_us, p.latency.simt_us);
    near("alu_us", sum.alu_us, p.latency.alu_us);
    near("smem_us", sum.smem_us, p.latency.smem_us);
    near("serial_us", sum.serial_us, p.latency.serial_us);
}

/** One profiled seeded run; returns the run's whole-kernel stats. */
sim::SimStats
profiledRun(const lir::Kernel &kernel, sim::Engine engine,
            obs::ProfileCollector &collector)
{
    opt::OracleConfig config;
    config.scalars = {{"m", 16}, {"n", 512}};
    sim::Device device(config.device_bytes);
    return opt::runSeeded(kernel, config, device, engine, &collector);
}

// ---------------------------------------------------------------------
// Conservation: attributed counters sum exactly to the run's SimStats.
// ---------------------------------------------------------------------

TEST(ProfileConservation, SuiteKernelsBothEnginesBothLevels)
{
    for (const auto &[name, program] : suitePrograms()) {
        for (compiler::OptLevel level :
             {compiler::OptLevel::O0, compiler::OptLevel::O2}) {
            compiler::CompileOptions options;
            options.opt_level = level;
            lir::Kernel kernel = compiler::compile(program, options);
            const char *tag =
                level == compiler::OptLevel::O0 ? "O0" : "O2";
            // profiledRun's scalars; ghost tracing reads no pointer.
            ir::Env env;
            for (const ir::Var &p : kernel.params)
                env.bind(p, p.name() == "m"   ? 16
                            : p.name() == "n" ? 512
                                              : 0);
            // The model prices one traced block, as Runtime::launch
            // does; the rows split it by the whole run's work.
            const sim::SimStats block = sim::traceOneBlock(kernel, env);

            obs::ProfileCollector tree(kernel);
            sim::SimStats tree_stats =
                profiledRun(kernel, sim::Engine::kTreeWalk, tree);
            EXPECT_FALSE(tree_stats.used_microops);
            EXPECT_EQ(tree.attributedTotals(), sim::Counters(tree_stats))
                << name << " " << tag << " (treewalk)";

            obs::ProfileCollector micro(kernel);
            sim::SimStats micro_stats =
                profiledRun(kernel, sim::Engine::kMicroOps, micro);
            EXPECT_TRUE(micro_stats.used_microops);
            EXPECT_EQ(micro.attributedTotals(), sim::Counters(micro_stats))
                << name << " " << tag << " (microop)";

            const std::string what = name + " " + tag;
            expectComponentsConserved(tree.finish(block, env, sim::l40s()),
                                      what + " (treewalk)");
            expectComponentsConserved(
                micro.finish(block, env, sim::l40s()),
                what + " (microop)");

            // Engines must agree instruction by instruction, not just
            // in aggregate. (Executions are compared except on "exit",
            // which the micro-op engine compiles to a jump, not a
            // counted leaf; its counters are all zero either way.)
            ASSERT_EQ(tree.numInstructions(), micro.numInstructions());
            for (size_t i = 0; i < tree.numInstructions(); ++i) {
                const obs::InstrProfile &a = tree.row(i);
                const obs::InstrProfile &b = micro.row(i);
                EXPECT_EQ(a.counters, b.counters)
                    << name << " " << tag << " instr #" << a.id << " ("
                    << a.opcode << ")";
                if (a.opcode != "exit") {
                    EXPECT_EQ(a.executions, b.executions)
                        << name << " " << tag << " instr #" << a.id
                        << " (" << a.opcode << ")";
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The golden profile: stage-1 u4 matmul, regions, roofline.
// ---------------------------------------------------------------------

obs::KernelProfile
goldenProfile(compiler::OptLevel level)
{
    kernels::MatmulConfig cfg = baseConfig(tilus::uint4());
    cfg.n = 4096;
    cfg.k = 4096;
    cfg.stages = 1;
    compiler::CompileOptions options;
    options.opt_level = level;
    lir::Kernel kernel =
        compiler::compile(kernels::buildMatmul(cfg).main_program,
                          options);
    ir::Env env;
    for (const ir::Var &p : kernel.params)
        env.bind(p, p.name() == "m" ? 16 : 0);

    sim::SimStats block_stats = sim::traceOneBlock(kernel, env);
    obs::ProfileCollector collector(kernel);
    sim::RunOptions run;
    run.mode = sim::MemoryMode::kGhost;
    run.max_blocks = 1;
    run.enable_print = false;
    run.profile = &collector;
    sim::SimStats stats = sim::run(kernel, env, nullptr, run);
    return collector.finish(block_stats, env, sim::l40s(), {},
                            stats.used_microops ? "microop"
                                                : "treewalk");
}

TEST(ProfileGolden, MainLoopBoundFlipsFromSerializationToDram)
{
    // Figure 1(b): the synchronous loop stalls on the DRAM round trip
    // (serialization-bound); software pipelining turns the same loop
    // bandwidth-bound.
    obs::KernelProfile o0 = goldenProfile(compiler::OptLevel::O0);
    EXPECT_EQ(o0.region(obs::Region::kMainLoop).bound,
              obs::Bound::kSerialization);
    EXPECT_EQ(o0.bound, obs::Bound::kSerialization);

    obs::KernelProfile o2 = goldenProfile(compiler::OptLevel::O2);
    EXPECT_EQ(o2.region(obs::Region::kMainLoop).bound,
              obs::Bound::kDram);
    EXPECT_EQ(o2.bound, obs::Bound::kDram);
    EXPECT_LT(o2.latency.total_us, o0.latency.total_us);

    // Both sit on the memory-bound side of the roofline: the u4 matmul
    // at m=16 has far less arithmetic intensity than the ridge point.
    for (const obs::KernelProfile *p : {&o0, &o2}) {
        EXPECT_TRUE(p->memory_bound);
        EXPECT_GT(p->arith_intensity, 0);
        EXPECT_LT(p->arith_intensity, p->ridge_flops_per_byte);
        EXPECT_EQ(p->blocks_profiled, 1);
        expectComponentsConserved(*p, "golden " + p->kernel);
    }

    // Region segmentation: the k-loop dominates and every instruction
    // landed in exactly one region.
    int64_t instrs = 0;
    for (const obs::RegionProfile &region : o2.regions)
        instrs += region.instructions;
    EXPECT_EQ(instrs, int64_t(o2.instructions.size()));
    EXPECT_GT(o2.region(obs::Region::kMainLoop).executions,
              o2.region(obs::Region::kPrologue).executions);
}

// ---------------------------------------------------------------------
// Region segmentation survives the kernel cache: a deserialized kernel
// has fresh expression nodes, so its main loop is found by structure.
// ---------------------------------------------------------------------

TEST(ProfileRegions, CacheRoundTripKeepsEveryInstructionsRegion)
{
    int kernels_checked = 0;
    int with_main_loop = 0;
    for (int64_t m : {1, 16}) {
        for (compiler::OptLevel level :
             {compiler::OptLevel::O0, compiler::OptLevel::O2}) {
            compiler::CompileOptions options;
            options.opt_level = level;
            for (kernels::MatmulConfig cfg : autotune::enumerateConfigs(
                     tilus::uint4(), /*n=*/4096, /*k=*/3072, m)) {
                cfg.group_size = 128;
                if (!cfg.valid())
                    continue;
                // The tuner's probes (1 and 2 outer iterations), then
                // the full-depth kernel.
                for (int outers : {1, 2, 0}) {
                    kernels::MatmulConfig c = cfg;
                    if (outers > 0) {
                        c.k = cfg.bk * cfg.stages * outers;
                        c.group_size = c.bk;
                    }
                    const std::string what =
                        c.name() + " k=" + std::to_string(c.k) +
                        (level == compiler::OptLevel::O0 ? " O0" : " O2");
                    lir::Kernel fresh = compiler::compile(
                        kernels::buildMatmul(c).main_program, options);
                    lir::Kernel loaded = cache::deserializeKernel(
                        cache::serializeKernel(fresh));
                    obs::ProfileCollector want(fresh);
                    obs::ProfileCollector got(loaded);
                    ASSERT_EQ(got.numInstructions(), want.numInstructions())
                        << what;
                    bool main_loop = false;
                    for (size_t i = 0; i < want.numInstructions(); ++i) {
                        ASSERT_EQ(got.row(i).opcode, want.row(i).opcode)
                            << what << " instruction " << i;
                        ASSERT_EQ(got.row(i).region, want.row(i).region)
                            << what << " instruction " << i;
                        main_loop |=
                            want.row(i).region == obs::Region::kMainLoop;
                    }
                    ++kernels_checked;
                    with_main_loop += main_loop;
                }
            }
        }
    }
    EXPECT_EQ(kernels_checked, 720);
    // Every kernel has a main loop for the match to find.
    EXPECT_EQ(with_main_loop, kernels_checked);
}

// ---------------------------------------------------------------------
// Disarmed mode: profiling off leaves runs byte-identical.
// ---------------------------------------------------------------------

TEST(ProfileDisarmed, RunsAreByteIdenticalWithAndWithoutProfiling)
{
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 1;
    lir::Kernel kernel =
        compiler::compile(kernels::buildMatmul(cfg).main_program, {});
    opt::OracleConfig config;
    config.scalars = {{"m", 16}};

    sim::Device plain_a(config.device_bytes);
    sim::Device plain_b(config.device_bytes);
    sim::Device armed(config.device_bytes);
    opt::runSeeded(kernel, config, plain_a);
    opt::runSeeded(kernel, config, plain_b);
    obs::ProfileCollector collector(kernel);
    opt::runSeeded(kernel, config, armed, sim::Engine::kMicroOps,
                   &collector);

    std::string detail;
    EXPECT_TRUE(opt::devicesIdentical(plain_a, plain_b,
                                      config.device_bytes, &detail))
        << detail;
    EXPECT_TRUE(opt::devicesIdentical(plain_a, armed,
                                      config.device_bytes, &detail))
        << detail;
    EXPECT_GT(collector.numInstructions(), 0u);
}

// ---------------------------------------------------------------------
// The sink document (what TILUS_PROFILE writes).
// ---------------------------------------------------------------------

TEST(ProfileSink, DocumentCarriesSchemaAndRecordedProfiles)
{
    obs::ProfileSink &sink = obs::ProfileSink::instance();
    ASSERT_FALSE(sink.enabled()) << "TILUS_PROFILE armed under ctest";
    sink.enable("/dev/null");
    obs::KernelProfile profile = goldenProfile(compiler::OptLevel::O2);
    sink.record(profile);
    EXPECT_EQ(sink.profileCount(), 1);
    const std::string doc = sink.document();
    EXPECT_NE(doc.find("\"schema\":\"tilus-profile-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"build_info\":"), std::string::npos);
    EXPECT_NE(doc.find(profile.toJson()), std::string::npos);
    sink.disable();
    EXPECT_EQ(sink.profileCount(), 0);
}

} // namespace
} // namespace tilus
