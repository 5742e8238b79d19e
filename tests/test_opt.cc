/**
 * @file
 * LIR optimizer tests: the differential-testing oracle over the kernel
 * suite (O2 must be bit-identical to O0 in the functional interpreter),
 * per-pass unit tests (software pipelining, synchronization elimination
 * with must-not-fire fixtures, loop-invariant address hoisting, dead
 * tensor/storage elimination), interpreter cp.async hazard coverage
 * (a missing wait observably yields stale shared memory), and the
 * PassManager's instrumented per-pass reports.
 */
#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "lang/script.h"
#include "layout/atoms.h"
#include "opt/oracle.h"
#include "opt/pass_manager.h"
#include "runtime/runtime.h"
#include "sim/interpreter.h"
#include "test_helpers.h"

namespace tilus {
namespace {

using namespace tilus::ir;

int
countOccurrences(const std::string &text, const std::string &needle)
{
    int count = 0;
    size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
        ++count;
        pos += needle.size();
    }
    return count;
}

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

// ---------------------------------------------------------------------
// Differential oracle: O2 output is bit-identical to O0 for every
// kernel in the suite, on seeded random device contents.
// ---------------------------------------------------------------------

void
expectOracleIdentical(const ir::Program &program, uint64_t seed)
{
    opt::OracleConfig config;
    config.seed = seed;
    config.scalars = {{"m", 16}, {"n", 512}};
    opt::OracleReport report = opt::diffProgram(program, {}, config);
    EXPECT_TRUE(report.identical)
        << program.name << ": " << report.detail
        << "\n--- O0 ---\n" << report.listing_ref
        << "\n--- O2 ---\n" << report.listing_opt;
}

TEST(Oracle, MatmulSuiteBitIdentical)
{
    uint64_t seed = 100;
    // Tensor-core path: unpipelined (stages = 1, the pipelining pass
    // fires) and pipelined (stages = 2), dense f16, grouped scales,
    // untransformed weights, and the Triton-style smem conversion.
    for (int stages : {1, 2}) {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = stages;
        expectOracleIdentical(kernels::buildMatmul(cfg).main_program,
                              seed++);
    }
    {
        auto cfg = baseConfig(tilus::float16());
        cfg.stages = 1;
        expectOracleIdentical(kernels::buildMatmul(cfg).main_program,
                              seed++);
    }
    {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = 1;
        cfg.group_size = 64;
        expectOracleIdentical(kernels::buildMatmul(cfg).main_program,
                              seed++);
    }
    {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = 1;
        cfg.transform_weights = false;
        expectOracleIdentical(kernels::buildMatmul(cfg).main_program,
                              seed++);
    }
    {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = 1;
        cfg.convert_via_smem = true;
        expectOracleIdentical(kernels::buildMatmul(cfg).main_program,
                              seed++);
    }
    {
        // SIMT decode path.
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
        expectOracleIdentical(kernels::buildMatmul(cfg).main_program,
                              seed++);
    }
}

TEST(Oracle, ElementwiseSuiteBitIdentical)
{
    expectOracleIdentical(kernels::buildVectorAdd(2, 4).program, 200);
    expectOracleIdentical(kernels::buildAxpy(1, 2).program, 201);
}

TEST(Oracle, TransformProgramBitIdentical)
{
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 2;
    auto bundle = kernels::buildMatmul(cfg);
    ASSERT_TRUE(bundle.transform_program.has_value());
    expectOracleIdentical(*bundle.transform_program, 300);
}

TEST(Oracle, DetectsBrokenTransform)
{
    // Sanity: the oracle must flag a kernel whose synchronization was
    // wrongly removed. Strip the CpAsyncWait from an O0 kernel by hand.
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 1;
    auto bundle = kernels::buildMatmul(cfg);
    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    lir::Kernel ref = compiler::compile(bundle.main_program, o0);
    lir::Kernel broken = compiler::compile(bundle.main_program, o0);
    for (lir::LNode &node : broken.body) {
        if (std::holds_alternative<lir::LFor>(node.node)) {
            auto &loop = std::get<lir::LFor>(node.node);
            lir::LBody kept;
            for (lir::LNode &inner : *loop.body) {
                if (std::holds_alternative<lir::LOp>(inner.node) &&
                    std::holds_alternative<lir::CpAsyncWait>(
                        std::get<lir::LOp>(inner.node)))
                    continue;
                kept.push_back(std::move(inner));
            }
            *loop.body = std::move(kept);
        }
    }
    opt::OracleConfig config;
    config.scalars = {{"m", 16}};
    opt::OracleReport report = opt::diffKernels(ref, broken, config);
    EXPECT_FALSE(report.identical);
    EXPECT_NE(report.detail.find("device byte"), std::string::npos)
        << report.detail;
}

// ---------------------------------------------------------------------
// Software pipelining pass.
// ---------------------------------------------------------------------

TEST(PipelinePass, RestructuresSynchronousLoop)
{
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 1;
    auto bundle = kernels::buildMatmul(cfg);

    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    lir::Kernel k0 = compiler::compile(bundle.main_program, o0);
    lir::Kernel k2 = compiler::compile(bundle.main_program, {});

    // Double-buffered: the whole shared space is duplicated.
    EXPECT_EQ(k2.smem_bytes, 2 * k0.smem_bytes);

    // The prologue hoists the tile-0 copies in front of the loop.
    std::string text = lir::printKernel(k2);
    size_t loop_pos = text.find("for ");
    ASSERT_NE(loop_pos, std::string::npos);
    EXPECT_NE(text.substr(0, loop_pos).find("cp.async.cg"),
              std::string::npos)
        << text;
    EXPECT_NE(text.substr(0, loop_pos).find("cp.async.commit_group"),
              std::string::npos);

    // The interpreter observes copies in flight across compute at O2
    // but not at O0.
    ir::Env env;
    for (const ir::Var &p : k2.params)
        env.bind(p, p.name() == "m" ? 16 : 0);
    EXPECT_FALSE(sim::traceOneBlock(k0, env).overlapped);
    EXPECT_TRUE(sim::traceOneBlock(k2, env).overlapped);
}

TEST(PipelinePass, LeavesPipelinedLoopsAlone)
{
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 2;
    auto bundle = kernels::buildMatmul(cfg);
    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    lir::Kernel k0 = compiler::compile(bundle.main_program, o0);
    lir::Kernel kernel = compiler::compile(bundle.main_program, o0);
    bool changed = opt::createSoftwarePipelinePass()->run(kernel);
    EXPECT_FALSE(changed);
    EXPECT_EQ(kernel.smem_bytes, k0.smem_bytes);
}

TEST(PipelinePass, SkipsLaddersSynchronousStaging)
{
    // forbid_cp_async lowers staging to ldg+sts: no cp.async pattern,
    // nothing to pipeline (the Ladder structural variant must keep its
    // Figure 1(b) behaviour under the optimizer).
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 1;
    auto bundle = kernels::buildMatmul(cfg);
    compiler::CompileOptions opts;
    opts.forbid_cp_async = true;
    lir::Kernel kernel = compiler::compile(bundle.main_program, opts);
    ir::Env env;
    for (const ir::Var &p : kernel.params)
        env.bind(p, p.name() == "m" ? 16 : 0);
    EXPECT_FALSE(sim::traceOneBlock(kernel, env).overlapped);
}

// ---------------------------------------------------------------------
// Synchronization elimination.
// ---------------------------------------------------------------------

TEST(SyncElim, RemovesBackToBackBarriers)
{
    lang::Script s("syncdup", 1);
    Var p = s.paramPointer("p", tilus::float32());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float32(), {constInt(64)});
    Layout layout = spatial(32) * local(2);
    auto sh = s.allocateShared(tilus::float32(), {64}, "sh");
    auto r = s.loadGlobal(g, layout, {constInt(0)}, "r");
    s.storeShared(r, sh, {constInt(0)});
    s.synchronize();
    s.synchronize(); // redundant: nothing touched smem in between
    auto r2 = s.loadShared(sh, layout, {constInt(0)}, "r2");
    s.storeGlobal(r2, g, {constInt(0)});
    ir::Program prog = s.finish();

    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    std::string t0 = lir::printKernel(compiler::compile(prog, o0));
    std::string t2 = lir::printKernel(compiler::compile(prog, {}));
    EXPECT_EQ(countOccurrences(t0, "bar.sync"), 2);
    EXPECT_EQ(countOccurrences(t2, "bar.sync"), 1);
}

TEST(SyncElim, KeepsProducerConsumerBarrier)
{
    // sts -> bar -> lds: the barrier orders the shared-memory round trip
    // and must never fire.
    lang::Script s("synckeep", 1);
    Var p = s.paramPointer("p", tilus::float32());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float32(), {constInt(64)});
    Layout layout = spatial(32) * local(2);
    auto sh = s.allocateShared(tilus::float32(), {64}, "sh");
    auto r = s.loadGlobal(g, layout, {constInt(0)}, "r");
    s.storeShared(r, sh, {constInt(0)});
    s.synchronize();
    auto r2 = s.loadShared(sh, layout, {constInt(0)}, "r2");
    s.storeGlobal(r2, g, {constInt(0)});
    ir::Program prog = s.finish();

    std::string t2 = lir::printKernel(compiler::compile(prog, {}));
    EXPECT_EQ(countOccurrences(t2, "bar.sync"), 1) << t2;
    expectOracleIdentical(prog, 400);
}

TEST(SyncElim, RemovesWaitWithNothingInFlight)
{
    lang::Script s("syncwait", 1);
    Var p = s.paramPointer("p", tilus::float32());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float32(), {constInt(64)});
    Layout layout = spatial(32) * local(2);
    s.copyAsyncWaitGroup(0); // nothing was ever committed
    auto r = s.loadGlobal(g, layout, {constInt(0)}, "r");
    s.storeGlobal(r, g, {constInt(0)});
    ir::Program prog = s.finish();

    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    std::string t0 = lir::printKernel(compiler::compile(prog, o0));
    std::string t2 = lir::printKernel(compiler::compile(prog, {}));
    EXPECT_EQ(countOccurrences(t0, "cp.async.wait_group"), 1);
    EXPECT_EQ(countOccurrences(t2, "cp.async.wait_group"), 0);
}

TEST(SyncElim, KeepsWaitThatPublishesCopies)
{
    // copy -> commit -> wait -> bar -> lds must keep its wait: dropping
    // it would read stale shared memory (see Hazard tests below).
    lang::Script s("syncneeded", 1);
    Var p = s.paramPointer("p", tilus::float32());
    Var q = s.paramPointer("q", tilus::float32());
    s.setGrid({constInt(1)});
    auto gin = s.viewGlobal(p, tilus::float32(), {constInt(64)}, "gin");
    auto gout = s.viewGlobal(q, tilus::float32(), {constInt(64)}, "gout");
    Layout layout = spatial(32) * local(2);
    auto sh = s.allocateShared(tilus::float32(), {64}, "sh");
    s.copyAsync(sh, gin, {constInt(0)});
    s.copyAsyncCommitGroup();
    s.copyAsyncWaitGroup(0);
    s.synchronize();
    auto r = s.loadShared(sh, layout, {constInt(0)}, "r");
    s.storeGlobal(r, gout, {constInt(0)});
    ir::Program prog = s.finish();

    std::string t2 = lir::printKernel(compiler::compile(prog, {}));
    EXPECT_EQ(countOccurrences(t2, "cp.async.wait_group"), 1) << t2;
    EXPECT_EQ(countOccurrences(t2, "bar.sync"), 1) << t2;
    expectOracleIdentical(prog, 401);
}

// ---------------------------------------------------------------------
// Interpreter cp.async hazards (the behaviour the oracle leans on).
// ---------------------------------------------------------------------

/** Copy global->shared->global, optionally without the wait. */
std::vector<double>
runHazardKernel(bool with_wait)
{
    lang::Script s(with_wait ? "hazard_wait" : "hazard_nowait", 1);
    Var p = s.paramPointer("p", tilus::float32());
    Var q = s.paramPointer("q", tilus::float32());
    s.setGrid({constInt(1)});
    auto gin = s.viewGlobal(p, tilus::float32(), {constInt(64)}, "gin");
    auto gout = s.viewGlobal(q, tilus::float32(), {constInt(64)}, "gout");
    Layout layout = spatial(32) * local(2);
    auto sh = s.allocateShared(tilus::float32(), {64}, "sh");
    s.copyAsync(sh, gin, {constInt(0)});
    s.copyAsyncCommitGroup();
    if (with_wait) {
        s.copyAsyncWaitGroup(0);
        s.synchronize();
    }
    auto r = s.loadShared(sh, layout, {constInt(0)}, "r");
    s.storeGlobal(r, gout, {constInt(0)});
    ir::Program prog = s.finish();

    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    runtime::Runtime rt(sim::l40s());
    auto din = rt.alloc(tilus::float32(), {64});
    auto dout = rt.alloc(tilus::float32(), {64});
    PackedBuffer host(tilus::float32(), 64);
    for (int64_t i = 0; i < 64; ++i)
        host.setRaw(i, encodeValue(tilus::float32(), double(i + 1)));
    rt.upload(din, host);
    const lir::Kernel &kernel = rt.getOrCompile(prog, o0);
    rt.launch(kernel, {{p, int64_t(din.ptr)}, {q, int64_t(dout.ptr)}});
    PackedBuffer out = rt.download(dout);
    std::vector<double> values(64);
    for (int64_t i = 0; i < 64; ++i)
        values[i] = decodeValue(tilus::float32(), out.getRaw(i));
    return values;
}

TEST(Hazard, MissingCpAsyncWaitYieldsStaleSharedMemory)
{
    std::vector<double> stale = runHazardKernel(/*with_wait=*/false);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(stale[i], 0.0) << "element " << i;
}

TEST(Hazard, CpAsyncWaitPublishesCopies)
{
    std::vector<double> fresh = runHazardKernel(/*with_wait=*/true);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(fresh[i], double(i + 1)) << "element " << i;
}

// ---------------------------------------------------------------------
// Loop-invariant address hoisting.
// ---------------------------------------------------------------------

TEST(AddrHoist, HoistsInvariantSubtreesIntoPreheader)
{
    lang::Script s("hoist", 1);
    Var p = s.paramPointer("p", tilus::float32());
    Var q = s.paramPointer("q", tilus::float32());
    s.setGrid({constInt(2)});
    auto idx = s.blockIndices();
    Var b = idx[0];
    auto gin = s.viewGlobal(p, tilus::float32(), {constInt(1024)}, "gin");
    auto gout =
        s.viewGlobal(q, tilus::float32(), {constInt(1024)}, "gout");
    Layout layout = spatial(32) * local(2);
    s.forRange(constInt(4), [&](Var i) {
        // (b * 512) / 2 + 128 is invariant and repeated per iteration.
        Expr base = (Expr(b) * 512) / 2 + 128;
        auto r = s.loadGlobal(gin, layout, {base + Expr(i) * 64}, "r");
        s.storeGlobal(r, gout, {base + Expr(i) * 64});
    });
    ir::Program prog = s.finish();

    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    std::string t0 = lir::printKernel(compiler::compile(prog, o0));
    std::string t2 = lir::printKernel(compiler::compile(prog, {}));
    EXPECT_EQ(countOccurrences(t0, "inv0"), 0);
    EXPECT_GE(countOccurrences(t2, "inv0 ="), 1) << t2;
    // The preheader assignment precedes the loop.
    EXPECT_LT(t2.find("inv0 ="), t2.find("for ")) << t2;
    expectOracleIdentical(prog, 500);
}

TEST(AddrHoist, NeverHoistsThreadDependentAddresses)
{
    // A tid-dependent address has no invariant topmost subtree bigger
    // than its tid-free pieces; the rewritten kernel must stay
    // functionally identical (checked by the oracle) and every hoisted
    // assign must be uniform (the interpreter would throw on an
    // unbound tid in the block environment otherwise).
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 2;
    expectOracleIdentical(kernels::buildMatmul(cfg).main_program, 501);
}

// ---------------------------------------------------------------------
// Dead tensor/storage elimination.
// ---------------------------------------------------------------------

TEST(DeadTensor, RemovesUnusedLoadAndStorage)
{
    lang::Script s("deadload", 1);
    Var p = s.paramPointer("p", tilus::float32());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float32(), {constInt(256)}, "g");
    Layout layout = spatial(32) * local(2);
    auto live = s.loadGlobal(g, layout, {constInt(0)}, "live");
    auto dead = s.loadGlobal(g, layout, {constInt(64)}, "dead");
    (void)dead; // never consumed
    s.storeGlobal(live, g, {constInt(128)});
    ir::Program prog = s.finish();

    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    lir::Kernel k0 = compiler::compile(prog, o0);
    lir::Kernel k2 = compiler::compile(prog, {});
    std::string t0 = lir::printKernel(k0);
    std::string t2 = lir::printKernel(k2);
    EXPECT_EQ(countOccurrences(t0, "ldg."), 2);
    EXPECT_EQ(countOccurrences(t2, "ldg."), 1) << t2;
    EXPECT_LT(k2.num_storages, k0.num_storages);
    expectOracleIdentical(prog, 600);
}

TEST(DeadTensor, RemovesSelfAccumulatingChainNeverStored)
{
    // A dot chain accumulates in place (c == d): without root-seeded
    // liveness the accumulator's own read would keep the whole chain
    // alive. Nothing derived from `acc2` is ever stored, so the second
    // dot, its operand loads, and its storages must all disappear.
    lang::Script s("deadmma", 1);
    Var p = s.paramPointer("p", tilus::float16());
    s.setGrid({constInt(1)});
    auto g =
        s.viewGlobal(p, tilus::float16(), {constInt(64), constInt(64)},
                     "g");
    Layout la = local(2, 1) * atoms::mmaM16N8K16A();
    Layout lb = local(1, 2) * atoms::mmaM16N8K16B();
    Layout lc = local(2, 2) * atoms::mmaM16N8K16C();
    auto a = s.loadGlobal(g, la, {constInt(0), constInt(0)}, "a");
    auto b = s.loadGlobal(g, lb, {constInt(0), constInt(16)}, "b");
    auto acc = s.allocateRegister(tilus::float32(), lc, 0.0, "acc");
    s.dot(a, b, acc);
    auto out = s.cast(acc, tilus::float16(), "out");
    s.storeGlobal(out, g, {constInt(32), constInt(0)});
    // Dead chain: same shape, fresh accumulator, never consumed.
    auto a2 = s.loadGlobal(g, la, {constInt(16), constInt(0)}, "a2");
    auto b2 = s.loadGlobal(g, lb, {constInt(16), constInt(16)}, "b2");
    auto acc2 = s.allocateRegister(tilus::float32(), lc, 0.0, "acc2");
    s.dot(a2, b2, acc2);
    ir::Program prog = s.finish();

    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    std::string t0 = lir::printKernel(compiler::compile(prog, o0));
    std::string t2 = lir::printKernel(compiler::compile(prog, {}));
    EXPECT_GT(countOccurrences(t0, "mma."),
              countOccurrences(t2, "mma."));
    EXPECT_EQ(t2.find("acc2"), std::string::npos) << t2;
    EXPECT_EQ(t2.find("a2"), std::string::npos) << t2;
    expectOracleIdentical(prog, 601);
}

TEST(DeadTensor, KeepsTensorsLiveThroughViews)
{
    // The transformed matmul loads weights as bytes (`braw`) and reads
    // them only through a reinterpreting view: storage-level liveness
    // must keep the load.
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 2;
    auto bundle = kernels::buildMatmul(cfg);
    lir::Kernel k2 = compiler::compile(bundle.main_program, {});
    std::string t2 = lir::printKernel(k2);
    EXPECT_GE(countOccurrences(t2, "lds.b128 braw"), 1) << t2;
}

// ---------------------------------------------------------------------
// PassManager reporting.
// ---------------------------------------------------------------------

TEST(PassManager, InstrumentedRunReportsPerPassDeltas)
{
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 1;
    auto bundle = kernels::buildMatmul(cfg);
    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    lir::Kernel kernel = compiler::compile(bundle.main_program, o0);

    ir::Env env;
    for (const ir::Var &p : kernel.params)
        env.bind(p, p.name() == "m" ? 16 : 0);

    opt::PassManager pm =
        opt::PassManager::standardPipeline(compiler::OptLevel::O2);
    bool changed = pm.runInstrumented(kernel, env, sim::l40s());
    EXPECT_TRUE(changed);

    const auto &records = pm.records();
    ASSERT_GE(records.size(), 2u);
    EXPECT_EQ(records.front().name, "<input>");
    EXPECT_FALSE(records.front().latency.pipelined);
    EXPECT_TRUE(records.back().latency.pipelined);
    EXPECT_LT(records.back().latency.total_us,
              records.front().latency.total_us);

    // The pipelining pass must have changed the kernel.
    bool pipelined = false;
    for (const auto &record : records)
        if (record.name == "pipeline-cpasync" && record.changed)
            pipelined = true;
    EXPECT_TRUE(pipelined);
}

TEST(PassManager, StandardPipelineLevels)
{
    // O0 is empty; O2 pipelines, double-buffering shared memory.
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 1;
    auto bundle = kernels::buildMatmul(cfg);
    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    lir::Kernel k0 = compiler::compile(bundle.main_program, o0);
    lir::Kernel k2 = compiler::compile(bundle.main_program, {});
    EXPECT_EQ(k2.smem_bytes, 2 * k0.smem_bytes);
}

// ---------------------------------------------------------------------
// End-to-end: optimized kernels still match the reference semantics.
// ---------------------------------------------------------------------

TEST(OptEndToEnd, PipelinedStage1MatmulMatchesReference)
{
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 1;
    runtime::Runtime rt(sim::l40s());
    const int64_t m = 16;
    PackedBuffer a = testing::randomActivations(m * cfg.k, 11);
    PackedBuffer b = testing::randomWeights(cfg.wdtype, cfg.k * cfg.n, 12);
    auto run = testing::runMatmul(rt, cfg, m, a, b, nullptr);
    EXPECT_TRUE(run.stats.overlapped);
    auto want = testing::referenceMatmul(cfg, m, a, b, nullptr);
    EXPECT_LT(testing::maxRelativeError(run.result, want), 2e-2);
}

} // namespace
} // namespace tilus
