/**
 * @file
 * Micro-op engine tests: the engine-vs-engine differential oracle over
 * the kernel suite (the pre-decoded engine must be byte-identical to
 * the tree-walk interpreter on identically seeded devices), decode-time
 * expression classification (affine / tabulated / generic, including a
 * deliberately non-affine address that pins the per-thread fallback
 * path), functional statistics parity, decode accounting (sim::run
 * decodes once per functional run), whole-kernel decode fallback, and
 * the satellite fast paths (dense ir::Env, byte-aligned packing).
 */
#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "dtype/packing.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "lang/script.h"
#include "obs/metrics.h"
#include "opt/oracle.h"
#include "runtime/runtime.h"
#include "sim/interpreter.h"
#include "sim/microop.h"
#include "test_helpers.h"

namespace tilus {
namespace {

using namespace tilus::ir;

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

/** Run one program's kernel under both engines and compare all DRAM. */
void
expectEnginesIdentical(const ir::Program &program, uint64_t seed,
                       compiler::OptLevel opt_level = compiler::OptLevel::O2)
{
    compiler::CompileOptions options;
    options.opt_level = opt_level;
    lir::Kernel kernel = compiler::compile(program, options);
    opt::OracleConfig config;
    config.seed = seed;
    config.scalars = {{"m", 16}, {"n", 512}};
    opt::OracleReport report = opt::diffEngines(kernel, config);
    EXPECT_TRUE(report.identical)
        << program.name << ": " << report.detail << "\n"
        << report.listing_opt;
    EXPECT_TRUE(report.stats_opt.used_microops) << program.name;
    EXPECT_FALSE(report.stats_ref.used_microops) << program.name;
}

// ---------------------------------------------------------------------
// Differential suite: micro-op engine vs tree walk, whole-DRAM compare.
// ---------------------------------------------------------------------

TEST(MicroOpDiff, MatmulSuiteBitIdentical)
{
    uint64_t seed = 900;
    for (compiler::OptLevel level :
         {compiler::OptLevel::O0, compiler::OptLevel::O2}) {
        for (int stages : {1, 2}) {
            auto cfg = baseConfig(tilus::uint4());
            cfg.stages = stages;
            expectEnginesIdentical(
                kernels::buildMatmul(cfg).main_program, seed++, level);
        }
        {
            auto cfg = baseConfig(tilus::float16());
            cfg.stages = 1;
            expectEnginesIdentical(
                kernels::buildMatmul(cfg).main_program, seed++, level);
        }
    }
}

TEST(MicroOpDiff, GroupedScalesAndUntransformed)
{
    {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = 1;
        cfg.group_size = 64;
        expectEnginesIdentical(kernels::buildMatmul(cfg).main_program,
                               920);
    }
    {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = 1;
        cfg.transform_weights = false; // LoadGlobalBits sub-byte path
        expectEnginesIdentical(kernels::buildMatmul(cfg).main_program,
                               921);
    }
    {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = 1;
        cfg.convert_via_smem = true;
        expectEnginesIdentical(kernels::buildMatmul(cfg).main_program,
                               922);
    }
}

TEST(MicroOpDiff, SimtDecodePath)
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
    expectEnginesIdentical(kernels::buildMatmul(cfg).main_program, 930);
}

TEST(MicroOpDiff, ElementwiseAndTransform)
{
    expectEnginesIdentical(kernels::buildVectorAdd(2, 4).program, 940);
    expectEnginesIdentical(kernels::buildAxpy(1, 2).program, 941);
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 2;
    auto bundle = kernels::buildMatmul(cfg);
    ASSERT_TRUE(bundle.transform_program.has_value());
    expectEnginesIdentical(*bundle.transform_program, 942);
}

// ---------------------------------------------------------------------
// Expression classification: the tid-affine fast path and its
// fallbacks.
// ---------------------------------------------------------------------

TEST(MicroOpDecode, MatmulKernelsDecodeWithoutFallback)
{
    for (int stages : {1, 2}) {
        auto cfg = baseConfig(tilus::uint4());
        cfg.stages = stages;
        lir::Kernel kernel = compiler::compile(
            kernels::buildMatmul(cfg).main_program, {});
        sim::MicroProgram program = sim::compileMicroProgram(kernel);
        ASSERT_TRUE(program.ok()) << program.failureReason();
        // The swizzled layouts decode into the fast classes; a few
        // residual generic expressions are fine, a majority is not.
        EXPECT_GT(program.numAffineExprs() + program.numTabulatedExprs(),
                  program.numGenericExprs());
    }
}

TEST(MicroOpDecode, NonAffineAddressTakesGenericPath)
{
    // (tid / 4) * n with a *runtime* n is neither affine in tid nor
    // separable into base + f(tid) at decode time: the engine must keep
    // the per-thread slot-program fallback and still match the tree
    // walk byte for byte.
    lang::Script s("nonaffine", 1);
    Var n = s.paramScalar("n");
    Var p = s.paramPointer("p", tilus::float32());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float32(), {Expr(n), Expr(n)});
    Layout layout = spatial(8, 4);
    auto r = s.loadGlobal(g, layout, {constInt(0), constInt(0)}, "r");
    s.storeGlobal(r, g, {constInt(8), constInt(0)});
    ir::Program prog = s.finish();

    lir::Kernel kernel = compiler::compile(prog, {});
    sim::MicroProgram program = sim::compileMicroProgram(kernel);
    ASSERT_TRUE(program.ok()) << program.failureReason();
    EXPECT_GT(program.numGenericExprs(), 0) << lir::printKernel(kernel);

    opt::OracleConfig config;
    config.scalars = {{"n", 32}};
    opt::OracleReport report = opt::diffEngines(kernel, config);
    EXPECT_TRUE(report.identical) << report.detail;
    EXPECT_TRUE(report.stats_opt.used_microops);
}

TEST(MicroOpDiff, LoopVariableReadAfterLoop)
{
    // The tree walk leaves a for-loop variable bound to its last
    // iteration value (extent - 1); the flattened loop must match, not
    // leak its exit counter. An address derived from the variable
    // *after* the loop pins this byte-for-byte.
    lang::Script s("loopvar_after", 1);
    Var p = s.paramPointer("p", tilus::float32());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float32(), {constInt(1024)});
    Layout layout = spatial(32) * local(2);
    Var captured;
    s.forRange(constInt(4), [&](Var i) {
        captured = i;
        auto r = s.loadGlobal(g, layout, {Expr(i) * 64}, "r");
        s.storeGlobal(r, g, {Expr(i) * 64 + 256});
    });
    // The loop variable reads 3 (not 4, the exit counter) here; a
    // diverging value shifts this store by 64 elements.
    auto r2 = s.loadGlobal(g, layout, {Expr(captured) * 64}, "r2");
    s.storeGlobal(r2, g, {Expr(captured) * 64 + 512});
    ir::Program prog = s.finish();

    lir::Kernel kernel = compiler::compile(prog, {});
    opt::OracleReport report = opt::diffEngines(kernel, {});
    EXPECT_TRUE(report.identical) << report.detail;
    EXPECT_TRUE(report.stats_opt.used_microops);
}

TEST(MicroOpDecode, AffineDecomposition)
{
    Var t = Var::make("t");
    Var u = Var::make("u");
    Expr base, stride;
    // (u + t*4) + 8 -> base u + 8, stride 4.
    Expr e = (Expr(u) + Expr(t) * 4) + 8;
    ASSERT_TRUE(ir::decomposeAffine(e, t.id(), &base, &stride));
    ir::Env env;
    env.bind(u, 100);
    EXPECT_EQ(ir::evalInt(base, env), 108);
    EXPECT_EQ(ir::evalInt(stride, env), 4);
    // t/4 is not affine in t.
    EXPECT_FALSE(
        ir::decomposeAffine(Expr(t) / 4, t.id(), &base, &stride));
    // t*t is quadratic.
    EXPECT_FALSE(
        ir::decomposeAffine(Expr(t) * Expr(t), t.id(), &base, &stride));
    // u*8 is affine with stride 0.
    ASSERT_TRUE(ir::decomposeAffine(Expr(u) * 8, t.id(), &base, &stride));
    EXPECT_EQ(ir::evalInt(stride, env), 0);
}

// ---------------------------------------------------------------------
// Functional statistics parity: both engines must count identically.
// ---------------------------------------------------------------------

void
expectStatsEqual(const sim::SimStats &a, const sim::SimStats &b)
{
    EXPECT_EQ(a.global_load_bytes, b.global_load_bytes);
    EXPECT_EQ(a.global_store_bytes, b.global_store_bytes);
    EXPECT_EQ(a.cp_async_bytes, b.cp_async_bytes);
    EXPECT_EQ(a.global_sectors, b.global_sectors);
    EXPECT_EQ(a.ldg_ops, b.ldg_ops);
    EXPECT_EQ(a.stg_ops, b.stg_ops);
    EXPECT_EQ(a.bit_extract_ops, b.bit_extract_ops);
    EXPECT_EQ(a.load_bytes_by_global, b.load_bytes_by_global);
    EXPECT_EQ(a.store_bytes_by_global, b.store_bytes_by_global);
    EXPECT_EQ(a.smem_load_bytes, b.smem_load_bytes);
    EXPECT_EQ(a.smem_store_bytes, b.smem_store_bytes);
    EXPECT_EQ(a.lds_ops, b.lds_ops);
    EXPECT_EQ(a.sts_ops, b.sts_ops);
    EXPECT_EQ(a.ldmatrix_ops, b.ldmatrix_ops);
    EXPECT_EQ(a.mma_ops, b.mma_ops);
    EXPECT_EQ(a.mma_flops, b.mma_flops);
    EXPECT_EQ(a.simt_fma, b.simt_fma);
    EXPECT_EQ(a.alu_elt_ops, b.alu_elt_ops);
    EXPECT_EQ(a.cast_vec_elems, b.cast_vec_elems);
    EXPECT_EQ(a.cast_scalar_elems, b.cast_scalar_elems);
    EXPECT_EQ(a.bar_syncs, b.bar_syncs);
    EXPECT_EQ(a.cp_commits, b.cp_commits);
    EXPECT_EQ(a.max_groups_in_flight, b.max_groups_in_flight);
    EXPECT_EQ(a.overlapped, b.overlapped);
}

TEST(MicroOpStats, FunctionalRunParity)
{
    auto cfg = baseConfig(tilus::uint4());
    cfg.stages = 1;
    lir::Kernel kernel =
        compiler::compile(kernels::buildMatmul(cfg).main_program, {});
    opt::OracleConfig config;
    config.scalars = {{"m", 16}};
    opt::OracleReport report = opt::diffEngines(kernel, config);
    ASSERT_TRUE(report.identical) << report.detail;
    expectStatsEqual(report.stats_ref, report.stats_opt);
}

// ---------------------------------------------------------------------
// An undecodable kernel is an error, not a fallback.
// ---------------------------------------------------------------------

/** A kernel the decoder refuses (break outside any loop) but the tree
    walk executes as a no-op block. */
lir::Kernel
undecodableKernel()
{
    lir::Kernel kernel;
    kernel.name = "undecodable";
    kernel.block_threads = 32;
    kernel.grid = {constInt(1)};
    kernel.body.push_back(lir::LNode{lir::LBreak{}});
    return kernel;
}

TEST(MicroOpFallback, UndecodableKernelThrowsUnderDefaultOptions)
{
    lir::Kernel kernel = undecodableKernel();
    sim::MicroProgram program = sim::compileMicroProgram(kernel);
    ASSERT_FALSE(program.ok());
    ASSERT_FALSE(program.failureReason().empty());

    // Default RunOptions run functional launches on micro-ops: the
    // launch throws, and its message carries the decoder's reason.
    sim::RunOptions options;
    options.enable_print = false;
    try {
        sim::run(kernel, {}, nullptr, options);
        FAIL() << "an undecodable kernel ran";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find(program.failureReason()),
                  std::string::npos)
            << e.what();
    }

    // Only an explicit request runs it on the tree walk.
    options.engine = sim::Engine::kTreeWalk;
    EXPECT_FALSE(sim::run(kernel, {}, nullptr, options).used_microops);
}

// ---------------------------------------------------------------------
// Decode accounting: sim::run decodes, once per functional run.
// ---------------------------------------------------------------------

TEST(MicroOpDecode, SimRunDecodesOncePerFunctionalRun)
{
    obs::Counter &decodes =
        obs::Registry::instance().counter("sim_microop_decodes_total");
    auto cfg = baseConfig(tilus::uint4());
    cfg.transform_weights = false; // one kernel launch per matmul
    const lir::Kernel kernel =
        compiler::compile(kernels::buildMatmul(cfg).main_program, {});
    opt::OracleConfig config;
    config.scalars = {{"m", 16}};

    int64_t before = decodes.value();
    sim::Device micro_dev(config.device_bytes);
    EXPECT_TRUE(opt::runSeeded(kernel, config, micro_dev).used_microops);
    EXPECT_EQ(decodes.value() - before, 1);

    // The tree walk and ghost traces decode nothing.
    before = decodes.value();
    sim::Device tree_dev(config.device_bytes);
    EXPECT_FALSE(opt::runSeeded(kernel, config, tree_dev,
                                sim::Engine::kTreeWalk)
                     .used_microops);
    ir::Env env;
    for (const ir::Var &p : kernel.params)
        env.bind(p, p.name() == "m" ? 16 : 0);
    sim::traceOneBlock(kernel, env);
    EXPECT_EQ(decodes.value(), before);

    // The runtime keeps no decoded program: two launches of one cached
    // kernel decode twice, and each still runs on micro-ops.
    runtime::Runtime rt(sim::l40s());
    const int64_t m = 4;
    PackedBuffer a = testing::randomActivations(m * cfg.k, 31);
    PackedBuffer b = testing::randomWeights(cfg.wdtype, cfg.k * cfg.n, 32);
    auto want = testing::referenceMatmul(cfg, m, a, b, nullptr);
    before = decodes.value();
    for (int launch = 0; launch < 2; ++launch) {
        auto run = testing::runMatmul(rt, cfg, m, a, b, nullptr);
        EXPECT_TRUE(run.stats.used_microops);
        EXPECT_LT(testing::maxRelativeError(run.result, want), 2e-2);
    }
    EXPECT_EQ(rt.compileCount() + rt.diskLoadCount(), 1);
    EXPECT_EQ(decodes.value() - before, 2);
}

// ---------------------------------------------------------------------
// Satellite fast paths: dense Env, byte-aligned packing.
// ---------------------------------------------------------------------

TEST(MicroOpSatellites, EnvDenseAndSparseIds)
{
    ir::Env env;
    // Dense window anchored at the first bound id.
    env.bind(1000, 7);
    env.bind(1001, 8);
    // Below the anchor and far past the window: linear-scan store.
    env.bind(3, 1);
    env.bind(1000 + (1 << 20), 2);
    env.bind(-5, 3);
    int64_t out = 0;
    EXPECT_TRUE(env.lookup(1000, out));
    EXPECT_EQ(out, 7);
    EXPECT_TRUE(env.lookup(1001, out));
    EXPECT_EQ(out, 8);
    EXPECT_TRUE(env.lookup(3, out));
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(env.lookup(1000 + (1 << 20), out));
    EXPECT_EQ(out, 2);
    EXPECT_TRUE(env.lookup(-5, out));
    EXPECT_EQ(out, 3);
    EXPECT_FALSE(env.lookup(1002, out));
    EXPECT_FALSE(env.lookup(4, out));
    // Rebinding updates in place for both stores.
    env.bind(1000, 70);
    env.bind(3, 10);
    EXPECT_TRUE(env.lookup(1000, out));
    EXPECT_EQ(out, 70);
    EXPECT_TRUE(env.lookup(3, out));
    EXPECT_EQ(out, 10);
}

TEST(MicroOpSatellites, PackingFastPathsMatchSlowPath)
{
    // Byte-aligned widths and sub-byte single-byte reads must agree
    // with the generic bit loop on every offset.
    std::vector<uint8_t> buf(64);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<uint8_t>(0x5A + i * 37);
    for (int width : {4, 8, 16, 24, 32, 64}) {
        for (int64_t offset = 0; offset + width <= 256; offset += width) {
            EXPECT_EQ(getBits(buf.data(), offset, width),
                      getBitsSlow(buf.data(), offset, width))
                << "width " << width << " offset " << offset;
        }
    }
    std::vector<uint8_t> a(64, 0xCC), b(64, 0xCC);
    for (int width : {4, 8, 16, 32, 64}) {
        for (int64_t offset = 0; offset + width <= 256; offset += width) {
            uint64_t value = 0x0123456789ABCDEFull >> (64 - width);
            setBits(a.data(), offset, width, value);
            setBitsSlow(b.data(), offset, width, value);
        }
        EXPECT_EQ(a, b) << "width " << width;
    }
}

} // namespace
} // namespace tilus
