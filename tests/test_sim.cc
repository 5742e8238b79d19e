/**
 * @file
 * Simulator semantics tests: genuinely deferred cp.async (a missing wait
 * observably yields stale shared memory), pipelining detection via
 * compute-in-flight marks, Exit/While/Break/Continue/Assign control flow,
 * device memory + OOM accounting + faults outside the capacity, GPU spec
 * tables, and the analytical timing model's structural behaviours
 * (pipelining benefit, occupancy, memory-bound scaling with weight width)
 * plus bit-exact golden estimates.
 */
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "autotune/tuner.h"
#include "compiler/compiler.h"
#include "dtype/cast.h"
#include "kernels/matmul.h"
#include "lang/script.h"
#include "runtime/runtime.h"
#include "sim/gpu_spec.h"
#include "sim/interpreter.h"
#include "sim/timing.h"

namespace tilus {
namespace {

using namespace tilus::ir;

/**
 * Program that stages a tile via cp.async and copies it to the output.
 * When `wait` is false the program omits CopyAsyncWaitGroup: on real
 * hardware (and in this simulator) the loads then observe stale zeros.
 */
ir::Program
makeCpAsyncProgram(bool wait)
{
    lang::Script s(wait ? "cp_wait" : "cp_nowait", 1);
    Var in = s.paramPointer("in", float32());
    Var out = s.paramPointer("out", float32());
    s.setGrid({constInt(1)});
    auto gin = s.viewGlobal(in, float32(), {constInt(64)});
    auto gout = s.viewGlobal(out, float32(), {constInt(64)});
    auto tile = s.allocateShared(float32(), {64});
    s.copyAsync(tile, gin, {constInt(0)});
    s.copyAsyncCommitGroup();
    if (wait) {
        s.copyAsyncWaitGroup(0);
        s.synchronize();
    }
    Layout layout = spatial(32) * local(2);
    auto r = s.loadShared(tile, layout, {constInt(0)});
    s.storeGlobal(r, gout, {constInt(0)});
    return s.finish();
}

TEST(Sim, CpAsyncIsGenuinelyDeferred)
{
    for (bool wait : {true, false}) {
        runtime::Runtime rt(sim::l40s());
        PackedBuffer host(float32(), 64);
        for (int64_t i = 0; i < 64; ++i)
            host.setRaw(i, encodeValue(float32(), double(i + 1)));
        auto din = rt.alloc(float32(), {64});
        auto dout = rt.alloc(float32(), {64});
        rt.upload(din, host);
        ir::Program prog = makeCpAsyncProgram(wait);
        const lir::Kernel &kernel = rt.getOrCompile(prog, {});
        rt.launch(kernel, {{prog.params[0], int64_t(din.ptr)},
                           {prog.params[1], int64_t(dout.ptr)}});
        PackedBuffer got = rt.download(dout);
        if (wait) {
            for (int64_t i = 0; i < 64; ++i)
                ASSERT_EQ(decodeValue(float32(), got.getRaw(i)), i + 1);
        } else {
            // Stale shared memory: all zeros.
            for (int64_t i = 0; i < 64; ++i)
                ASSERT_EQ(decodeValue(float32(), got.getRaw(i)), 0.0);
        }
    }
}

TEST(Sim, ExitStopsTheBlock)
{
    lang::Script s("early_exit", 1);
    Var out = s.paramPointer("out", float32());
    s.setGrid({constInt(1)});
    auto gout = s.viewGlobal(out, float32(), {constInt(32)});
    Layout layout = spatial(32) * local(1);
    auto ones = s.allocateRegister(float32(), layout, 1.0);
    s.storeGlobal(ones, gout, {constInt(0)});
    s.exitBlock();
    auto twos = s.allocateRegister(float32(), layout, 2.0);
    s.storeGlobal(twos, gout, {constInt(0)}); // must never execute
    ir::Program prog = s.finish();

    runtime::Runtime rt(sim::l40s());
    auto dout = rt.alloc(float32(), {32});
    const lir::Kernel &kernel = rt.getOrCompile(prog, {});
    rt.launch(kernel, {{prog.params[0], int64_t(dout.ptr)}});
    PackedBuffer got = rt.download(dout);
    for (int64_t i = 0; i < 32; ++i)
        ASSERT_EQ(decodeValue(float32(), got.getRaw(i)), 1.0);
}

TEST(Sim, WhileLoopWithBreakAndAssign)
{
    // Accumulate 1.0 into a register tensor, n times, via a while loop
    // with an explicit counter; break once the counter reaches `n`.
    lang::Script s("while_loop", 1);
    Var n = s.paramScalar("n");
    Var out = s.paramPointer("out", float32());
    s.setGrid({constInt(1)});
    auto gout = s.viewGlobal(out, float32(), {constInt(32)});
    Layout layout = spatial(32) * local(1);
    auto acc = s.allocateRegister(float32(), layout, 0.0);
    Var i = s.letVar("i", constInt(0));
    s.whileLoop(constInt(1), [&] {
        s.ifThen(Expr(i) >= Expr(n), [&] { s.breakLoop(); });
        // acc = acc + 1
        auto next = s.addScalar(acc, constInt(1));
        // store back in place by reusing the accumulator's storage: add
        // writes a fresh tensor; copy it out at the end instead.
        s.storeGlobal(next, gout, {constInt(0)});
        auto reload = s.loadGlobal(gout, layout, {constInt(0)});
        (void)reload;
        s.assign(i, Expr(i) + 1);
    });
    ir::Program prog = s.finish();
    // This program is mostly a control-flow exercise: verify it lowers
    // and runs; the final output equals 1.0 (the last `next` written).
    runtime::Runtime rt(sim::l40s());
    auto dout = rt.alloc(float32(), {32});
    const lir::Kernel &kernel = rt.getOrCompile(prog, {});
    rt.launch(kernel, {{prog.params[0], 5},
                       {prog.params[1], int64_t(dout.ptr)}});
    PackedBuffer got = rt.download(dout);
    ASSERT_EQ(decodeValue(float32(), got.getRaw(0)), 1.0);
}

TEST(Sim, GhostTraceCountsWithoutDevice)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = uint4();
    cfg.n = 128;
    cfg.k = 128;
    cfg.bm = 16;
    cfg.bn = 64;
    cfg.bk = 32;
    cfg.warp_n = 2;
    cfg.stages = 2;
    auto bundle = kernels::buildMatmul(cfg);
    lir::Kernel kernel = compiler::compile(bundle.main_program);
    ir::Env env;
    for (const Var &p : kernel.params)
        env.bind(p, p.name() == "m" ? 16 : 0);
    sim::SimStats stats = sim::traceOneBlock(kernel, env);
    EXPECT_GT(stats.cp_async_bytes, 0);
    EXPECT_GT(stats.mma_flops, 0);
    EXPECT_GT(stats.cast_vec_elems, 0);
    EXPECT_TRUE(stats.overlapped);
}

TEST(Sim, GpuSpecTables)
{
    EXPECT_EQ(sim::l40s().sm_arch, 89);
    EXPECT_EQ(sim::a100().sm_arch, 80);
    EXPECT_EQ(sim::h100().sm_arch, 90);
    EXPECT_LT(sim::l40s().dram_bytes, sim::a100().dram_bytes);
    EXPECT_GT(sim::h100().fp16_tc_tflops, sim::a100().fp16_tc_tflops);
    EXPECT_TRUE(sim::h100().supportsArch(80));
    EXPECT_FALSE(sim::a100().supportsArch(90));
}

TEST(Sim, DeviceAccounting)
{
    sim::Device device(1024);
    uint64_t a = device.allocate(100);
    uint64_t b = device.allocate(100);
    EXPECT_GE(b, a + 100);
    EXPECT_THROW(device.allocate(4096), OutOfMemoryError);
    uint32_t word = 0xDEADBEEF;
    device.write(a, &word, 4);
    uint32_t back = 0;
    device.read(a, &back, 4);
    EXPECT_EQ(back, word);
    device.writeBits(int64_t(b) * 8 + 3, 5, 0x15);
    EXPECT_EQ(device.readBits(int64_t(b) * 8 + 3, 5), 0x15u);
}

TEST(Sim, DeviceAccessOutsideCapacityThrows)
{
    // The capacity bounds an access, not the allocation mark:
    // opt::runSeeded writes its arenas before reserving them.
    sim::Device device(1024);
    uint32_t word = 0x12345678;
    device.write(1020, &word, 4); // the last four bytes
    uint32_t back = 0;
    device.read(1020, &back, 4);
    EXPECT_EQ(back, word);
    device.writeBits(1024 * 8 - 5, 5, 0x1F);
    EXPECT_EQ(device.readBits(1024 * 8 - 5, 5), 0x1Fu);

    EXPECT_THROW(device.write(1021, &word, 4), SimError);
    EXPECT_THROW(device.read(1024, &back, 1), SimError);
    EXPECT_THROW(device.readBits(1024 * 8 - 4, 5), SimError);
    EXPECT_THROW(device.writeBits(1024 * 8, 1, 1), SimError);
    // Negative addresses, and a size that would wrap the end around.
    EXPECT_THROW(device.read(static_cast<uint64_t>(int64_t(-4)), &back, 4),
                 SimError);
    EXPECT_THROW(device.write(static_cast<uint64_t>(int64_t(-1)), &word, 1),
                 SimError);
    EXPECT_THROW(device.readBits(-1, 1), SimError);
    EXPECT_THROW(device.writeBits(-8, 4, 0), SimError);
    EXPECT_THROW(device.read(8, &back, INT64_MAX), SimError);
    EXPECT_THROW(device.read(0, &back, -1), SimError);
    try {
        device.read(4096, &back, 4);
        ADD_FAILURE() << "no exception";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("illegal memory access"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Timing model structure.
// ---------------------------------------------------------------------

kernels::MatmulConfig
timingConfig(DataType w, int stages)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = w;
    cfg.n = 8192;
    cfg.k = 8192;
    cfg.bm = 16;
    cfg.bn = 128;
    cfg.bk = 64;
    cfg.warp_n = 2;
    cfg.stages = stages;
    return cfg;
}

TEST(Timing, PipeliningReducesLatency)
{
    runtime::Runtime rt(sim::l40s());
    // O0 preserves the synchronous stages == 1 staging loop.
    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    auto unpiped = autotune::estimateConfig(rt, timingConfig(uint4(), 1),
                                            16, o0);
    auto piped = autotune::estimateConfig(rt, timingConfig(uint4(), 2),
                                          16);
    EXPECT_FALSE(unpiped.pipelined);
    EXPECT_TRUE(piped.pipelined);
    EXPECT_LT(piped.total_us, unpiped.total_us);
    // The default O2 pipeline pass double-buffers the stages == 1 loop:
    // pipelined, and faster than its O0 twin.
    auto opt = autotune::estimateConfig(rt, timingConfig(uint4(), 1), 16);
    EXPECT_TRUE(opt.pipelined);
    EXPECT_LT(opt.total_us, unpiped.total_us);
}

TEST(Timing, MemoryBoundLatencyScalesWithWeightWidth)
{
    runtime::Runtime rt(sim::l40s());
    double prev = 0;
    for (DataType w : {uint1(), uint2(), uint4(), uint8(), float16()}) {
        auto est = autotune::estimateConfig(rt, timingConfig(w, 2), 16);
        EXPECT_GT(est.total_us, prev) << w.name();
        prev = est.total_us;
    }
}

TEST(Timing, ExtrapolatedProbeMatchesFullTrace)
{
    // The probe extrapolation must agree with tracing the full kernel.
    runtime::Runtime rt(sim::l40s());
    kernels::MatmulConfig cfg = timingConfig(uint4(), 2);
    cfg.n = 1024;
    cfg.k = 2048; // small enough to trace fully
    auto probe_est = autotune::estimateConfig(rt, cfg, 16);
    const lir::Kernel &kernel =
        rt.getOrCompile(kernels::buildMatmul(cfg).main_program, {});
    ir::Env env;
    for (const Var &p : kernel.params)
        env.bind(p, p.name() == "m" ? 16 : 0);
    auto full_est = sim::estimateLatency(
        kernel, sim::traceOneBlock(kernel, env), env, rt.spec());
    EXPECT_NEAR(probe_est.total_us, full_est.total_us,
                0.05 * full_est.total_us);
}

TEST(Timing, FasterGpuIsFaster)
{
    runtime::Runtime l40s(sim::l40s()), h100(sim::h100());
    auto cfg = timingConfig(uint4(), 2);
    auto slow = autotune::estimateConfig(l40s, cfg, 16);
    auto fast = autotune::estimateConfig(h100, cfg, 16);
    EXPECT_LT(fast.total_us, slow.total_us);
}

TEST(Timing, OccupancyReflectsSharedMemory)
{
    runtime::Runtime rt(sim::l40s());
    kernels::MatmulConfig small = timingConfig(uint4(), 2);
    kernels::MatmulConfig big = timingConfig(uint4(), 4);
    big.bk = 128;
    auto est_small = autotune::estimateConfig(rt, small, 16);
    auto est_big = autotune::estimateConfig(rt, big, 16);
    EXPECT_GT(est_small.occupancy_blocks_per_sm,
              est_big.occupancy_blocks_per_sm);
}

// ---------------------------------------------------------------------
// Golden estimates: every LatencyBreakdown field, bit for bit. The tune
// database persists these bits, so a refactor of the timing model or of
// the probe extrapolation must reproduce them exactly.
// ---------------------------------------------------------------------

/** One pinned estimate (doubles as hex-float literals). Tracing one
    full-depth block and extrapolating autotune's two short probes must
    both reproduce it. */
struct GoldenEstimate
{
    const char *label;
    kernels::MatmulConfig config;
    compiler::OptLevel level;
    sim::LatencyBreakdown expected;
};

std::string
hexFields(const sim::LatencyBreakdown &l)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{%a, %a, %a, %a, %a, %a, %a, %a, %a, %s, %lld, %a}",
                  l.total_us, l.dram_us, l.l2_us, l.tc_us, l.simt_us,
                  l.alu_us, l.smem_us, l.serial_us, l.launch_us,
                  l.pipelined ? "true" : "false",
                  static_cast<long long>(l.blocks),
                  l.occupancy_blocks_per_sm);
    return buf;
}

void
expectSameBits(const sim::LatencyBreakdown &expected,
               const sim::LatencyBreakdown &actual, const std::string &what)
{
    EXPECT_EQ(hexFields(expected), hexFields(actual)) << what;
}

std::vector<GoldenEstimate>
goldenEstimates()
{
    // The bench_profile kernel: stage-1 u4 tensor-core 4096x4096.
    kernels::MatmulConfig s1;
    s1.wdtype = uint4();
    s1.n = 4096;
    s1.k = 4096;
    s1.bm = 16;
    s1.bn = 64;
    s1.bk = 32;
    s1.warp_m = 1;
    s1.warp_n = 2;
    s1.stages = 1;
    kernels::MatmulConfig s2 = s1;
    s2.stages = 2;
    kernels::MatmulConfig f16 = s2;
    f16.wdtype = float16();
    kernels::MatmulConfig simt = s1;
    simt.bm = 2;
    simt.bn = 128;
    simt.simt_warps = 2;
    simt.use_tensor_cores = false;

    using compiler::OptLevel;
    return {
        {"u4 s1 O0", s1, OptLevel::O0,
         {0x1.87943a3e8433ep+6, 0x1.6371185933a7cp+3, 0x1.f75104d551d69p+0,
          0x1.a531090ac4e8cp+2, 0x0p+0, 0x1.de646f1561911p-1,
          0x1.655acdabefdd7p+0, 0x1.28f5c28f5c29p+6, 0x1p+2, false, 64,
          0x1p+4}},
        {"u4 s1 O2", s1, OptLevel::O2,
         {0x1.5fd78d4c1199cp+4, 0x1.6371185933a7cp+3, 0x1.f75104d551d69p+0,
          0x1.a531090ac4e8cp+2, 0x0p+0, 0x1.de646f1561911p-1,
          0x1.655acdabefdd7p+0, 0x1.18f5c28f5c28fp+2, 0x1p+2, true, 64,
          0x1p+4}},
        {"u4 s2 O2", s2, OptLevel::O2,
         {0x1.4b85a1c6f2e17p+4, 0x1.6371185933a7cp+3, 0x1.f75104d551d69p+0,
          0x1.a531090ac4e8cp+2, 0x0p+0, 0x1.de646f1561911p-1,
          0x1.655acdabefdd7p+0, 0x1.8f5c28f5c28f6p+1, 0x1p+2, true, 64,
          0x1p+4}},
        {"f16 s2 O2", f16, OptLevel::O2,
         {0x1.a8439cc741eaap+5, 0x1.5b5d11fa1563ep+5, 0x1.f75104d551d69p+0,
          0x1.a531090ac4e8cp+2, 0x0p+0, 0x1.eb5cdacc69d08p-9,
          0x1.655acdabefdd7p+1, 0x1.8f5c28f5c28f6p+1, 0x1p+2, true, 64,
          0x1.4p+3}},
        {"u4 simt O2", simt, OptLevel::O2,
         {0x1.1a504689e448bp+5, 0x1.4065f1e43cfc2p+3, 0x1.fe4e96ad9da43p+3,
          0x0p+0, 0x1.771b3765f7ae7p+2, 0x1.adb687102a19bp+1,
          0x1.0c6f7a0b5ed8dp+3, 0x1.18f5c28f5c28fp+2, 0x1p+2, true, 256,
          0x1p+4}},
    };
}

TEST(Timing, GoldenEstimatesAreBitExact)
{
    const int64_t m = 16;
    runtime::Runtime rt(sim::l40s());
    for (const GoldenEstimate &golden : goldenEstimates()) {
        ASSERT_TRUE(golden.config.valid()) << golden.label;
        compiler::CompileOptions opts;
        opts.opt_level = golden.level;
        const lir::Kernel &kernel = rt.getOrCompile(
            kernels::buildMatmul(golden.config).main_program, opts);
        ir::Env env;
        for (const Var &p : kernel.params)
            env.bind(p, p.name() == "m" ? m : 0);
        expectSameBits(golden.expected,
                       sim::estimateLatency(kernel,
                                            sim::traceOneBlock(kernel, env),
                                            env, sim::l40s()),
                       std::string(golden.label) + " (traced)");
        expectSameBits(
            golden.expected,
            autotune::estimateConfig(rt, golden.config, m, opts),
            std::string(golden.label) + " (probed)");
    }
}

} // namespace
} // namespace tilus
