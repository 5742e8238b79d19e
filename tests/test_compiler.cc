/**
 * @file
 * Compiler unit tests: memory planning liveness/reuse, lowering and
 * automatic vectorization (inspected through the PTX-like listing),
 * ldmatrix/mma instruction selection, the fast LOP3/PRMT casting
 * sequences against the reference codec, and end-to-end elementwise
 * kernels including bounds predication.
 */
#include <array>
#include <map>
#include <optional>
#include <sstream>

#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "compiler/fast_cast.h"
#include "compiler/memory_planner.h"
#include "dtype/cast.h"
#include "dtype/float_codec.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "lang/script.h"
#include "layout/atoms.h"
#include "runtime/runtime.h"
#include "sim/gpu_spec.h"
#include "support/rng.h"
#include "test_helpers.h"

namespace tilus {
namespace {

using namespace tilus::ir;

// ---------------------------------------------------------------------
// Fast casting sequences (Section 7.2).
// ---------------------------------------------------------------------

TEST(FastCast, PrmtSelectsBytes)
{
    uint32_t a = 0x03020100;
    uint32_t b = 0x67666564;
    EXPECT_EQ(compiler::prmt(a, b, 0x3210u), a);
    EXPECT_EQ(compiler::prmt(a, b, 0x7654u), b);
    EXPECT_EQ(compiler::prmt(a, b, 0x4000u), 0x64000000u | (a & 0xFF));
}

TEST(FastCast, Lop3TruthTables)
{
    uint32_t a = 0xF0F0F0F0, b = 0xCCCCCCCC, c = 0xAAAAAAAA;
    EXPECT_EQ(compiler::lop3(a, b, c, 0x80), a & b & c);
    EXPECT_EQ(compiler::lop3(a, b, c, 0xFE), a | b | c);
    EXPECT_EQ(compiler::lop3(a, b, c, 0xEA), (a & b) | c);
    EXPECT_EQ(compiler::lop3(a, b, c, 0x96), a ^ b ^ c);
}

TEST(FastCast, U4MagicBiasMatchesCodec)
{
    Rng rng(1);
    for (int trial = 0; trial < 64; ++trial) {
        uint32_t packed = static_cast<uint32_t>(rng.next());
        auto out = compiler::castU4x8ToF16x8(packed);
        for (int i = 0; i < 8; ++i) {
            uint32_t word = out[i / 2];
            uint16_t half = static_cast<uint16_t>(
                (i % 2) ? (word >> 16) : word);
            double expected = double((packed >> (4 * i)) & 0xF);
            EXPECT_EQ(f16BitsToFloat(half), expected)
                << "packed=" << std::hex << packed << " elem " << i;
        }
    }
}

TEST(FastCast, I4SignedMatchesCodec)
{
    Rng rng(2);
    for (int trial = 0; trial < 64; ++trial) {
        uint32_t packed = static_cast<uint32_t>(rng.next());
        auto out = compiler::castI4x8ToF16x8(packed);
        for (int i = 0; i < 8; ++i) {
            uint32_t word = out[i / 2];
            uint16_t half = static_cast<uint16_t>(
                (i % 2) ? (word >> 16) : word);
            double expected = static_cast<double>(
                signExtend((packed >> (4 * i)) & 0xF, 4));
            EXPECT_EQ(f16BitsToFloat(half), expected);
        }
    }
}

TEST(FastCast, U8PermuteMatchesCodec)
{
    Rng rng(3);
    for (int trial = 0; trial < 64; ++trial) {
        uint32_t packed = static_cast<uint32_t>(rng.next());
        auto out = compiler::castU8x4ToF16x4(packed);
        for (int i = 0; i < 4; ++i) {
            uint32_t word = out[i / 2];
            uint16_t half = static_cast<uint16_t>(
                (i % 2) ? (word >> 16) : word);
            double expected = double((packed >> (8 * i)) & 0xFF);
            EXPECT_EQ(f16BitsToFloat(half), expected);
        }
    }
}

TEST(FastCast, U2MatchesCodec)
{
    Rng rng(4);
    for (int trial = 0; trial < 64; ++trial) {
        uint32_t packed = static_cast<uint32_t>(rng.next());
        auto out = compiler::castU2x16ToF16x16(packed);
        for (int i = 0; i < 16; ++i) {
            uint32_t word = out[i / 2];
            uint16_t half = static_cast<uint16_t>(
                (i % 2) ? (word >> 16) : word);
            double expected = double((packed >> (2 * i)) & 0x3);
            EXPECT_EQ(f16BitsToFloat(half), expected);
        }
    }
}

// ---------------------------------------------------------------------
// Memory planner.
// ---------------------------------------------------------------------

TEST(MemoryPlanner, DisjointLifetimesShareSpace)
{
    lang::Script s("planner", 1);
    Var p = s.paramPointer("p", tilus::float16());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float16(), {constInt(64)});
    Layout layout = spatial(32) * local(2);
    // t1 used, then dead; t2 allocated afterwards can reuse its space.
    auto t1 = s.allocateShared(tilus::float16(), {64}, "t1");
    auto r1 = s.loadGlobal(g, layout, {constInt(0)});
    s.storeShared(r1, t1, {constInt(0)});
    auto r2 = s.loadShared(t1, layout, {constInt(0)});
    s.storeGlobal(r2, g, {constInt(0)});
    auto t2 = s.allocateShared(tilus::float16(), {64}, "t2");
    auto r3 = s.loadGlobal(g, layout, {constInt(0)});
    s.storeShared(r3, t2, {constInt(0)});
    ir::Program prog = s.finish();

    compiler::MemoryPlan plan = compiler::planSharedMemory(prog);
    EXPECT_EQ(plan.offsets.at(t1->id), plan.offsets.at(t2->id));
    EXPECT_EQ(plan.total_bytes, 128); // one 128B-aligned slot
}

TEST(MemoryPlanner, OverlappingLifetimesAreDisjoint)
{
    lang::Script s("planner2", 1);
    Var p = s.paramPointer("p", tilus::float16());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float16(), {constInt(64)});
    Layout layout = spatial(32) * local(2);
    auto t1 = s.allocateShared(tilus::float16(), {64}, "t1");
    auto t2 = s.allocateShared(tilus::float16(), {64}, "t2");
    auto r1 = s.loadGlobal(g, layout, {constInt(0)});
    s.storeShared(r1, t1, {constInt(0)});
    s.storeShared(r1, t2, {constInt(0)});
    auto r2 = s.loadShared(t1, layout, {constInt(0)});
    s.storeGlobal(r2, g, {constInt(0)});
    ir::Program prog = s.finish();

    compiler::MemoryPlan plan = compiler::planSharedMemory(prog);
    EXPECT_NE(plan.offsets.at(t1->id), plan.offsets.at(t2->id));
    EXPECT_GE(plan.total_bytes, 256);
}

TEST(MemoryPlanner, LoopUsageExtendsLiveness)
{
    // Both buffers are used inside the loop: they must not alias even
    // though their textual first/last uses interleave.
    lang::Script s("planner3", 1);
    Var p = s.paramPointer("p", tilus::float16());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, tilus::float16(), {constInt(64)});
    Layout layout = spatial(32) * local(2);
    auto t1 = s.allocateShared(tilus::float16(), {64}, "t1");
    auto t2 = s.allocateShared(tilus::float16(), {64}, "t2");
    s.forRange(constInt(4), [&](Var) {
        auto r1 = s.loadShared(t1, layout, {constInt(0)});
        s.storeShared(r1, t2, {constInt(0)});
        auto r2 = s.loadShared(t2, layout, {constInt(0)});
        s.storeShared(r2, t1, {constInt(0)});
        (void)g;
    });
    ir::Program prog = s.finish();
    compiler::MemoryPlan plan = compiler::planSharedMemory(prog);
    EXPECT_NE(plan.offsets.at(t1->id), plan.offsets.at(t2->id));
}

// ---------------------------------------------------------------------
// Lowering and instruction selection.
// ---------------------------------------------------------------------

TEST(Lowering, MatmulKernelSelectsExpectedInstructions)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = tilus::uint4();
    cfg.n = 128;
    cfg.k = 128;
    cfg.bm = 16;
    cfg.bn = 64;
    cfg.bk = 32;
    cfg.warp_n = 2;
    cfg.stages = 2;
    auto bundle = kernels::buildMatmul(cfg);
    lir::Kernel kernel = compiler::compile(bundle.main_program);
    std::string text = lir::printKernel(kernel);
    EXPECT_NE(text.find("cp.async.cg.b128"), std::string::npos) << text;
    EXPECT_NE(text.find("cp.async.commit_group"), std::string::npos);
    EXPECT_NE(text.find("cp.async.wait_group 0"), std::string::npos);
    EXPECT_NE(text.find("mma.m16n8k16"), std::string::npos);
    EXPECT_NE(text.find("vcvt"), std::string::npos);
    EXPECT_NE(text.find("bar.sync"), std::string::npos);
    // The transformed path loads weights with wide shared-memory reads.
    EXPECT_NE(text.find("lds.b128"), std::string::npos) << text;
}

TEST(Lowering, VectorizationTogglesWidth)
{
    auto bundle = kernels::buildVectorAdd(1, 4);
    compiler::CompileOptions wide;
    lir::Kernel kernel = compiler::compile(bundle.program, wide);
    std::string text = lir::printKernel(kernel);
    EXPECT_NE(text.find("ldg.b128"), std::string::npos) << text;

    compiler::CompileOptions narrow;
    narrow.enable_vectorize = false;
    lir::Kernel scalar_kernel = compiler::compile(bundle.program, narrow);
    std::string scalar_text = lir::printKernel(scalar_kernel);
    EXPECT_EQ(scalar_text.find("ldg.b128"), std::string::npos)
        << scalar_text;
    EXPECT_NE(scalar_text.find("ldg.b32"), std::string::npos);
}

TEST(Lowering, SmallBatchUsesSimtDot)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = tilus::uint4();
    cfg.n = 128;
    cfg.k = 64;
    cfg.bm = 2;
    cfg.bn = 128;
    cfg.bk = 32;
    cfg.simt_warps = 2;
    cfg.stages = 2;
    cfg.use_tensor_cores = false;
    auto bundle = kernels::buildMatmul(cfg);
    lir::Kernel kernel = compiler::compile(bundle.main_program);
    std::string text = lir::printKernel(kernel);
    EXPECT_NE(text.find("simt.dot"), std::string::npos) << text;
    EXPECT_EQ(text.find("mma."), std::string::npos);
}

TEST(Lowering, WorkspacePlanning)
{
    lang::Script s("ws", 1);
    s.paramPointer("p", tilus::float32());
    s.setGrid({constInt(1)});
    auto g1 = s.allocateGlobal(tilus::float32(), {constInt(100)});
    auto g2 = s.allocateGlobal(tilus::int32(), {constInt(50)});
    Layout layout = spatial(32) * local(4);
    auto r = s.loadGlobal(g1, layout, {constInt(0)});
    s.storeGlobal(r, g1, {constInt(0)});
    (void)g2;
    ir::Program prog = s.finish();
    lir::Kernel kernel = compiler::compile(prog);
    EXPECT_GE(kernel.workspace_bytes, 400 + 200);
}

TEST(Lowering, ElementwiseEndToEnd)
{
    auto bundle = kernels::buildVectorAdd(2, 4);
    runtime::Runtime rt(sim::l40s());
    const int64_t n = 1000; // not a multiple of the tile: predicated tail
    PackedBuffer x(tilus::float32(), n), y(tilus::float32(), n);
    Rng rng(9);
    for (int64_t i = 0; i < n; ++i) {
        x.setRaw(i, encodeValue(tilus::float32(), rng.nextDouble(-5, 5)));
        y.setRaw(i, encodeValue(tilus::float32(), rng.nextDouble(-5, 5)));
    }
    auto dx = rt.alloc(tilus::float32(), {n});
    auto dy = rt.alloc(tilus::float32(), {n});
    auto dz = rt.alloc(tilus::float32(), {n});
    rt.upload(dx, x);
    rt.upload(dy, y);
    const lir::Kernel &kernel = rt.getOrCompile(bundle.program, {});
    rt.launch(kernel, {{bundle.n, n},
                       {bundle.x_ptr, int64_t(dx.ptr)},
                       {bundle.y_ptr, int64_t(dy.ptr)},
                       {bundle.z_ptr, int64_t(dz.ptr)}});
    PackedBuffer z = rt.download(dz);
    for (int64_t i = 0; i < n; ++i) {
        double sum = decodeValue(tilus::float32(), x.getRaw(i)) +
                     decodeValue(tilus::float32(), y.getRaw(i));
        double want = decodeValue(tilus::float32(),
                                  encodeValue(tilus::float32(), sum));
        ASSERT_EQ(decodeValue(tilus::float32(), z.getRaw(i)), want)
            << "i=" << i;
    }
}

TEST(Lowering, AxpyEndToEnd)
{
    auto bundle = kernels::buildAxpy(1, 2);
    runtime::Runtime rt(sim::l40s());
    const int64_t n = 128;
    PackedBuffer x(tilus::float32(), n), y(tilus::float32(), n);
    for (int64_t i = 0; i < n; ++i) {
        x.setRaw(i, encodeValue(tilus::float32(), double(i)));
        y.setRaw(i, encodeValue(tilus::float32(), 1.0));
    }
    auto dx = rt.alloc(tilus::float32(), {n});
    auto dy = rt.alloc(tilus::float32(), {n});
    auto dz = rt.alloc(tilus::float32(), {n});
    rt.upload(dx, x);
    rt.upload(dy, y);
    const lir::Kernel &kernel = rt.getOrCompile(bundle.program, {});
    // alpha is params[1] by construction.
    rt.launch(kernel, {{bundle.n, n},
                       {bundle.program.params[1], 3},
                       {bundle.x_ptr, int64_t(dx.ptr)},
                       {bundle.y_ptr, int64_t(dy.ptr)},
                       {bundle.z_ptr, int64_t(dz.ptr)}});
    PackedBuffer z = rt.download(dz);
    for (int64_t i = 0; i < n; ++i)
        ASSERT_EQ(decodeValue(tilus::float32(), z.getRaw(i)),
                  3.0 * i + 1.0);
}

TEST(Lowering, ArchGateRaisesIllegalInstruction)
{
    auto bundle = kernels::buildVectorAdd(1, 4);
    compiler::CompileOptions opts;
    opts.sm_arch = 95; // beyond every simulated GPU except none
    runtime::Runtime rt(sim::a100());
    const lir::Kernel &kernel = rt.getOrCompile(bundle.program, opts);
    EXPECT_THROW(rt.launch(kernel, {{bundle.n, 128},
                                    {bundle.x_ptr, 0},
                                    {bundle.y_ptr, 0},
                                    {bundle.z_ptr, 0}}),
                 SimError);
}

TEST(Lowering, DeviceOomIsRaised)
{
    runtime::Runtime rt(sim::l40s());
    EXPECT_THROW(rt.alloc(tilus::float16(),
                          {1LL << 20, 1LL << 16}), // 128 GiB
                 OutOfMemoryError);
}

// ---------------------------------------------------------------------
// Layout-driven instruction selection: broadcasts and dots, against the
// brute-force enumeration over every (thread, local) pair as reference.
// ---------------------------------------------------------------------

/** load a, load b, a + b, store: the Binary lowering under test. */
ir::Program
broadcastProgram(const Layout &la, const Layout &lb, int num_warps)
{
    lang::Script s("broadcast", num_warps);
    Var pa = s.paramPointer("pa", tilus::float32());
    Var pb = s.paramPointer("pb", tilus::float32());
    Var pc = s.paramPointer("pc", tilus::float32());
    s.setGrid({constInt(1)});
    auto shape = [](const Layout &l) {
        std::vector<Expr> out;
        for (int64_t e : l.shape())
            out.push_back(constInt(e));
        return out;
    };
    const std::vector<Expr> zero(la.rank(), constInt(0));
    auto a = s.loadGlobal(s.viewGlobal(pa, tilus::float32(), shape(la)), la,
                          zero, "a");
    auto b = s.loadGlobal(s.viewGlobal(pb, tilus::float32(), shape(lb)), lb,
                          zero, "b");
    s.storeGlobal(s.add(a, b),
                  s.viewGlobal(pc, tilus::float32(), shape(la)), zero);
    return s.finish();
}

/** load a, load b, zero c, c += a @ b, store c: the Dot lowering. */
ir::Program
dotProgram(const Layout &la, const Layout &lb, const Layout &lc,
           DataType operand, int num_warps)
{
    lang::Script s("dot", num_warps);
    Var pa = s.paramPointer("pa", operand);
    Var pb = s.paramPointer("pb", operand);
    Var pc = s.paramPointer("pc", tilus::float32());
    s.setGrid({constInt(1)});
    auto view = [&](Var p, DataType dt, const Layout &l) {
        return s.viewGlobal(p, dt,
                            {constInt(l.shape()[0]), constInt(l.shape()[1])});
    };
    const std::vector<Expr> zero = {constInt(0), constInt(0)};
    auto a = s.loadGlobal(view(pa, operand, la), la, zero, "a");
    auto b = s.loadGlobal(view(pb, operand, lb), lb, zero, "b");
    auto c = s.allocateRegister(tilus::float32(), lc, 0.0, "c");
    s.dot(a, b, c);
    s.storeGlobal(c, view(pc, tilus::float32(), lc), zero);
    return s.finish();
}

/**
 * What lowering emitted for the program's Binary/Dot, as a comparable
 * string: slot maps, MAC lists and mma fragment offsets, or the
 * CompileError text.
 */
std::string
loweredSignature(const ir::Program &program)
{
    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    lir::Kernel kernel;
    try {
        kernel = compiler::compile(program, o0);
    } catch (const CompileError &e) {
        return std::string("error:") + e.what();
    }
    std::ostringstream out;
    for (const lir::LNode &node : kernel.body) {
        const auto *op = std::get_if<lir::LOp>(&node.node);
        if (!op)
            continue;
        if (const auto *bin = std::get_if<lir::EltwiseBinary>(op)) {
            out << "map:";
            for (int32_t s : bin->b_slot_map)
                out << s << ",";
        } else if (const auto *mma = std::get_if<lir::MmaTile>(op)) {
            out << "mma" << mma->m << "x" << mma->n << "x" << mma->k << ":"
                << mma->a_base << "," << mma->b_base << "," << mma->c_base
                << "," << mma->d_base << ";";
        } else if (const auto *simt = std::get_if<lir::SimtDot>(op)) {
            out << "simt:";
            for (const auto &mac : simt->macs)
                out << mac[0] << "/" << mac[1] << "/" << mac[2] << ",";
        }
    }
    return out.str();
}

/// @name Reference lowering by enumeration over every (thread, local).
/// @{
std::map<std::vector<int64_t>, int64_t>
referenceSlotMap(const Layout &layout, int64_t thread)
{
    std::map<std::vector<int64_t>, int64_t> map;
    for (int64_t i = 0; i < layout.localsPerThread(); ++i)
        map[layout.logicalIndexOf(thread, i)] = i;
    return map;
}

/** Slot of @p logical in @p thread by linear search, or nullopt. */
std::optional<int64_t>
referenceSlotIn(const Layout &layout, int64_t thread,
                const std::vector<int64_t> &logical)
{
    for (int64_t i = 0; i < layout.localsPerThread(); ++i)
        if (layout.logicalIndexOf(thread, i) == logical)
            return i;
    return std::nullopt;
}

std::string
referenceBroadcast(const Layout &la, const Layout &lb)
{
    std::vector<int32_t> slot_map;
    if (!lb.equivalent(la)) {
        const int64_t locals = la.localsPerThread();
        slot_map.resize(locals);
        for (int64_t t = 0; t < la.numThreads(); ++t) {
            auto bmap = referenceSlotMap(lb, t);
            for (int64_t i = 0; i < locals; ++i) {
                auto idx = la.logicalIndexOf(t, i);
                for (size_t d = 0; d < idx.size(); ++d)
                    if (lb.shape()[d] == 1)
                        idx[d] = 0;
                auto it = bmap.find(idx);
                if (it == bmap.end())
                    return "error:Binary broadcast: thread " +
                           std::to_string(t) +
                           " does not hold the required element of 'b'";
                if (t == 0)
                    slot_map[i] = static_cast<int32_t>(it->second);
                else if (slot_map[i] != it->second)
                    return "error:Binary broadcast: slot mapping is not "
                           "thread-uniform for 'b'";
            }
        }
    }
    std::ostringstream out;
    out << "map:";
    for (int32_t s : slot_map)
        out << s << ",";
    return out.str();
}

std::optional<std::string>
referenceMma(const Layout &la, const Layout &lb, const Layout &lc,
             DataType operand, int num_warps)
{
    if (!(operand == tilus::float16()))
        return std::nullopt;
    struct Candidate
    {
        int m, n, k;
        Layout a, b, c;
    };
    const Candidate candidates[] = {
        {16, 8, 16, atoms::mmaM16N8K16A(), atoms::mmaM16N8K16B(),
         atoms::mmaM16N8K16C()},
        {16, 8, 8, atoms::mmaM16N8K8A(), atoms::mmaM16N8K8B(),
         atoms::mmaM16N8K8C()},
    };
    for (const Candidate &cand : candidates) {
        auto qa = la.dividedBy(cand.a);
        auto qb = lb.dividedBy(cand.b);
        auto qc = lc.dividedBy(cand.c);
        if (!qa || !qb || !qc || qc->numThreads() != num_warps ||
            qa->numThreads() != num_warps || qb->numThreads() != num_warps)
            continue;
        const int64_t frags = qc->localsPerThread();
        const int64_t k_tiles = la.shape()[1] / cand.k;
        std::vector<int64_t> a_slot(frags * k_tiles), b_slot(frags * k_tiles);
        bool ok = true;
        for (int w = 0; w < num_warps && ok; ++w) {
            for (int64_t f = 0; f < frags && ok; ++f) {
                auto cm = qc->logicalIndexOf(w, f);
                for (int64_t kt = 0; kt < k_tiles && ok; ++kt) {
                    auto sa = referenceSlotIn(*qa, w, {cm[0], kt});
                    auto sb = referenceSlotIn(*qb, w, {kt, cm[1]});
                    const int64_t at = f * k_tiles + kt;
                    ok = sa && sb &&
                         (w == 0 || (a_slot[at] == *sa && b_slot[at] == *sb));
                    if (ok && w == 0) {
                        a_slot[at] = *sa;
                        b_slot[at] = *sb;
                    }
                }
            }
        }
        if (!ok)
            continue;
        std::ostringstream out;
        const int64_t c_locals = cand.c.localsPerThread();
        for (int64_t f = 0; f < frags; ++f) {
            for (int64_t kt = 0; kt < k_tiles; ++kt) {
                out << "mma" << cand.m << "x" << cand.n << "x" << cand.k
                    << ":" << a_slot[f * k_tiles + kt] * cand.a.localsPerThread()
                    << "," << b_slot[f * k_tiles + kt] * cand.b.localsPerThread()
                    << "," << f * c_locals << "," << f * c_locals << ";";
            }
        }
        return out.str();
    }
    return std::nullopt;
}

std::string
referenceDot(const Layout &la, const Layout &lb, const Layout &lc,
             DataType operand, int num_warps)
{
    if (auto mma = referenceMma(la, lb, lc, operand, num_warps))
        return *mma;
    const int64_t k_extent = la.shape()[1];
    std::vector<std::array<int32_t, 3>> macs;
    bool ok = true;
    for (int64_t t = 0; t < lc.numThreads() && ok; ++t) {
        auto amap = referenceSlotMap(la, t);
        auto bmap = referenceSlotMap(lb, t);
        size_t cursor = 0;
        for (int64_t i = 0; i < lc.localsPerThread() && ok; ++i) {
            auto cm = lc.logicalIndexOf(t, i);
            for (int64_t k = 0; k < k_extent && ok; ++k) {
                auto ai = amap.find({cm[0], k});
                auto bi = bmap.find({k, cm[1]});
                if (ai == amap.end() || bi == bmap.end()) {
                    ok = false;
                    break;
                }
                std::array<int32_t, 3> mac = {
                    static_cast<int32_t>(i), static_cast<int32_t>(ai->second),
                    static_cast<int32_t>(bi->second)};
                if (t == 0)
                    macs.push_back(mac);
                else
                    ok = macs[cursor] == mac;
                ++cursor;
            }
        }
    }
    if (!ok)
        return "error:Dot: operand layouts fit neither the tensor-core atoms "
               "nor a thread-local SIMT schedule (a=" +
               la.toString() + ", b=" + lb.toString() + ")";
    std::ostringstream out;
    out << "simt:";
    for (const auto &mac : macs)
        out << mac[0] << "/" << mac[1] << "/" << mac[2] << ",";
    return out.str();
}
/// @}

/**
 * @p layout with the dims marked in @p drop reduced to extent 1: their
 * spatial modes become replica modes and their local modes disappear,
 * so every thread keeps its position in the remaining dims.
 */
Layout
projectDims(const Layout &layout, const std::vector<bool> &drop)
{
    std::vector<int64_t> shape = layout.shape(), mode_shape;
    std::vector<int> mode_dim, renumber(layout.modeShape().size(), -1);
    std::vector<int> spatial, local;
    for (const int m : layout.localModes())
        renumber[m] = -2; // local: kept only when its dim survives
    for (size_t m = 0; m < layout.modeShape().size(); ++m) {
        int d = layout.modeDim()[m];
        const bool gone = d >= 0 && drop[d];
        if (gone && renumber[m] == -2)
            continue;
        renumber[m] = static_cast<int>(mode_shape.size());
        mode_shape.push_back(layout.modeShape()[m]);
        mode_dim.push_back(gone ? -1 : d);
    }
    for (int m : layout.spatialModes())
        spatial.push_back(renumber[m]);
    for (int m : layout.localModes())
        if (renumber[m] >= 0)
            local.push_back(renumber[m]);
    for (size_t d = 0; d < shape.size(); ++d)
        if (drop[d])
            shape[d] = 1;
    return Layout::make(shape, mode_shape, mode_dim, spatial, local);
}

/**
 * A random perturbation of a (valid) partner layout: 0 keeps it, 1
 * shuffles its local order (still valid, another slot program), 2
 * shuffles its spatial order (a thread may lose its element), 3 turns a
 * spatial mode into a local mode plus a replica of the same size (every
 * element stays resident, but at a thread-dependent slot).
 */
Layout
perturb(Rng &rng, const Layout &layout, int how)
{
    std::vector<int64_t> mode_shape = layout.modeShape();
    std::vector<int> mode_dim = layout.modeDim();
    std::vector<int> spatial = layout.spatialModes();
    std::vector<int> local = layout.localModes();
    auto shuffle = [&](std::vector<int> &order) {
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.nextBelow(i)]);
    };
    if (how == 1) {
        shuffle(local);
    } else if (how == 2) {
        shuffle(spatial);
    } else if (how == 3) {
        std::vector<size_t> movable;
        for (size_t p = 0; p < spatial.size(); ++p)
            if (mode_dim[spatial[p]] >= 0 && mode_shape[spatial[p]] > 1)
                movable.push_back(p);
        if (!movable.empty()) {
            const size_t p = movable[rng.nextBelow(movable.size())];
            const int m = spatial[p];
            local.insert(local.begin() + rng.nextBelow(local.size() + 1), m);
            spatial[p] = static_cast<int>(mode_shape.size());
            mode_shape.push_back(mode_shape[m]);
            mode_dim.push_back(-1);
        }
    }
    return Layout::make(layout.shape(), mode_shape, mode_dim, spatial, local);
}

/** @p layout spread over @p threads with a replica factor on a random
    side; nullopt when its thread count does not divide @p threads. */
std::optional<Layout>
padThreads(Rng &rng, const Layout &layout, int64_t threads)
{
    if (threads % layout.numThreads() != 0)
        return std::nullopt;
    const int64_t copies = threads / layout.numThreads();
    if (copies == 1)
        return layout;
    Layout rep = replicaSpatial(layout.rank(), copies);
    return rng.nextBelow(2) ? layout * rep : rep * layout;
}

TEST(Lowering, BroadcastRejectsMissingElement)
{
    // b's rows ravel as t % 8, a's as t / 4: thread 1 needs row 0 but
    // holds row 1.
    ir::Program prog = broadcastProgram(
        spatial(8, 4), replicaSpatial(2, 4) * spatial(8, 1), 1);
    EXPECT_EQ(loweredSignature(prog),
              "error:Binary broadcast: thread 1 does not hold the required "
              "element of 'b'");
}

TEST(Lowering, BroadcastRejectsThreadDependentSlot)
{
    // Threads 2r and 2r+1 both hold rows 2r and 2r+1 of b, but thread
    // 2r needs slot 0 and thread 2r+1 slot 1.
    ir::Program prog = broadcastProgram(
        spatial(32, 1) * local(1, 4),
        spatial(16, 1) * replicaSpatial(2, 2) * local(2, 1), 1);
    EXPECT_EQ(loweredSignature(prog),
              "error:Binary broadcast: slot mapping is not thread-uniform "
              "for 'b'");
}

TEST(Lowering, DotRejectsLayoutsFittingNeitherPath)
{
    // Each row of a is split across two threads: no thread holds a full
    // row, and the fragments match no mma atom.
    Layout la = spatial(16, 2) * local(1, 8);
    Layout lb = spatial(4, 8) * local(4, 1);
    ir::Program prog = dotProgram(la, lb, spatial(8, 4) * local(2, 2),
                                  tilus::float16(), 1);
    EXPECT_EQ(loweredSignature(prog),
              "error:Dot: operand layouts fit neither the tensor-core atoms "
              "nor a thread-local SIMT schedule (a=" +
                  la.toString() + ", b=" + lb.toString() + ")");
}

TEST(LoweringProperty, BroadcastMatchesEnumeration)
{
    Rng rng(1101);
    std::map<std::string, int> outcomes;
    for (int trial = 0; trial < 200; ++trial) {
        auto la = padThreads(rng, testing::randomUnified(rng, 2), 32);
        if (!la)
            continue;
        std::vector<bool> drop = {rng.nextBelow(2) == 0,
                                  rng.nextBelow(2) == 0};
        Layout lb = perturb(rng, projectDims(*la, drop),
                            static_cast<int>(rng.nextBelow(4)));
        const std::string want = referenceBroadcast(*la, lb);
        ASSERT_EQ(loweredSignature(broadcastProgram(*la, lb, 1)), want)
            << "a=" << la->unifiedString() << " b=" << lb.unifiedString();
        ++outcomes[want.rfind("map:", 0) == 0          ? "slot map"
                   : want.find("does not hold") != std::string::npos
                       ? "not held"
                       : "not uniform"];
    }
    // Every outcome is exercised: slot maps and both rejections.
    EXPECT_GE(outcomes.size(), 3u);
    for (const auto &[outcome, count] : outcomes)
        EXPECT_GE(count, 5) << outcome;
}

TEST(LoweringProperty, SimtDotMatchesEnumeration)
{
    Rng rng(1202);
    int simt = 0, rejected = 0;
    for (int trial = 0; trial < 150; ++trial) {
        auto lc = padThreads(rng, testing::randomUnified(rng, 2), 32);
        if (!lc)
            continue;
        const int64_t k = rng.nextRange(1, 4);
        Layout la = perturb(rng, projectDims(*lc, {false, true}) * local(1, k),
                            static_cast<int>(rng.nextBelow(4)));
        Layout lb = perturb(rng, local(k, 1) * projectDims(*lc, {true, false}),
                            static_cast<int>(rng.nextBelow(4)));
        const DataType operand =
            rng.nextBelow(2) ? tilus::float16() : tilus::float32();
        const std::string want = referenceDot(la, lb, *lc, operand, 1);
        ASSERT_EQ(loweredSignature(dotProgram(la, lb, *lc, operand, 1)), want)
            << "a=" << la.unifiedString() << " b=" << lb.unifiedString()
            << " c=" << lc->unifiedString();
        (want.rfind("simt:", 0) == 0 ? simt : rejected) += 1;
    }
    EXPECT_GE(simt, 20);
    EXPECT_GE(rejected, 20);
}

TEST(LoweringProperty, MmaDotMatchesEnumeration)
{
    Rng rng(1303);
    int mma = 0, other = 0;
    for (int trial = 0; trial < 60; ++trial) {
        const int64_t wm = rng.nextRange(1, 2), wn = rng.nextRange(1, 2);
        const int64_t rm = rng.nextRange(1, 2), rn = rng.nextRange(1, 2);
        const int64_t rk = rng.nextRange(1, 2);
        const bool k16 = rng.nextBelow(2) == 0;
        Layout atom_a = k16 ? atoms::mmaM16N8K16A() : atoms::mmaM16N8K8A();
        Layout atom_b = k16 ? atoms::mmaM16N8K16B() : atoms::mmaM16N8K8B();
        // The operand layouts of kernels/matmul.cc, each tile's local
        // order and the replica's side drawn at random.
        auto tiles = [&](int64_t r0, int64_t r1) {
            return rng.nextBelow(2) ? local(r0, r1) : columnLocal(r0, r1);
        };
        Layout lc = spatial(wm, wn) * tiles(rm, rn) * atoms::mmaM16N8K16C();
        Layout rep_a = replicaSpatial(2, wn), rep_b = replicaSpatial(2, wm);
        Layout la = (rng.nextBelow(4) ? spatial(wm, 1) * rep_a
                                      : rep_a * spatial(wm, 1)) *
                    tiles(rm, rk) * atom_a;
        Layout lb = (rng.nextBelow(4) ? rep_b * spatial(1, wn)
                                      : spatial(1, wn) * rep_b) *
                    tiles(rk, rn) * atom_b;
        const int warps = static_cast<int>(wm * wn);
        const std::string want =
            referenceDot(la, lb, lc, tilus::float16(), warps);
        ASSERT_EQ(loweredSignature(
                      dotProgram(la, lb, lc, tilus::float16(), warps)),
                  want)
            << "a=" << la.toString() << " b=" << lb.toString()
            << " c=" << lc.toString();
        (want.rfind("mma", 0) == 0 ? mma : other) += 1;
    }
    EXPECT_GE(mma, 20);
    EXPECT_GE(other, 5);
}

} // namespace
} // namespace tilus
