/**
 * @file
 * Golden-text tests for lir::printKernel. Pass authors compare the
 * listings the differential oracle reports (OracleReport::listing_ref
 * and listing_opt) to understand what a transform did, and the pass
 * pipeline's trace span hashes the listing, so the statement formatting
 * must be stable: any change to the renderer shows up here as an
 * exact-string mismatch and has to be deliberate.
 */
#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "lang/script.h"
#include "layout/layout.h"
#include "lir/lir.h"

namespace tilus {
namespace {

using namespace tilus::ir;

TEST(LirPrint, GoldenCompiledElementwiseKernel)
{
    lang::Script s("golden_add", 1);
    Var n = s.paramScalar("n", tilus::int32());
    Var x = s.paramPointer("x", tilus::float32());
    Var z = s.paramPointer("z", tilus::float32());
    s.setGrid({(Expr(n) + 63) / 64});
    auto idx = s.blockIndices();
    Var b = idx[0];
    auto gx = s.viewGlobal(x, tilus::float32(), {Expr(n)}, "gx");
    auto gz = s.viewGlobal(z, tilus::float32(), {Expr(n)}, "gz");
    Layout layout = spatial(32) * local(2);
    auto r = s.loadGlobal(gx, layout, {Expr(b) * 64}, "r");
    auto r2 = s.addScalar(r, constFloat(1.0), "r2");
    s.storeGlobal(r2, gz, {Expr(b) * 64});
    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    lir::Kernel kernel = s.compile(o0);

    const std::string golden =
        "// kernel golden_add  threads=32  smem=0B workspace=0B\n"
        "//   tensor r: f32 storage=0 (64b/thread) "
        "layout=spatial(32).local(2)\n"
        "//   tensor r2: f32 storage=1 (64b/thread) "
        "layout=spatial(32).local(2)\n"
        "ldg.b64 r+0, [(((x * 8) + (((bi * 64) + (tid * 2)) * 32)) / 8)]"
        " @((((bi * 64) + (tid * 2)) + 2) <= n)\n"
        "elt.scalar op0 r2, r, 1\n"
        "stg.b64 [(((z * 8) + (((bi * 64) + (tid * 2)) * 32)) / 8)], "
        "r2+0 @((((bi * 64) + (tid * 2)) + 2) <= n)\n";
    EXPECT_EQ(lir::printKernel(kernel), golden);
}

/** Handwritten kernel exercising every statement/op renderer branch. */
lir::Kernel
makeZooKernel()
{
    lir::Kernel kernel;
    kernel.name = "zoo";
    kernel.block_threads = 32;
    kernel.smem_bytes = 256;
    kernel.workspace_bytes = 64;
    kernel.num_storages = 2;
    kernel.grid = {constInt(1)};

    Layout layout = spatial(32) * local(4);
    lir::TensorDecl t0{0, "t0", tilus::float16(), layout, 0, 64};
    lir::TensorDecl t1{1, "t1", tilus::float16(), layout, 1, 64};
    kernel.tensors = {t0, t1};

    Var v = Var::make("i", tilus::int32());
    Expr tid = lir::tidVar();

    lir::LBody body;
    lir::push(body, lir::InitTensor{0, 0.5});
    lir::push(body, lir::CpAsync{tid * 8, tid * 8, 8,
                                 makeBinary(BinaryOp::kLt, tid, constInt(16)),
                                 nullptr, 0});
    lir::push(body, lir::CpAsyncCommit{});
    lir::push(body, lir::CpAsyncWait{0});
    lir::push(body, lir::BarSync{});
    lir::push(body, lir::LoadSharedVec{0, 0, tid * 8, 8, true});
    lir::push(body, lir::StoreSharedVec{0, 0, tid * 8, 8, nullptr});
    lir::push(body, lir::LoadGlobalBits{0, 0, tid * 6, 6, 1});
    lir::push(body, lir::StoreGlobalBits{0, 0, tid * 6, 6, 1});
    lir::push(body, lir::MmaTile{0, 0, 1, 1, 16, 8, 16, 0, 0, 0, 0});
    lir::push(body, lir::SimtDot{0, 0, 1, 1, {{0, 0, 0}, {1, 1, 1}}});
    lir::push(body, lir::EltwiseBinary{1, 0, 0, 2, {}});
    lir::push(body, lir::EltwiseUnary{1, 0, 0});
    lir::push(body, lir::CastTensor{1, 0, true});
    lir::push(body, lir::CastTensor{1, 0, false});
    lir::push(body, lir::PrintTensor{1});

    lir::LFor loop;
    loop.var = v;
    loop.extent = constInt(4);
    loop.body = std::make_shared<lir::LBody>();
    loop.body->push_back(lir::LNode{lir::LAssign{v, Expr(v) + 1}});
    lir::LIf branch;
    branch.cond = makeBinary(BinaryOp::kEq, Expr(v), constInt(2));
    branch.then_body = std::make_shared<lir::LBody>();
    branch.then_body->push_back(lir::LNode{lir::LBreak{}});
    branch.else_body = std::make_shared<lir::LBody>();
    branch.else_body->push_back(lir::LNode{lir::LContinue{}});
    loop.body->push_back(lir::LNode{std::move(branch)});
    body.push_back(lir::LNode{std::move(loop)});

    lir::LWhile wloop;
    wloop.cond = makeBinary(BinaryOp::kLt, Expr(v), constInt(8));
    wloop.body = std::make_shared<lir::LBody>();
    wloop.body->push_back(lir::LNode{lir::LOp{lir::ExitOp{}}});
    body.push_back(lir::LNode{std::move(wloop)});

    kernel.body = std::move(body);
    return kernel;
}

TEST(LirPrint, GoldenHandwrittenZooKernel)
{
    const std::string golden =
        "// kernel zoo  threads=32  smem=256B workspace=64B\n"
        "//   tensor t0: f16 storage=0 (64b/thread) "
        "layout=spatial(32).local(4)\n"
        "//   tensor t1: f16 storage=1 (64b/thread) "
        "layout=spatial(32).local(4)\n"
        "init t0, 0.5\n"
        "cp.async.cg.b64 [(tid * 8)], [(tid * 8)] @(tid < 16)\n"
        "cp.async.commit_group\n"
        "cp.async.wait_group 0\n"
        "bar.sync\n"
        "ldmatrix.b64 t0+0, [(tid * 8)]\n"
        "sts.b64 [(tid * 8)], t0+0\n"
        "ldg.bits6 t0@0, [bit (tid * 6)]\n"
        "stg.bits6 [bit (tid * 6)], t0@0\n"
        "mma.m16n8k16 t1[0], t0[0], t0[0], t1[0]\n"
        "simt.dot t1 += t0 x t0 (2 fma/thread)\n"
        "elt.bin op2 t1, t0, t0\n"
        "elt.unary op0 t1, t0\n"
        "vcvt t1, t0\n"
        "cvt t1, t0\n"
        "print t1\n"
        "for i in range(4):\n"
        "  i = (i + 1)\n"
        "  if (i == 2):\n"
        "    break\n"
        "  else:\n"
        "    continue\n"
        "while (i < 8):\n"
        "  exit\n";
    EXPECT_EQ(lir::printKernel(makeZooKernel()), golden);
}

} // namespace
} // namespace tilus
