/**
 * @file
 * Tests for the Tilus VM IR: scalar expressions (folding, evaluation,
 * alignment analysis, the structural hash and equality), the Script DSL
 * builder, the program printer, and the verifier's well-formedness rules
 * (notably the View reinterpretation compatibility rule of Figure 2(c)).
 */
#include <cstring>
#include <sstream>

#include <gtest/gtest.h>

#include "ir/printer.h"
#include "ir/verifier.h"
#include "lang/script.h"
#include "layout/atoms.h"
#include "support/rng.h"

namespace tilus {
namespace {

using ir::constInt;
using ir::Env;
using ir::evalInt;
using ir::Expr;
using ir::Var;

TEST(Expr, ConstantFolding)
{
    Expr e = constInt(3) + constInt(4);
    ASSERT_EQ(e->kind(), ir::ExprKind::kConst);
    EXPECT_EQ(static_cast<const ir::ConstNode &>(*e).ivalue, 7);

    Var x = Var::make("x");
    EXPECT_EQ(ir::toString(x * constInt(1)), "x");
    EXPECT_EQ(ir::toString(x + constInt(0)), "x");
    Expr zero = x * constInt(0);
    ASSERT_EQ(zero->kind(), ir::ExprKind::kConst);
    EXPECT_EQ(static_cast<const ir::ConstNode &>(*zero).ivalue, 0);
}

TEST(Expr, Evaluation)
{
    Var x = Var::make("x");
    Var y = Var::make("y");
    Env env;
    env.bind(x, 10);
    env.bind(y, 3);
    EXPECT_EQ(evalInt(x + y, env), 13);
    EXPECT_EQ(evalInt(x / y, env), 3);
    EXPECT_EQ(evalInt(x % y, env), 1);
    EXPECT_EQ(evalInt(ir::minExpr(x, y), env), 3);
    EXPECT_EQ(evalInt(ir::makeSelect(x < y, constInt(1), constInt(2)), env),
              2);
    EXPECT_EQ(evalInt(ir::makeUnary(ir::UnaryOp::kNeg, x), env), -10);
}

TEST(Expr, EvaluationRequiresBindings)
{
    Var x = Var::make("x");
    Env env;
    EXPECT_THROW(evalInt(x + constInt(1), env), PanicError);
}

TEST(Expr, ProvenDivisorAlignment)
{
    Var bi = Var::make("bi");
    // bi*16 + 32 is provably a multiple of 16.
    EXPECT_EQ(ir::provenDivisor(bi * 16 + constInt(32)), 16);
    // With the hint that bi is a multiple of 4, bi*16 is a multiple of 64.
    EXPECT_EQ(ir::provenDivisor(bi * 16, {{bi.id(), 4}}), 64);
    // Sum collapses to the gcd.
    EXPECT_EQ(ir::provenDivisor(bi * 12 + constInt(9)), 3);
    // Unknown variables prove only 1.
    EXPECT_EQ(ir::provenDivisor(bi + constInt(8)), 1);
}

TEST(Expr, ToStringIsReadable)
{
    Var m = Var::make("m");
    EXPECT_EQ(ir::toString(m * 4 + 1), "((m * 4) + 1)");
    EXPECT_EQ(ir::toString(ir::minExpr(m, constInt(2))), "min(m, 2)");
}

// ---------------------------------------------------------------------------
// Structural hash and equality
// ---------------------------------------------------------------------------

// With make_shared's 16-byte control block each node sits in one glibc
// size class; a field added to ExprNode must not move them all up one.
static_assert(sizeof(ir::ExprNode) == 24, "ExprNode grew");
static_assert(sizeof(ir::ConstNode) == 40, "ConstNode grew");
static_assert(sizeof(ir::UnaryNode) == 40, "UnaryNode grew");
static_assert(sizeof(ir::BinaryNode) == 56, "BinaryNode grew");
static_assert(sizeof(ir::SelectNode) == 72, "SelectNode grew");

/** The string key expressions were compared by before the hash; kept
    as the oracle for structurallyEqual. */
void
stringKeyInto(const Expr &expr, std::ostringstream &oss)
{
    switch (expr->kind()) {
      case ir::ExprKind::kConst: {
        const auto &node = static_cast<const ir::ConstNode &>(*expr);
        if (node.dtype().isFloat()) {
            uint64_t bits;
            std::memcpy(&bits, &node.fvalue, sizeof(bits));
            oss << "f" << std::hex << bits << std::dec;
        } else {
            oss << "c" << node.ivalue;
        }
        return;
      }
      case ir::ExprKind::kVar:
        oss << "v" << static_cast<const ir::VarNode &>(*expr).id;
        return;
      case ir::ExprKind::kUnary: {
        const auto &node = static_cast<const ir::UnaryNode &>(*expr);
        oss << "u" << static_cast<int>(node.op) << "(";
        stringKeyInto(node.a, oss);
        oss << ")";
        return;
      }
      case ir::ExprKind::kBinary: {
        const auto &node = static_cast<const ir::BinaryNode &>(*expr);
        oss << "b" << static_cast<int>(node.op) << "(";
        stringKeyInto(node.a, oss);
        oss << ",";
        stringKeyInto(node.b, oss);
        oss << ")";
        return;
      }
      case ir::ExprKind::kSelect: {
        const auto &node = static_cast<const ir::SelectNode &>(*expr);
        oss << "s(";
        stringKeyInto(node.cond, oss);
        oss << ",";
        stringKeyInto(node.on_true, oss);
        oss << ",";
        stringKeyInto(node.on_false, oss);
        oss << ")";
        return;
      }
    }
}

std::string
stringKey(const Expr &expr)
{
    std::ostringstream oss;
    stringKeyInto(expr, oss);
    return oss.str();
}

Expr
floatBits(uint64_t bits, DataType dtype = tilus::float32())
{
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return ir::constFloat(value, dtype);
}

/**
 * Random expression trees over a small alphabet of near-miss leaves,
 * built without the folding factories so every shape survives. Pairs
 * are a tree and either an independent tree, itself, or a rebuilt copy
 * (fresh nodes, perhaps other dtypes, perhaps one leaf or operator
 * swapped), so both equal and unequal pairs are common.
 */
class ExprGen
{
  public:
    explicit ExprGen(uint64_t seed) : rng_(seed)
    {
        Var x = Var::make("x");
        Var x_twin = Var::make("x"); // same name, distinct variable
        Var y = Var::make("y", tilus::int64());
        leaves_ = {
            x, x_twin, y,
            // x again, as an int64 node: a dtype-only difference.
            std::make_shared<ir::VarNode>("x", tilus::int64(), x.id()),
            constInt(3), constInt(3, tilus::int64()),
            constInt(3, tilus::float32()), // float-typed 3.0
            ir::constFloat(3.0), ir::constFloat(3.0, tilus::float16()),
            ir::constFloat(3.0, tilus::int32()), // int-typed 3
            ir::constFloat(0.0), ir::constFloat(-0.0), constInt(0),
            floatBits(0x7ff8000000000000ull), floatBits(0x7ff8000000000001ull),
            floatBits(0x7ff8000000000001ull, tilus::float16()),
            constInt(-1), constInt(7),
        };
    }

    Expr
    tree(int depth)
    {
        if (!recent_.empty() && rng_.nextBelow(6) == 0)
            return recent_[rng_.nextBelow(recent_.size())]; // shared
        if (depth == 0 || rng_.nextBelow(4) == 0)
            return leaves_[rng_.nextBelow(leaves_.size())];
        Expr e;
        switch (rng_.nextBelow(3)) {
          case 0:
            e = std::make_shared<ir::UnaryNode>(unaryOp(), tree(depth - 1));
            break;
          case 1: {
            Expr a = tree(depth - 1);
            Expr b = tree(depth - 1);
            e = std::make_shared<ir::BinaryNode>(binaryOp(), a, b, dtype());
            break;
          }
          default: {
            Expr c = tree(depth - 1);
            Expr t = tree(depth - 1);
            Expr f = tree(depth - 1);
            e = std::make_shared<ir::SelectNode>(c, t, f);
            break;
          }
        }
        recent_.push_back(e);
        if (recent_.size() > 16)
            recent_.erase(recent_.begin());
        return e;
    }

    /** Fresh nodes with the same structure, except with probability
        @p mutate per node a swapped leaf or operator. */
    Expr
    rebuild(const Expr &e, double mutate)
    {
        const bool swap = rng_.nextDouble() < mutate;
        switch (e->kind()) {
          case ir::ExprKind::kConst: {
            if (swap)
                return leaves_[rng_.nextBelow(leaves_.size())];
            const auto &node = static_cast<const ir::ConstNode &>(*e);
            return node.dtype().isFloat()
                       ? ir::constFloat(node.fvalue, node.dtype())
                       : constInt(node.ivalue, node.dtype());
          }
          case ir::ExprKind::kVar:
            return swap ? leaves_[rng_.nextBelow(leaves_.size())] : e;
          case ir::ExprKind::kUnary: {
            const auto &node = static_cast<const ir::UnaryNode &>(*e);
            return std::make_shared<ir::UnaryNode>(
                swap ? unaryOp() : node.op, rebuild(node.a, mutate));
          }
          case ir::ExprKind::kBinary: {
            const auto &node = static_cast<const ir::BinaryNode &>(*e);
            Expr a = rebuild(node.a, mutate);
            Expr b = rebuild(node.b, mutate);
            return std::make_shared<ir::BinaryNode>(
                swap ? binaryOp() : node.op, a, b, dtype());
          }
          case ir::ExprKind::kSelect: {
            const auto &node = static_cast<const ir::SelectNode &>(*e);
            Expr c = rebuild(node.cond, mutate);
            Expr t = rebuild(node.on_true, mutate);
            Expr f = rebuild(node.on_false, mutate);
            return swap ? std::make_shared<ir::SelectNode>(c, f, t)
                        : std::make_shared<ir::SelectNode>(c, t, f);
          }
        }
        return e;
    }

    uint64_t below(uint64_t n) { return rng_.nextBelow(n); }

  private:
    ir::UnaryOp
    unaryOp()
    {
        return rng_.nextBelow(2) ? ir::UnaryOp::kNeg : ir::UnaryOp::kNot;
    }

    ir::BinaryOp
    binaryOp()
    {
        static const ir::BinaryOp ops[] = {ir::BinaryOp::kAdd,
                                           ir::BinaryOp::kSub,
                                           ir::BinaryOp::kMul};
        return ops[rng_.nextBelow(3)];
    }

    DataType
    dtype()
    {
        return rng_.nextBelow(2) ? tilus::int32() : tilus::int64();
    }

    Rng rng_;
    std::vector<Expr> leaves_;
    std::vector<Expr> recent_;
};

TEST(ExprHash, NearMissLeaves)
{
    Var x = Var::make("x");
    Var x_twin = Var::make("x");
    auto eq = [](const Expr &a, const Expr &b) {
        return ir::structurallyEqual(a, b);
    };
    EXPECT_FALSE(eq(x, x_twin));
    EXPECT_TRUE(eq(x, std::make_shared<ir::VarNode>("x", tilus::int64(),
                                                    x.id())));
    EXPECT_FALSE(eq(constInt(3), ir::constFloat(3.0)));
    EXPECT_TRUE(eq(constInt(3), constInt(3, tilus::int64())));
    EXPECT_TRUE(eq(ir::constFloat(3.0), ir::constFloat(3.0, tilus::float16())));
    EXPECT_FALSE(eq(ir::constFloat(0.0), ir::constFloat(-0.0)));
    EXPECT_FALSE(eq(floatBits(0x7ff8000000000000ull),
                    floatBits(0x7ff8000000000001ull)));
    EXPECT_TRUE(eq(floatBits(0x7ff8000000000001ull),
                   floatBits(0x7ff8000000000001ull, tilus::float16())));
    EXPECT_EQ((x + 1)->hash(), (x + 1)->hash());
    EXPECT_NE((x + 1)->hash(), (Expr(x_twin) + 1)->hash());
    EXPECT_NE((x - constInt(1))->hash(), (constInt(1) - x)->hash());
}

TEST(ExprHash, EqualityAgreesWithTheStringKey)
{
    ExprGen gen(0x5eedull);
    int equal = 0, unequal = 0;
    for (int i = 0; i < 20000; ++i) {
        Expr a = gen.tree(1 + static_cast<int>(gen.below(5)));
        Expr b;
        switch (gen.below(4)) {
          case 0: b = gen.tree(1 + static_cast<int>(gen.below(5))); break;
          case 1: b = a; break;
          case 2: b = gen.rebuild(a, 0.0); break;
          default: b = gen.rebuild(a, 0.1); break;
        }
        const bool want = stringKey(a) == stringKey(b);
        ASSERT_EQ(ir::structurallyEqual(a, b), want)
            << stringKey(a) << " vs " << stringKey(b);
        ASSERT_EQ(ir::structurallyEqual(b, a), want);
        if (want) {
            ASSERT_EQ(a->hash(), b->hash()) << stringKey(a);
            ++equal;
        } else {
            ++unequal;
        }
    }
    // Both outcomes must be well exercised.
    EXPECT_GT(equal, 5000);
    EXPECT_GT(unequal, 5000);
}

// ---------------------------------------------------------------------------
// Script -> Program -> printer/verifier
// ---------------------------------------------------------------------------

/** Build the paper's Figure-2 program (FP16 x INT6 matmul skeleton). */
ir::Program
buildFigure2Program()
{
    const int64_t M = 1024, N = 1024, K = 1024;
    const int64_t BM = 16, BN = 8, BK = 16;
    lang::Script s("matmul", /*num_warps=*/1);
    Var a_ptr = s.paramPointer("a_ptr", float16());
    Var b_ptr = s.paramPointer("transformed_b_ptr", uint8());
    Var c_ptr = s.paramPointer("c_ptr", float16());
    s.setGrid({constInt(M / BM), constInt(N / BN)});
    auto idx = s.blockIndices();
    Var bi = idx[0], bj = idx[1];
    auto ga = s.viewGlobal(a_ptr, float16(), {constInt(M), constInt(K)},
                           "ga");
    auto gb = s.viewGlobal(b_ptr, uint8(),
                           {constInt(K / BK), constInt(N / BN),
                            constInt(BK * BN * 6 / 8)},
                           "gb");
    auto gc = s.viewGlobal(c_ptr, float16(), {constInt(M), constInt(N)},
                           "gc");
    auto acc = s.allocateRegister(
        float32(), local(2, 1) * spatial(8, 4) * local(1, 2), 0.0, "acc");
    s.forRange(constInt(K / BK), [&](Var bk) {
        auto a = s.loadGlobal(ga,
                              columnLocal(2, 2) * spatial(8, 4) *
                                  local(1, 2),
                              {bi * BM, bk * BK}, "a");
        auto b = s.loadGlobal(gb, local(3) * spatial(32),
                              {Expr(bk), Expr(bj), constInt(0)}, "b");
        auto b1 = s.view(b, int6(),
                         local(2, 1) * columnSpatial(4, 8) * local(2, 1),
                         "b1");
        auto b2 = s.cast(b1, float16(), "b2");
        s.dot(a, b2, acc);
    }, "bk");
    auto acc_f16 = s.cast(acc, float16(), "acc_f16");
    s.storeGlobal(acc_f16, gc, {bi * BM, bj * BN});
    return s.finish();
}

TEST(Script, BuildsAndVerifiesFigure2Program)
{
    ir::Program prog = buildFigure2Program();
    EXPECT_EQ(prog.name, "matmul");
    EXPECT_EQ(prog.blockThreads(), 32);
    ASSERT_EQ(prog.grid.size(), 2u);
    Env env;
    EXPECT_EQ(evalInt(prog.grid[0], env), 64);
    EXPECT_EQ(evalInt(prog.grid[1], env), 128);
}

TEST(Script, PrinterShowsFigure2Structure)
{
    ir::Program prog = buildFigure2Program();
    std::string text = ir::printProgram(prog);
    EXPECT_NE(text.find("def matmul<64, 128>"), std::string::npos) << text;
    EXPECT_NE(text.find("bi, bj = BlockIndices()"), std::string::npos);
    EXPECT_NE(text.find("for bk in range(64):"), std::string::npos);
    EXPECT_NE(text.find("b1 = View(b, dtype=i6, "
                        "layout=local(2, 1).column_spatial(4, 8)"
                        ".local(2, 1))"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("acc = Dot(a, b2, acc)"), std::string::npos);
    EXPECT_NE(text.find("StoreGlobal(acc_f16, gc"), std::string::npos);
}

TEST(Verifier, ViewCompatibilityRule)
{
    // 32 threads x 3 u8 = 24 bits/thread CAN be viewed as 32 x 4 i6.
    lang::Script ok("view_ok", 1);
    Var p = ok.paramPointer("p", uint8());
    ok.setGrid({constInt(1)});
    auto g = ok.viewGlobal(p, uint8(), {constInt(96)});
    auto r = ok.loadGlobal(g, local(3) * spatial(32), {constInt(0)});
    ok.view(r, int6(), local(2, 1) * columnSpatial(4, 8) * local(2, 1));
    EXPECT_NO_THROW(ok.finish());

    // 24 bits/thread can NOT be viewed as 32 bits/thread (4 x u8).
    lang::Script bad("view_bad", 1);
    Var q = bad.paramPointer("p", uint8());
    bad.setGrid({constInt(1)});
    auto g2 = bad.viewGlobal(q, uint8(), {constInt(96)});
    auto r2 = bad.loadGlobal(g2, local(3) * spatial(32), {constInt(0)});
    bad.view(r2, uint8(), local(4) * spatial(32));
    EXPECT_THROW(bad.finish(), VerifyError);
}

TEST(Verifier, RejectsWrongThreadCount)
{
    lang::Script s("bad_threads", /*num_warps=*/2); // 64-thread block
    Var p = s.paramPointer("p", float16());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, float16(), {constInt(16), constInt(8)});
    // Layout spans only 32 threads; the block has 64.
    s.loadGlobal(g, local(2, 1) * spatial(8, 4) * local(1, 2),
                 {constInt(0), constInt(0)});
    EXPECT_THROW(s.finish(), VerifyError);
}

TEST(Verifier, RejectsDotShapeMismatch)
{
    lang::Script s("bad_dot", 1);
    Var p = s.paramPointer("p", float16());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, float16(), {constInt(16), constInt(16)});
    auto a = s.loadGlobal(g, atoms::mmaM16N8K16A(),
                          {constInt(0), constInt(0)});
    // b has shape [16, 8]; a is [16, 16]: inner dims 16 vs 16 ok, but we
    // pass b as both operands so inner dim of b (8 cols) mismatches k=16.
    auto acc = s.allocateRegister(float32(), atoms::mmaM16N8K16C(), 0.0);
    EXPECT_NO_THROW(s.dot(a, a, acc));
    EXPECT_THROW(s.finish(), VerifyError);
}

TEST(Verifier, RejectsCastThatChangesLayout)
{
    lang::Script s("bad_cast", 1);
    Var p = s.paramPointer("p", float16());
    s.setGrid({constInt(1)});
    auto g = s.viewGlobal(p, float16(), {constInt(16), constInt(8)});
    auto r = s.loadGlobal(g, local(2, 1) * spatial(8, 4) * local(1, 2),
                          {constInt(0), constInt(0)});
    // Hand-build a cast whose output layout differs: verifier must reject.
    auto out = std::make_shared<ir::RegTensorNode>(
        999001, "bad", float32(), spatial(8, 4) * local(2, 2));
    // Note: same thread count and shape [16, 8]? spatial(8,4)*local(2,2)
    // has shape [16, 8] as well, but a different distribution.
    lang::Script s2("bad_cast2", 1);
    (void)s2;
    ir::Program prog;
    prog.name = "bad_cast";
    prog.grid = {constInt(1)};
    prog.params = {p};
    std::vector<ir::Stmt> stmts;
    auto gv = std::make_shared<ir::GlobalTensorNode>(
        999002, "g", float16(),
        std::vector<Expr>{constInt(16), constInt(8)}, p, false);
    stmts.push_back(ir::instStmt(std::make_shared<ir::ViewGlobalInst>(gv)));
    auto src = std::make_shared<ir::RegTensorNode>(
        999003, "r", float16(), local(2, 1) * spatial(8, 4) * local(1, 2));
    stmts.push_back(ir::instStmt(std::make_shared<ir::LoadGlobalInst>(
        gv, std::vector<Expr>{constInt(0), constInt(0)}, src)));
    stmts.push_back(
        ir::instStmt(std::make_shared<ir::CastInst>(src, out)));
    prog.body = ir::seq(stmts);
    prog.num_warps = 1;
    EXPECT_THROW(ir::verify(prog), VerifyError);
}

TEST(Verifier, RejectsUseBeforeDefinition)
{
    ir::Program prog;
    prog.name = "undef";
    prog.grid = {constInt(1)};
    prog.num_warps = 1;
    auto ghost = std::make_shared<ir::RegTensorNode>(
        999100, "ghost", float16(),
        local(2, 1) * spatial(8, 4) * local(1, 2));
    prog.body = ir::seq({ir::instStmt(
        std::make_shared<ir::PrintInst>(ghost))});
    EXPECT_THROW(ir::verify(prog), VerifyError);
}

TEST(Verifier, RejectsBreakOutsideLoop)
{
    ir::Program prog;
    prog.name = "stray_break";
    prog.grid = {constInt(1)};
    prog.num_warps = 1;
    prog.body = ir::seq({std::make_shared<ir::BreakStmt>()});
    EXPECT_THROW(ir::verify(prog), VerifyError);
}

TEST(Script, ControlFlowNesting)
{
    lang::Script s("flow", 1);
    Var n = s.paramScalar("n");
    s.setGrid({constInt(4)});
    auto idx = s.blockIndices();
    s.forRange(n, [&](Var i) {
        s.ifThenElse(
            i % 2 == constInt(0), [&] { s.synchronize(); },
            [&] {
                s.forRange(constInt(2), [&](Var) { s.synchronize(); });
            });
    });
    s.whileLoop(idx[0] < n, [&] { s.breakLoop(); });
    ir::Program prog = s.finish();
    std::string text = ir::printProgram(prog);
    EXPECT_NE(text.find("if ((i0 % 2) == 0):"), std::string::npos) << text;
    EXPECT_NE(text.find("else:"), std::string::npos);
    EXPECT_NE(text.find("while (bi < n):"), std::string::npos);
    EXPECT_NE(text.find("break"), std::string::npos);
}

} // namespace
} // namespace tilus
