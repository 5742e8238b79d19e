#include "ir/expr.h"

#include <atomic>
#include <sstream>

#include "support/error.h"
#include "support/math_util.h"

namespace tilus {
namespace ir {

namespace {

std::atomic<int> g_next_var_id{0};

bool
isConst(const Expr &e, int64_t &value)
{
    if (e->kind() == ExprKind::kConst) {
        value = static_cast<const ConstNode &>(*e).ivalue;
        return true;
    }
    return false;
}

} // namespace

Var
Var::make(std::string name, DataType dtype)
{
    return Var(std::make_shared<VarNode>(std::move(name), dtype,
                                         g_next_var_id.fetch_add(1)));
}

int
exchangeVarCounter(int value)
{
    return g_next_var_id.exchange(value);
}

Expr
constInt(int64_t value, DataType dtype)
{
    return std::make_shared<ConstNode>(value, dtype);
}

Expr
constFloat(double value, DataType dtype)
{
    return std::make_shared<ConstNode>(value, dtype);
}

Expr
makeUnary(UnaryOp op, Expr a)
{
    int64_t va;
    if (isConst(a, va)) {
        switch (op) {
          case UnaryOp::kNeg:
            return constInt(-va, a->dtype());
          case UnaryOp::kBitNot:
            return constInt(~va, a->dtype());
          case UnaryOp::kNot:
            return constInt(va == 0 ? 1 : 0, tilus::uint1());
        }
    }
    return std::make_shared<UnaryNode>(op, std::move(a));
}

Expr
makeBinary(BinaryOp op, Expr a, Expr b)
{
    TILUS_CHECK(a != nullptr && b != nullptr);
    int64_t va = 0, vb = 0;
    const bool ca = isConst(a, va);
    const bool cb = isConst(b, vb);
    DataType dtype = a->dtype();
    switch (op) {
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe:
      case BinaryOp::kAnd:
      case BinaryOp::kOr:
        dtype = tilus::uint1();
        break;
      default:
        break;
    }
    if (ca && cb) {
        int64_t r = 0;
        switch (op) {
          case BinaryOp::kAdd: r = va + vb; break;
          case BinaryOp::kSub: r = va - vb; break;
          case BinaryOp::kMul: r = va * vb; break;
          case BinaryOp::kDiv:
            TILUS_CHECK_MSG(vb != 0, "constant division by zero");
            r = va / vb;
            break;
          case BinaryOp::kMod:
            TILUS_CHECK_MSG(vb != 0, "constant modulo by zero");
            r = va % vb;
            break;
          case BinaryOp::kMin: r = std::min(va, vb); break;
          case BinaryOp::kMax: r = std::max(va, vb); break;
          case BinaryOp::kBitAnd: r = va & vb; break;
          case BinaryOp::kBitOr: r = va | vb; break;
          case BinaryOp::kBitXor: r = va ^ vb; break;
          case BinaryOp::kShl: r = va << vb; break;
          case BinaryOp::kShr: r = va >> vb; break;
          case BinaryOp::kAnd: r = (va != 0 && vb != 0); break;
          case BinaryOp::kOr: r = (va != 0 || vb != 0); break;
          case BinaryOp::kEq: r = (va == vb); break;
          case BinaryOp::kNe: r = (va != vb); break;
          case BinaryOp::kLt: r = (va < vb); break;
          case BinaryOp::kLe: r = (va <= vb); break;
          case BinaryOp::kGt: r = (va > vb); break;
          case BinaryOp::kGe: r = (va >= vb); break;
        }
        return constInt(r, dtype);
    }
    // Algebraic identities that keep generated address code tidy.
    if (op == BinaryOp::kAdd && ca && va == 0)
        return b;
    if (op == BinaryOp::kAdd && cb && vb == 0)
        return a;
    if (op == BinaryOp::kSub && cb && vb == 0)
        return a;
    if (op == BinaryOp::kMul && ((ca && va == 0) || (cb && vb == 0)))
        return constInt(0, dtype);
    if (op == BinaryOp::kMul && ca && va == 1)
        return b;
    if (op == BinaryOp::kMul && cb && vb == 1)
        return a;
    if ((op == BinaryOp::kDiv || op == BinaryOp::kMod) && cb && vb == 1)
        return op == BinaryOp::kDiv ? a : constInt(0, dtype);
    return std::make_shared<BinaryNode>(op, std::move(a), std::move(b),
                                        dtype);
}

Expr
makeSelect(Expr cond, Expr on_true, Expr on_false)
{
    int64_t vc;
    if (isConst(cond, vc))
        return vc != 0 ? on_true : on_false;
    return std::make_shared<SelectNode>(std::move(cond), std::move(on_true),
                                        std::move(on_false));
}

Expr operator+(const Expr &a, const Expr &b)
{ return makeBinary(BinaryOp::kAdd, a, b); }
Expr operator-(const Expr &a, const Expr &b)
{ return makeBinary(BinaryOp::kSub, a, b); }
Expr operator*(const Expr &a, const Expr &b)
{ return makeBinary(BinaryOp::kMul, a, b); }
Expr operator/(const Expr &a, const Expr &b)
{ return makeBinary(BinaryOp::kDiv, a, b); }
Expr operator%(const Expr &a, const Expr &b)
{ return makeBinary(BinaryOp::kMod, a, b); }

Expr operator+(const Expr &a, int64_t b)
{ return a + constInt(b, a->dtype()); }
Expr operator-(const Expr &a, int64_t b)
{ return a - constInt(b, a->dtype()); }
Expr operator*(const Expr &a, int64_t b)
{ return a * constInt(b, a->dtype()); }
Expr operator/(const Expr &a, int64_t b)
{ return a / constInt(b, a->dtype()); }
Expr operator%(const Expr &a, int64_t b)
{ return a % constInt(b, a->dtype()); }

Expr operator<(const Expr &a, const Expr &b)
{ return makeBinary(BinaryOp::kLt, a, b); }
Expr operator<=(const Expr &a, const Expr &b)
{ return makeBinary(BinaryOp::kLe, a, b); }
Expr operator>(const Expr &a, const Expr &b)
{ return makeBinary(BinaryOp::kGt, a, b); }
Expr operator>=(const Expr &a, const Expr &b)
{ return makeBinary(BinaryOp::kGe, a, b); }
Expr operator==(const Expr &a, const Expr &b)
{ return makeBinary(BinaryOp::kEq, a, b); }
Expr operator!=(const Expr &a, const Expr &b)
{ return makeBinary(BinaryOp::kNe, a, b); }
Expr minExpr(const Expr &a, const Expr &b)
{ return makeBinary(BinaryOp::kMin, a, b); }
Expr maxExpr(const Expr &a, const Expr &b)
{ return makeBinary(BinaryOp::kMax, a, b); }

int64_t
evalInt(const Expr &expr, const Env &env)
{
    switch (expr->kind()) {
      case ExprKind::kConst:
        return static_cast<const ConstNode &>(*expr).ivalue;
      case ExprKind::kVar: {
        const auto &var = static_cast<const VarNode &>(*expr);
        int64_t value;
        TILUS_CHECK_MSG(env.lookup(var.id, value),
                        "unbound variable '" << var.name << "'");
        return value;
      }
      case ExprKind::kUnary: {
        const auto &node = static_cast<const UnaryNode &>(*expr);
        int64_t a = evalInt(node.a, env);
        switch (node.op) {
          case UnaryOp::kNeg: return -a;
          case UnaryOp::kBitNot: return ~a;
          case UnaryOp::kNot: return a == 0;
        }
        TILUS_PANIC("bad unary op");
      }
      case ExprKind::kBinary: {
        const auto &node = static_cast<const BinaryNode &>(*expr);
        int64_t a = evalInt(node.a, env);
        int64_t b = evalInt(node.b, env);
        switch (node.op) {
          case BinaryOp::kAdd: return a + b;
          case BinaryOp::kSub: return a - b;
          case BinaryOp::kMul: return a * b;
          case BinaryOp::kDiv:
            TILUS_CHECK_MSG(b != 0, "division by zero");
            return a / b;
          case BinaryOp::kMod:
            TILUS_CHECK_MSG(b != 0, "modulo by zero");
            return a % b;
          case BinaryOp::kMin: return std::min(a, b);
          case BinaryOp::kMax: return std::max(a, b);
          case BinaryOp::kBitAnd: return a & b;
          case BinaryOp::kBitOr: return a | b;
          case BinaryOp::kBitXor: return a ^ b;
          case BinaryOp::kShl: return a << b;
          case BinaryOp::kShr: return a >> b;
          case BinaryOp::kAnd: return a != 0 && b != 0;
          case BinaryOp::kOr: return a != 0 || b != 0;
          case BinaryOp::kEq: return a == b;
          case BinaryOp::kNe: return a != b;
          case BinaryOp::kLt: return a < b;
          case BinaryOp::kLe: return a <= b;
          case BinaryOp::kGt: return a > b;
          case BinaryOp::kGe: return a >= b;
        }
        TILUS_PANIC("bad binary op");
      }
      case ExprKind::kSelect: {
        const auto &node = static_cast<const SelectNode &>(*expr);
        return evalInt(node.cond, env) != 0 ? evalInt(node.on_true, env)
                                            : evalInt(node.on_false, env);
      }
    }
    TILUS_PANIC("unreachable");
}

namespace {

const char *
binaryOpToken(BinaryOp op)
{
    switch (op) {
      case BinaryOp::kAdd: return "+";
      case BinaryOp::kSub: return "-";
      case BinaryOp::kMul: return "*";
      case BinaryOp::kDiv: return "/";
      case BinaryOp::kMod: return "%";
      case BinaryOp::kMin: return "min";
      case BinaryOp::kMax: return "max";
      case BinaryOp::kBitAnd: return "&";
      case BinaryOp::kBitOr: return "|";
      case BinaryOp::kBitXor: return "^";
      case BinaryOp::kShl: return "<<";
      case BinaryOp::kShr: return ">>";
      case BinaryOp::kAnd: return "&&";
      case BinaryOp::kOr: return "||";
      case BinaryOp::kEq: return "==";
      case BinaryOp::kNe: return "!=";
      case BinaryOp::kLt: return "<";
      case BinaryOp::kLe: return "<=";
      case BinaryOp::kGt: return ">";
      case BinaryOp::kGe: return ">=";
    }
    return "?";
}

} // namespace

std::string
toString(const Expr &expr)
{
    std::ostringstream oss;
    switch (expr->kind()) {
      case ExprKind::kConst: {
        const auto &node = static_cast<const ConstNode &>(*expr);
        if (node.dtype().isFloat())
            oss << node.fvalue;
        else
            oss << node.ivalue;
        break;
      }
      case ExprKind::kVar:
        oss << static_cast<const VarNode &>(*expr).name;
        break;
      case ExprKind::kUnary: {
        const auto &node = static_cast<const UnaryNode &>(*expr);
        const char *tok = node.op == UnaryOp::kNeg     ? "-"
                          : node.op == UnaryOp::kBitNot ? "~"
                                                        : "!";
        oss << tok << "(" << toString(node.a) << ")";
        break;
      }
      case ExprKind::kBinary: {
        const auto &node = static_cast<const BinaryNode &>(*expr);
        if (node.op == BinaryOp::kMin || node.op == BinaryOp::kMax) {
            oss << binaryOpToken(node.op) << "(" << toString(node.a) << ", "
                << toString(node.b) << ")";
        } else {
            oss << "(" << toString(node.a) << " " << binaryOpToken(node.op)
                << " " << toString(node.b) << ")";
        }
        break;
      }
      case ExprKind::kSelect: {
        const auto &node = static_cast<const SelectNode &>(*expr);
        oss << "(" << toString(node.on_true) << " if "
            << toString(node.cond) << " else " << toString(node.on_false)
            << ")";
        break;
      }
    }
    return oss.str();
}

Expr
mapExpr(const Expr &expr, const std::function<Expr(const Expr &)> &fn)
{
    if (Expr mapped = fn(expr))
        return mapped;
    switch (expr->kind()) {
      case ExprKind::kConst:
      case ExprKind::kVar:
        return expr;
      case ExprKind::kUnary: {
        const auto &node = static_cast<const UnaryNode &>(*expr);
        Expr a = mapExpr(node.a, fn);
        if (a.get() == node.a.get())
            return expr;
        return makeUnary(node.op, std::move(a));
      }
      case ExprKind::kBinary: {
        const auto &node = static_cast<const BinaryNode &>(*expr);
        Expr a = mapExpr(node.a, fn);
        Expr b = mapExpr(node.b, fn);
        if (a.get() == node.a.get() && b.get() == node.b.get())
            return expr;
        return makeBinary(node.op, std::move(a), std::move(b));
      }
      case ExprKind::kSelect: {
        const auto &node = static_cast<const SelectNode &>(*expr);
        Expr cond = mapExpr(node.cond, fn);
        Expr t = mapExpr(node.on_true, fn);
        Expr f = mapExpr(node.on_false, fn);
        if (cond.get() == node.cond.get() && t.get() == node.on_true.get() &&
            f.get() == node.on_false.get())
            return expr;
        return makeSelect(std::move(cond), std::move(t), std::move(f));
      }
    }
    TILUS_PANIC("unreachable");
}

Expr
substitute(const Expr &expr,
           const std::vector<std::pair<int, Expr>> &replacements)
{
    return mapExpr(expr, [&](const Expr &e) -> Expr {
        if (e->kind() != ExprKind::kVar)
            return nullptr;
        const auto &var = static_cast<const VarNode &>(*e);
        for (const auto &[id, repl] : replacements)
            if (id == var.id)
                return repl;
        return nullptr;
    });
}

void
collectVarIds(const Expr &expr, std::vector<int> &out)
{
    switch (expr->kind()) {
      case ExprKind::kConst:
        return;
      case ExprKind::kVar:
        out.push_back(static_cast<const VarNode &>(*expr).id);
        return;
      case ExprKind::kUnary:
        collectVarIds(static_cast<const UnaryNode &>(*expr).a, out);
        return;
      case ExprKind::kBinary: {
        const auto &node = static_cast<const BinaryNode &>(*expr);
        collectVarIds(node.a, out);
        collectVarIds(node.b, out);
        return;
      }
      case ExprKind::kSelect: {
        const auto &node = static_cast<const SelectNode &>(*expr);
        collectVarIds(node.cond, out);
        collectVarIds(node.on_true, out);
        collectVarIds(node.on_false, out);
        return;
      }
    }
}

int64_t
exprNodeCount(const Expr &expr)
{
    switch (expr->kind()) {
      case ExprKind::kConst:
      case ExprKind::kVar:
        return 1;
      case ExprKind::kUnary:
        return 1 + exprNodeCount(static_cast<const UnaryNode &>(*expr).a);
      case ExprKind::kBinary: {
        const auto &node = static_cast<const BinaryNode &>(*expr);
        return 1 + exprNodeCount(node.a) + exprNodeCount(node.b);
      }
      case ExprKind::kSelect: {
        const auto &node = static_cast<const SelectNode &>(*expr);
        return 1 + exprNodeCount(node.cond) +
               exprNodeCount(node.on_true) + exprNodeCount(node.on_false);
      }
    }
    TILUS_PANIC("unreachable");
}

bool
structurallyEqual(const Expr &a, const Expr &b)
{
    if (a.get() == b.get())
        return true;
    if (a->hash() != b->hash() || a->kind() != b->kind())
        return false;
    switch (a->kind()) {
      case ExprKind::kConst: {
        const auto &x = static_cast<const ConstNode &>(*a);
        const auto &y = static_cast<const ConstNode &>(*b);
        return x.dtype().isFloat() == y.dtype().isFloat() &&
               x.valueBits() == y.valueBits();
      }
      case ExprKind::kVar:
        return static_cast<const VarNode &>(*a).id ==
               static_cast<const VarNode &>(*b).id;
      case ExprKind::kUnary: {
        const auto &x = static_cast<const UnaryNode &>(*a);
        const auto &y = static_cast<const UnaryNode &>(*b);
        return x.op == y.op && structurallyEqual(x.a, y.a);
      }
      case ExprKind::kBinary: {
        const auto &x = static_cast<const BinaryNode &>(*a);
        const auto &y = static_cast<const BinaryNode &>(*b);
        return x.op == y.op && structurallyEqual(x.a, y.a) &&
               structurallyEqual(x.b, y.b);
      }
      case ExprKind::kSelect: {
        const auto &x = static_cast<const SelectNode &>(*a);
        const auto &y = static_cast<const SelectNode &>(*b);
        return structurallyEqual(x.cond, y.cond) &&
               structurallyEqual(x.on_true, y.on_true) &&
               structurallyEqual(x.on_false, y.on_false);
      }
    }
    TILUS_PANIC("unreachable");
}

bool
referencesVar(const Expr &expr, int var_id)
{
    switch (expr->kind()) {
      case ExprKind::kConst:
        return false;
      case ExprKind::kVar:
        return static_cast<const VarNode &>(*expr).id == var_id;
      case ExprKind::kUnary:
        return referencesVar(static_cast<const UnaryNode &>(*expr).a,
                             var_id);
      case ExprKind::kBinary: {
        const auto &node = static_cast<const BinaryNode &>(*expr);
        return referencesVar(node.a, var_id) ||
               referencesVar(node.b, var_id);
      }
      case ExprKind::kSelect: {
        const auto &node = static_cast<const SelectNode &>(*expr);
        return referencesVar(node.cond, var_id) ||
               referencesVar(node.on_true, var_id) ||
               referencesVar(node.on_false, var_id);
      }
    }
    TILUS_PANIC("unreachable");
}

bool
decomposeAffine(const Expr &expr, int var_id, Expr *base, Expr *stride)
{
    if (!referencesVar(expr, var_id)) {
        *base = expr;
        *stride = constInt(0, expr->dtype());
        return true;
    }
    switch (expr->kind()) {
      case ExprKind::kConst:
        TILUS_PANIC("unreachable"); // var-free, handled above
      case ExprKind::kVar:
        *base = constInt(0, expr->dtype());
        *stride = constInt(1, expr->dtype());
        return true;
      case ExprKind::kUnary: {
        const auto &node = static_cast<const UnaryNode &>(*expr);
        if (node.op != UnaryOp::kNeg)
            return false;
        Expr b, s;
        if (!decomposeAffine(node.a, var_id, &b, &s))
            return false;
        *base = makeUnary(UnaryOp::kNeg, b);
        *stride = makeUnary(UnaryOp::kNeg, s);
        return true;
      }
      case ExprKind::kBinary: {
        const auto &node = static_cast<const BinaryNode &>(*expr);
        Expr ba, sa, bb, sb;
        switch (node.op) {
          case BinaryOp::kAdd:
          case BinaryOp::kSub:
            if (!decomposeAffine(node.a, var_id, &ba, &sa) ||
                !decomposeAffine(node.b, var_id, &bb, &sb))
                return false;
            *base = makeBinary(node.op, ba, bb);
            *stride = makeBinary(node.op, sa, sb);
            return true;
          case BinaryOp::kMul:
            // Exactly one side references the variable (both would be
            // quadratic); the var-free side scales base and stride.
            if (!referencesVar(node.a, var_id)) {
                if (!decomposeAffine(node.b, var_id, &bb, &sb))
                    return false;
                *base = makeBinary(BinaryOp::kMul, node.a, bb);
                *stride = makeBinary(BinaryOp::kMul, node.a, sb);
                return true;
            }
            if (!referencesVar(node.b, var_id)) {
                if (!decomposeAffine(node.a, var_id, &ba, &sa))
                    return false;
                *base = makeBinary(BinaryOp::kMul, ba, node.b);
                *stride = makeBinary(BinaryOp::kMul, sa, node.b);
                return true;
            }
            return false;
          default:
            // Division, modulo, shifts, bit ops, comparisons: affine only
            // when var-free, which was handled above.
            return false;
        }
      }
      case ExprKind::kSelect:
        return false;
    }
    return false;
}

int64_t
provenDivisor(const Expr &expr,
              const std::vector<std::pair<int, int64_t>> &var_divisors)
{
    switch (expr->kind()) {
      case ExprKind::kConst: {
        int64_t v = static_cast<const ConstNode &>(*expr).ivalue;
        if (v == 0)
            return 1 << 30; // zero is a multiple of everything (bounded)
        return std::abs(v);
      }
      case ExprKind::kVar: {
        const auto &var = static_cast<const VarNode &>(*expr);
        for (const auto &[id, div] : var_divisors)
            if (id == var.id)
                return div;
        return 1;
      }
      case ExprKind::kUnary: {
        const auto &node = static_cast<const UnaryNode &>(*expr);
        if (node.op == UnaryOp::kNeg)
            return provenDivisor(node.a, var_divisors);
        return 1;
      }
      case ExprKind::kBinary: {
        const auto &node = static_cast<const BinaryNode &>(*expr);
        int64_t da = provenDivisor(node.a, var_divisors);
        int64_t db = provenDivisor(node.b, var_divisors);
        switch (node.op) {
          case BinaryOp::kAdd:
          case BinaryOp::kSub:
            return gcd64(da, db);
          case BinaryOp::kMul:
            return da * db;
          default:
            return 1;
        }
      }
      case ExprKind::kSelect: {
        const auto &node = static_cast<const SelectNode &>(*expr);
        return gcd64(provenDivisor(node.on_true, var_divisors),
                     provenDivisor(node.on_false, var_divisors));
      }
    }
    return 1;
}

} // namespace ir
} // namespace tilus
