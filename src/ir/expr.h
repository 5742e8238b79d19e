/**
 * @file
 * Scalar expression IR shared by the Tilus virtual machine and the
 * generated low-level code (Section 6.2, Figure 7).
 *
 * Expressions are immutable shared trees over typed scalars. They appear
 * as grid-shape expressions, loop extents, branch conditions, tensor-view
 * shapes, and memory offsets; after lowering they also serve as the
 * per-thread address expressions of the low-level IR, where the special
 * thread-index variable becomes meaningful.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dtype/data_type.h"

namespace tilus {
namespace ir {

enum class ExprKind : uint8_t { kConst, kVar, kUnary, kBinary, kSelect };

enum class BinaryOp : uint8_t {
    kAdd, kSub, kMul, kDiv, kMod, kMin, kMax,
    kBitAnd, kBitOr, kBitXor, kShl, kShr,
    kAnd, kOr,
    kEq, kNe, kLt, kLe, kGt, kGe,
};

enum class UnaryOp : uint8_t { kNeg, kBitNot, kNot };

class ExprNode;
using Expr = std::shared_ptr<const ExprNode>;

namespace detail {

/** Mixes @p value into the running hash @p seed (order-sensitive). */
inline uint64_t
hashMix(uint64_t seed, uint64_t value)
{
    uint64_t x =
        seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/** Mixes @p values into @p seed from left to right. */
template <typename... Values>
uint64_t
hashAll(uint64_t seed, Values... values)
{
    ((seed = hashMix(seed, static_cast<uint64_t>(values))), ...);
    return seed;
}

/** Per-kind seeds; integer and float constants never compare equal. */
enum HashSeed : uint64_t
{
    kSeedInt = 1,
    kSeedFloat,
    kSeedVar,
    kSeedUnary,
    kSeedBinary,
    kSeedSelect,
};

} // namespace detail

/**
 * Base of all expression nodes.
 *
 * Every node carries a 64-bit structural hash, computed once in its
 * constructor from its own fields and its children's stored hashes. The
 * hash covers exactly what structurallyEqual() compares: the node kind,
 * the operator, the variable id, an integer constant's value and a float
 * constant's bit pattern. It does not cover dtype: `x + 1` at int32 and
 * at int64 hash (and compare) equal, while `3` and `3.0` do not. The
 * hash lives only in memory; it is never serialized and never feeds
 * cache::fingerprint.
 */
class ExprNode
{
  public:
    virtual ~ExprNode() = default;

    ExprKind kind() const { return kind_; }
    const DataType &dtype() const { return dtype_; }
    uint64_t hash() const { return hash_; }

  protected:
    ExprNode(ExprKind kind, DataType dtype, uint64_t hash)
        : hash_(hash), kind_(kind), dtype_(dtype)
    {}

  private:
    // The hash comes first so that the derived nodes' fields still pack
    // into this class's tail padding.
    uint64_t hash_;
    ExprKind kind_;
    DataType dtype_;
};

/** Integer or floating constant. */
class ConstNode : public ExprNode
{
  public:
    ConstNode(int64_t value, DataType dtype)
        : ExprNode(ExprKind::kConst, dtype,
                   valueHash(dtype, value, static_cast<double>(value))),
          ivalue(value), fvalue(static_cast<double>(value))
    {}

    ConstNode(double value, DataType dtype)
        : ExprNode(ExprKind::kConst, dtype,
                   valueHash(dtype, static_cast<int64_t>(value), value)),
          ivalue(static_cast<int64_t>(value)), fvalue(value)
    {}

    int64_t ivalue;
    double fvalue;

    /** A float-typed constant's fvalue bits, otherwise its ivalue. */
    uint64_t
    valueBits() const
    {
        return bitsOf(dtype(), ivalue, fvalue);
    }

  private:
    static uint64_t
    bitsOf(const DataType &dtype, int64_t ivalue, double fvalue)
    {
        if (!dtype.isFloat())
            return static_cast<uint64_t>(ivalue);
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(fvalue), "");
        std::memcpy(&bits, &fvalue, sizeof(bits));
        return bits;
    }

    static uint64_t
    valueHash(const DataType &dtype, int64_t ivalue, double fvalue)
    {
        return detail::hashAll(dtype.isFloat() ? detail::kSeedFloat
                                               : detail::kSeedInt,
                               bitsOf(dtype, ivalue, fvalue));
    }
};

/** A scalar variable: kernel parameter, loop variable, or block index. */
class VarNode : public ExprNode
{
  public:
    VarNode(std::string name, DataType dtype, int id)
        : ExprNode(ExprKind::kVar, dtype,
                   detail::hashAll(detail::kSeedVar, id)),
          name(std::move(name)), id(id)
    {}

    std::string name;
    int id;
};

class UnaryNode : public ExprNode
{
  public:
    UnaryNode(UnaryOp op, Expr operand)
        : ExprNode(ExprKind::kUnary, operand->dtype(),
                   detail::hashAll(detail::kSeedUnary, op,
                                   operand->hash())),
          op(op), a(std::move(operand))
    {}

    UnaryOp op;
    Expr a;
};

class BinaryNode : public ExprNode
{
  public:
    BinaryNode(BinaryOp op, Expr lhs, Expr rhs, DataType dtype)
        : ExprNode(ExprKind::kBinary, dtype,
                   detail::hashAll(detail::kSeedBinary, op, lhs->hash(),
                                   rhs->hash())),
          op(op), a(std::move(lhs)), b(std::move(rhs))
    {}

    BinaryOp op;
    Expr a;
    Expr b;
};

class SelectNode : public ExprNode
{
  public:
    SelectNode(Expr cond, Expr on_true, Expr on_false)
        : ExprNode(ExprKind::kSelect, on_true->dtype(),
                   detail::hashAll(detail::kSeedSelect, cond->hash(),
                                   on_true->hash(), on_false->hash())),
          cond(std::move(cond)), on_true(std::move(on_true)),
          on_false(std::move(on_false))
    {}

    Expr cond;
    Expr on_true;
    Expr on_false;
};

/**
 * Value-semantic handle for variables, convertible to Expr. Identity is
 * the node pointer (unique id), so two Vars with the same name are still
 * distinct bindings.
 */
class Var
{
  public:
    Var() = default;

    /** Create a fresh variable with a process-unique id. */
    static Var make(std::string name, DataType dtype = tilus::int32());

    const std::shared_ptr<const VarNode> &node() const { return node_; }
    const std::string &name() const { return node_->name; }
    int id() const { return node_->id; }
    const DataType &dtype() const { return node_->dtype(); }
    bool defined() const { return node_ != nullptr; }

    operator Expr() const { return node_; } // NOLINT(google-explicit-*)

  private:
    explicit Var(std::shared_ptr<const VarNode> node)
        : node_(std::move(node))
    {}

    std::shared_ptr<const VarNode> node_;
};

/// @name Factory helpers (with simple constant folding on the fly).
/// @{
Expr constInt(int64_t value, DataType dtype = tilus::int32());
Expr constFloat(double value, DataType dtype = tilus::float32());
Expr makeUnary(UnaryOp op, Expr a);
Expr makeBinary(BinaryOp op, Expr a, Expr b);
Expr makeSelect(Expr cond, Expr on_true, Expr on_false);
/// @}

/// @name Operator sugar used by kernel templates.
/// @{
Expr operator+(const Expr &a, const Expr &b);
Expr operator-(const Expr &a, const Expr &b);
Expr operator*(const Expr &a, const Expr &b);
Expr operator/(const Expr &a, const Expr &b);
Expr operator%(const Expr &a, const Expr &b);
Expr operator+(const Expr &a, int64_t b);
Expr operator-(const Expr &a, int64_t b);
Expr operator*(const Expr &a, int64_t b);
Expr operator/(const Expr &a, int64_t b);
Expr operator%(const Expr &a, int64_t b);
Expr operator<(const Expr &a, const Expr &b);
Expr operator<=(const Expr &a, const Expr &b);
Expr operator>(const Expr &a, const Expr &b);
Expr operator>=(const Expr &a, const Expr &b);
Expr operator==(const Expr &a, const Expr &b);
Expr operator!=(const Expr &a, const Expr &b);
Expr minExpr(const Expr &a, const Expr &b);
Expr maxExpr(const Expr &a, const Expr &b);
/// @}

/**
 * Swap the process-global Var id counter, returning its previous value.
 * Deterministic program construction (the fuzzer's generator) brackets
 * itself with this so identical seeds yield identical ids regardless of
 * what was built before; the caller must restore at least the high-water
 * mark afterwards or later ids would collide with the bracketed ones.
 * Not safe while another thread is creating Vars.
 */
int exchangeVarCounter(int value);

/**
 * Variable bindings used when evaluating expressions.
 *
 * Most ids live in a dense value array with a presence bitmap, so
 * bind/lookup are O(1) array accesses on the interpreter's hot path.
 * Var ids are allocated process-globally, so the dense window is
 * anchored at the first id bound into this Env (one kernel's variables
 * cluster tightly even late in a long-running process); ids before the
 * anchor, past the window, or negative keep the original linear-scan
 * association list, so pathological id spaces stay correct.
 */
class Env
{
  public:
    /** Dense window span; ids past it use the linear-scan store. */
    static constexpr int kMaxSpan = 1 << 16;

    void
    bind(int var_id, int64_t value)
    {
        if (anchor_ < 0 && var_id >= 0)
            anchor_ = var_id & ~63;
        const int index = var_id - anchor_;
        if (var_id >= 0 && index >= 0 && index < kMaxSpan) {
            if (index >= static_cast<int>(dense_.size()))
                growDense(index);
            dense_[index] = value;
            present_[static_cast<size_t>(index) >> 6] |=
                1ull << (index & 63);
            return;
        }
        for (auto &[id, v] : sparse_) {
            if (id == var_id) {
                v = value;
                return;
            }
        }
        sparse_.emplace_back(var_id, value);
    }

    void bind(const Var &var, int64_t value) { bind(var.id(), value); }

    bool
    lookup(int var_id, int64_t &out) const
    {
        const int index = var_id - anchor_;
        if (var_id >= 0 && anchor_ >= 0 && index >= 0 &&
            index < kMaxSpan) {
            if (index >= static_cast<int>(dense_.size()) ||
                !(present_[static_cast<size_t>(index) >> 6] &
                  (1ull << (index & 63))))
                return false;
            out = dense_[index];
            return true;
        }
        for (const auto &[id, v] : sparse_) {
            if (id == var_id) {
                out = v;
                return true;
            }
        }
        return false;
    }

  private:
    void
    growDense(int index)
    {
        // Round up generously so consecutive ids of one kernel trigger a
        // single reallocation.
        size_t size = (static_cast<size_t>(index) + 64) & ~size_t(63);
        dense_.resize(size);
        present_.resize(size >> 6, 0);
    }

    int anchor_ = -1; ///< dense window base id (first bound id, rounded)
    std::vector<int64_t> dense_;
    std::vector<uint64_t> present_; ///< one bit per dense_ entry
    std::vector<std::pair<int, int64_t>> sparse_;
};

/** Evaluate an integer expression under an environment. */
int64_t evalInt(const Expr &expr, const Env &env);

/** Render an expression as source-like text. */
std::string toString(const Expr &expr);

/**
 * The largest value v such that @p expr is provably a multiple of v for
 * all variable assignments (alignment analysis for vectorization).
 * Variables contribute gcd 1 unless listed in @p var_divisors.
 */
int64_t provenDivisor(const Expr &expr,
                      const std::vector<std::pair<int, int64_t>>
                          &var_divisors = {});

/// @name Structural utilities used by the LIR optimizer (src/opt/).
/// @{

/**
 * Rebuild @p expr top-down. At every node @p fn may return a
 * replacement (inserted verbatim, its subtree is not visited); when it
 * returns null the children are mapped recursively and the node is
 * rebuilt — through the constant-folding factories — only if a child
 * changed, so unmodified subtrees keep their identity (pointer
 * equality).
 */
Expr mapExpr(const Expr &expr,
             const std::function<Expr(const Expr &)> &fn);

/**
 * Rebuild @p expr with every variable whose id appears in
 * @p replacements replaced by the mapped expression. Replacements are
 * inserted verbatim (they are not themselves re-substituted), so a
 * variable may map to an expression containing itself (e.g. v -> v + 1).
 * Constant folding of the factory helpers applies to rebuilt nodes.
 */
Expr substitute(const Expr &expr,
                const std::vector<std::pair<int, Expr>> &replacements);

/** Append the ids of all variables referenced by @p expr (may repeat). */
void collectVarIds(const Expr &expr, std::vector<int> &out);

/** Number of nodes in the expression tree (cost proxy for CSE). */
int64_t exprNodeCount(const Expr &expr);

/**
 * Structural equality: the same kinds and operators, the same variable
 * identities by id (distinct variables sharing a display name differ),
 * equal integer constants, and bit-identical float constants (so +0.0
 * and -0.0 differ, and a NaN equals only the same payload). Ignores
 * dtype, like ExprNode::hash(). Returns at once when the nodes are
 * the same or their hashes differ; otherwise compares recursively.
 * Compare expressions with this, never with rendered strings.
 */
bool structurallyEqual(const Expr &a, const Expr &b);

/**
 * Try to decompose @p expr as `base + v * stride` where neither @p base
 * nor @p stride references the variable @p var_id. Succeeds exactly when
 * the expression is affine in that variable under +, -, unary minus, and
 * multiplication by var-free factors (division, modulo, shifts,
 * comparisons, and selects are affine only when their operands are
 * var-free). On success the outputs are built through the constant-folding
 * factories, so e.g. a var-free expression yields stride == const 0.
 */
bool decomposeAffine(const Expr &expr, int var_id, Expr *base,
                     Expr *stride);

/** True when @p expr does not reference the variable @p var_id. */
bool referencesVar(const Expr &expr, int var_id);
/// @}

} // namespace ir
} // namespace tilus
