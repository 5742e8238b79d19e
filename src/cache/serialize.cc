#include "cache/serialize.h"

#include <cstring>
#include <map>

namespace tilus {
namespace cache {

namespace {

/// @name Wire tags.
/// @{

/** Stable LOp tags, independent of std::variant ordering: a new op
    takes the next free value, and no value is ever reused. */
enum OpTag : uint8_t
{
    kOpLoadGlobalVec = 0,
    kOpStoreGlobalVec,
    kOpLoadGlobalBits,
    kOpStoreGlobalBits,
    kOpLoadSharedVec,
    kOpStoreSharedVec,
    kOpCpAsync,
    kOpCpAsyncCommit,
    kOpCpAsyncWait,
    kOpBarSync,
    kOpMmaTile,
    kOpSimtDot,
    kOpEltwiseBinary,
    kOpEltwiseScalar,
    kOpEltwiseUnary,
    kOpCastTensor,
    kOpInitTensor,
    kOpPrintTensor,
    kOpExit,
};

/** The tag of each lir::LOp alternative, in std::variant order. */
constexpr OpTag kOpTags[] = {
    kOpLoadGlobalVec,  kOpStoreGlobalVec, kOpLoadGlobalBits,
    kOpStoreGlobalBits, kOpLoadSharedVec, kOpStoreSharedVec,
    kOpCpAsync,        kOpCpAsyncCommit,  kOpCpAsyncWait,
    kOpBarSync,        kOpMmaTile,        kOpSimtDot,
    kOpEltwiseBinary,  kOpEltwiseScalar,  kOpEltwiseUnary,
    kOpCastTensor,     kOpInitTensor,     kOpPrintTensor,
    kOpExit,
};
static_assert(std::size(kOpTags) == std::variant_size_v<lir::LOp>,
              "every lir::LOp alternative needs an OpTag");

enum NodeTag : uint8_t
{
    kNodeOp = 0,
    kNodeFor,
    kNodeIf,
    kNodeWhile,
    kNodeAssign,
    kNodeBreak,
    kNodeContinue,
};

enum VarTag : uint8_t
{
    kVarRef = 0,  ///< u32 index of an already-interned variable
    kVarDef,      ///< name + dtype; interned at the next free index
    kVarSpecial,  ///< u8 role code, rebound to the process singleton
};

enum SpecialVar : uint8_t
{
    kSpecialTid = 0,
    kSpecialWorkspace,
    kSpecialBlockIdx0,
    kSpecialBlockIdx1,
    kSpecialBlockIdx2,
};

constexpr uint8_t kNullExpr = 0xff;
/// @}

/** Fewest payload bytes one encoded T occupies: a decoded vector's
    count is checked against it before anything is allocated. */
template <typename T>
constexpr size_t kMinBytes = 1; // an ir::Expr or lir::LNode tag
template <>
constexpr size_t kMinBytes<int> = 8;
template <>
constexpr size_t kMinBytes<int64_t> = 8;
template <>
constexpr size_t kMinBytes<ir::Var> = 2; // special: tag + role
template <>
constexpr size_t kMinBytes<lir::TensorDecl> = 8;
template <>
constexpr size_t kMinBytes<lir::GlobalDecl> = 8;
template <typename T, size_t N>
constexpr size_t kMinBytes<std::array<T, N>> = N * kMinBytes<T>;

/**
 * The field lists of the kernel and its declarations, in wire order
 * (leaf ops list theirs in lir::forEachField). Writer and Reader both
 * walk these.
 */
template <typename T, typename Fn>
void
forEachDeclField(T &x, Fn &&fn)
{
    using U = std::remove_const_t<T>;
    auto each = [&fn](auto &...field) { (fn(field), ...); };
    if constexpr (std::is_same_v<U, lir::TensorDecl>)
        each(x.id, x.name, x.dtype, x.layout, x.storage, x.storage_bits);
    else if constexpr (std::is_same_v<U, lir::GlobalDecl>)
        each(x.id, x.name, x.dtype, x.shape);
    else
        each(x.name, x.sm_arch, x.block_threads, x.params, x.grid,
             x.block_index_vars, x.main_loop_extent, x.smem_bytes,
             x.workspace_bytes, x.tensors, x.globals, x.num_storages,
             x.body);
}

/** Encodes each field by its C++ type (see codec.h). */
class Writer
{
  public:
    /** Integers, bools, doubles, strings and data types. */
    template <typename T>
    void
    field(const T &v)
    {
        putField(out_, v);
    }

    template <typename T>
    void
    field(const std::vector<T> &v)
    {
        putU32(out_, static_cast<uint32_t>(v.size()));
        for (const T &x : v)
            field(x);
    }

    template <typename T, size_t N>
    void
    field(const std::array<T, N> &a)
    {
        for (const T &x : a)
            field(x);
    }

    void
    field(const lir::Kernel &k)
    {
        forEachDeclField(k, [this](const auto &f) { field(f); });
    }

    void
    field(const lir::TensorDecl &t)
    {
        forEachDeclField(t, [this](const auto &f) { field(f); });
    }

    void
    field(const lir::GlobalDecl &g)
    {
        forEachDeclField(g, [this](const auto &f) { field(f); });
    }

    void
    field(const Layout &l)
    {
        field(l.shape());
        field(l.modeShape());
        field(l.modeDim());
        field(l.spatialModes());
        field(l.localModes());
        field(l.label());
    }

    void field(const ir::Var &v) { var(*v.node()); }

    void
    field(const ir::Expr &e)
    {
        if (!e) {
            putU8(out_, kNullExpr);
            return;
        }
        putU8(out_, static_cast<uint8_t>(e->kind()));
        switch (e->kind()) {
          case ir::ExprKind::kConst: {
            const auto &c = static_cast<const ir::ConstNode &>(*e);
            field(c.dtype());
            field(c.ivalue);
            field(c.fvalue);
            break;
          }
          case ir::ExprKind::kVar:
            var(static_cast<const ir::VarNode &>(*e));
            break;
          case ir::ExprKind::kUnary: {
            const auto &n = static_cast<const ir::UnaryNode &>(*e);
            putU8(out_, static_cast<uint8_t>(n.op));
            field(n.a);
            break;
          }
          case ir::ExprKind::kBinary: {
            const auto &n = static_cast<const ir::BinaryNode &>(*e);
            putU8(out_, static_cast<uint8_t>(n.op));
            field(n.dtype());
            field(n.a);
            field(n.b);
            break;
          }
          case ir::ExprKind::kSelect: {
            const auto &n = static_cast<const ir::SelectNode &>(*e);
            field(n.cond);
            field(n.on_true);
            field(n.on_false);
            break;
          }
        }
    }

    void
    field(const lir::LNode &node)
    {
        std::visit([this](const auto &n) { put(n); }, node.node);
    }

    std::string take() { return std::move(out_); }

  private:
    void
    put(const lir::LOp &op)
    {
        putU8(out_, kNodeOp);
        putU8(out_, kOpTags[op.index()]);
        lir::forEachField(op, [this](const auto &f) { field(f); });
    }

    void
    put(const lir::LFor &loop)
    {
        putU8(out_, kNodeFor);
        field(loop.var);
        field(loop.extent);
        field(*loop.body);
    }

    void
    put(const lir::LIf &branch)
    {
        putU8(out_, kNodeIf);
        field(branch.cond);
        field(*branch.then_body);
        field(branch.else_body != nullptr);
        if (branch.else_body)
            field(*branch.else_body);
    }

    void
    put(const lir::LWhile &loop)
    {
        putU8(out_, kNodeWhile);
        field(loop.cond);
        field(*loop.body);
    }

    void
    put(const lir::LAssign &assign)
    {
        putU8(out_, kNodeAssign);
        field(assign.var);
        field(assign.value);
    }

    void put(const lir::LBreak &) { putU8(out_, kNodeBreak); }
    void put(const lir::LContinue &) { putU8(out_, kNodeContinue); }

    void
    var(const ir::VarNode &node)
    {
        uint8_t special;
        if (isSpecial(node.id, &special)) {
            putU8(out_, kVarSpecial);
            putU8(out_, special);
            return;
        }
        auto it = interned_.find(node.id);
        if (it != interned_.end()) {
            putU8(out_, kVarRef);
            putU32(out_, it->second);
            return;
        }
        interned_.emplace(node.id,
                          static_cast<uint32_t>(interned_.size()));
        putU8(out_, kVarDef);
        field(node.name);
        field(node.dtype());
    }

    static bool
    isSpecial(int id, uint8_t *code)
    {
        if (id == lir::tidVar().id()) {
            *code = kSpecialTid;
            return true;
        }
        if (id == lir::workspaceVar().id()) {
            *code = kSpecialWorkspace;
            return true;
        }
        for (int d = 0; d < 3; ++d) {
            if (id == lir::blockIdxVar(d).id()) {
                *code = static_cast<uint8_t>(kSpecialBlockIdx0 + d);
                return true;
            }
        }
        return false;
    }

    std::string out_;
    std::map<int, uint32_t> interned_; ///< var id -> stream index
};

/** The LOp alternative whose wire tag is @p tag, value-initialized. */
template <size_t I = 0>
lir::LOp
makeOp(uint8_t tag, const ByteReader &r)
{
    if constexpr (I == std::variant_size_v<lir::LOp>)
        r.fail("unknown leaf-operation tag");
    else if (kOpTags[I] == tag)
        return lir::LOp(std::in_place_index<I>);
    else
        return makeOp<I + 1>(tag, r);
}

/** Decodes what Writer encodes, field for field. */
class Reader : public ByteReader
{
  public:
    explicit Reader(const std::string &data)
        : ByteReader(data, "kernel payload")
    {}

    using ByteReader::field;

    template <typename T>
    void
    field(std::vector<T> &v)
    {
        v.resize(count(u32(), kMinBytes<T>));
        for (T &x : v)
            field(x);
    }

    template <typename T, size_t N>
    void
    field(std::array<T, N> &a)
    {
        for (T &x : a)
            field(x);
    }

    void
    field(lir::Kernel &k)
    {
        forEachDeclField(k, [this](auto &f) { field(f); });
    }

    void
    field(lir::TensorDecl &t)
    {
        forEachDeclField(t, [this](auto &f) { field(f); });
    }

    void
    field(lir::GlobalDecl &g)
    {
        forEachDeclField(g, [this](auto &f) { field(f); });
    }

    void
    field(Layout &l)
    {
        std::vector<int64_t> shape, mode_shape;
        std::vector<int> mode_dim, spatial, local;
        std::string label;
        field(shape);
        field(mode_shape);
        field(mode_dim);
        field(spatial);
        field(local);
        field(label);
        try {
            l = Layout::make(std::move(shape), std::move(mode_shape),
                             std::move(mode_dim), std::move(spatial),
                             std::move(local), std::move(label));
        } catch (const TilusError &e) {
            fail(std::string("bad layout: ") + e.what());
        }
    }

    void field(ir::Var &v) { v = var(); }
    void field(ir::Expr &e) { e = expr(); }

    void
    field(lir::LBody &body)
    {
        const size_t n = count(u32(), kMinBytes<lir::LNode>);
        body.reserve(n);
        for (size_t i = 0; i < n; ++i)
            body.push_back(node());
    }

  private:
    lir::LNode
    node()
    {
        switch (u8()) {
          case kNodeOp: {
            lir::LOp op = makeOp(u8(), *this);
            lir::forEachField(op, [this](auto &f) { field(f); });
            return lir::LNode{std::move(op)};
          }
          case kNodeFor: {
            lir::LFor loop;
            field(loop.var);
            field(loop.extent);
            loop.body = body();
            return lir::LNode{std::move(loop)};
          }
          case kNodeIf: {
            lir::LIf branch;
            field(branch.cond);
            branch.then_body = body();
            if (u8() != 0)
                branch.else_body = body();
            return lir::LNode{std::move(branch)};
          }
          case kNodeWhile: {
            lir::LWhile loop;
            field(loop.cond);
            loop.body = body();
            return lir::LNode{std::move(loop)};
          }
          case kNodeAssign: {
            lir::LAssign assign;
            field(assign.var);
            field(assign.value);
            return lir::LNode{std::move(assign)};
          }
          case kNodeBreak:
            return lir::LNode{lir::LBreak{}};
          case kNodeContinue:
            return lir::LNode{lir::LContinue{}};
          default:
            fail("unknown body-node tag");
        }
    }

    std::shared_ptr<lir::LBody>
    body()
    {
        auto b = std::make_shared<lir::LBody>();
        field(*b);
        return b;
    }

    DataType
    dtype()
    {
        DataType t;
        field(t);
        return t;
    }

    ir::Var
    var()
    {
        switch (u8()) {
          case kVarRef: {
            uint32_t index = u32();
            if (index >= vars_.size())
                fail("variable reference out of range");
            return vars_[index];
          }
          case kVarDef: {
            std::string name;
            field(name);
            DataType dt = dtype();
            vars_.push_back(ir::Var::make(std::move(name), dt));
            return vars_.back();
          }
          case kVarSpecial:
            switch (u8()) {
              case kSpecialTid:
                return lir::tidVar();
              case kSpecialWorkspace:
                return lir::workspaceVar();
              case kSpecialBlockIdx0:
                return lir::blockIdxVar(0);
              case kSpecialBlockIdx1:
                return lir::blockIdxVar(1);
              case kSpecialBlockIdx2:
                return lir::blockIdxVar(2);
              default:
                fail("unknown special variable");
            }
          default:
            fail("bad variable tag");
        }
    }

    ir::Expr
    expr()
    {
        uint8_t kind = u8();
        if (kind == kNullExpr)
            return nullptr;
        switch (static_cast<ir::ExprKind>(kind)) {
          case ir::ExprKind::kConst: {
            DataType dt = dtype();
            int64_t ivalue = i64();
            double fvalue = f64();
            // The two ConstNode constructors couple the fields; pick the
            // one reproducing both stored values bit-exactly.
            uint64_t from_int, stored;
            double as_double = static_cast<double>(ivalue);
            std::memcpy(&from_int, &as_double, 8);
            std::memcpy(&stored, &fvalue, 8);
            if (from_int == stored)
                return std::make_shared<ir::ConstNode>(ivalue, dt);
            return std::make_shared<ir::ConstNode>(fvalue, dt);
          }
          case ir::ExprKind::kVar:
            return var();
          case ir::ExprKind::kUnary: {
            uint8_t op = u8();
            ir::Expr a = nonNull(expr(), "unary operand");
            return std::make_shared<ir::UnaryNode>(
                static_cast<ir::UnaryOp>(op), std::move(a));
          }
          case ir::ExprKind::kBinary: {
            uint8_t op = u8();
            DataType dt = dtype();
            ir::Expr a = nonNull(expr(), "binary lhs");
            ir::Expr b = nonNull(expr(), "binary rhs");
            return std::make_shared<ir::BinaryNode>(
                static_cast<ir::BinaryOp>(op), std::move(a), std::move(b),
                dt);
          }
          case ir::ExprKind::kSelect: {
            ir::Expr cond = nonNull(expr(), "select cond");
            ir::Expr t = nonNull(expr(), "select on_true");
            ir::Expr f = nonNull(expr(), "select on_false");
            return std::make_shared<ir::SelectNode>(
                std::move(cond), std::move(t), std::move(f));
          }
        }
        fail("bad expression kind");
    }

    ir::Expr
    nonNull(ir::Expr e, const char *what)
    {
        if (!e)
            fail(std::string("unexpected null ") + what);
        return e;
    }

    std::vector<ir::Var> vars_; ///< interned in definition order
};

} // namespace

std::string
serializeKernel(const lir::Kernel &kernel)
{
    Writer w;
    w.field(kernel);
    return w.take();
}

lir::Kernel
deserializeKernel(const std::string &payload)
{
    Reader r(payload);
    lir::Kernel kernel;
    r.field(kernel);
    r.expectEnd();
    return kernel;
}

} // namespace cache
} // namespace tilus
