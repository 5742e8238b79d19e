#include "lang/script.h"

#include <atomic>

#include "support/error.h"

namespace tilus {
namespace lang {

using namespace tilus::ir;

namespace {

std::atomic<int> g_next_tensor_id{0};

} // namespace

Script::Script(std::string name, int num_warps)
    : name_(std::move(name)), num_warps_(num_warps)
{
    TILUS_FATAL_IF(num_warps < 1, "a block needs at least one warp");
    blocks_.emplace_back(); // top-level statement list
}

void
Script::push(Stmt stmt)
{
    TILUS_CHECK_MSG(!finished_, "Script already finished");
    blocks_.back().push_back(std::move(stmt));
}

std::string
Script::freshName(const std::string &hint, const char *prefix)
{
    if (!hint.empty())
        return hint;
    return std::string(prefix) + std::to_string(name_counter_++);
}

RegTensor
Script::makeReg(DataType dtype, Layout layout, const std::string &name,
                const char *prefix)
{
    return std::make_shared<RegTensorNode>(g_next_tensor_id.fetch_add(1),
                                           freshName(name, prefix), dtype,
                                           std::move(layout));
}

Var
Script::paramPointer(const std::string &name, DataType pointee)
{
    // Device pointers are byte offsets; the pointee type is carried by the
    // global views created over them, so the parameter itself is an i64.
    (void)pointee;
    Var var = Var::make(name, tilus::int64());
    params_.push_back(var);
    return var;
}

Var
Script::paramScalar(const std::string &name, DataType dtype)
{
    Var var = Var::make(name, dtype);
    params_.push_back(var);
    return var;
}

void
Script::setGrid(std::vector<Expr> grid)
{
    TILUS_FATAL_IF(grid.empty() || grid.size() > 3,
                   "grid must have 1-3 dimensions");
    grid_ = std::move(grid);
}

std::vector<Var>
Script::blockIndices()
{
    TILUS_FATAL_IF(grid_.empty(), "setGrid must precede blockIndices");
    static const char *names[3] = {"bi", "bj", "bk_"};
    std::vector<Var> outs;
    for (size_t d = 0; d < grid_.size(); ++d)
        outs.push_back(Var::make(names[d], tilus::int32()));
    push(instStmt(std::make_shared<BlockIndicesInst>(outs)));
    return outs;
}

GlobalTensor
Script::viewGlobal(Expr ptr, DataType dtype, std::vector<Expr> shape,
                   std::string name)
{
    auto node = std::make_shared<GlobalTensorNode>(
        g_next_tensor_id.fetch_add(1), freshName(name, "g"), dtype,
        std::move(shape), std::move(ptr), /*workspace=*/false);
    push(instStmt(std::make_shared<ViewGlobalInst>(node)));
    return node;
}

GlobalTensor
Script::allocateGlobal(DataType dtype, std::vector<Expr> shape,
                       std::string name)
{
    auto node = std::make_shared<GlobalTensorNode>(
        g_next_tensor_id.fetch_add(1), freshName(name, "gw"), dtype,
        std::move(shape), nullptr, /*workspace=*/true);
    push(instStmt(std::make_shared<AllocateGlobalInst>(node)));
    return node;
}

SharedTensor
Script::allocateShared(DataType dtype, std::vector<int64_t> shape,
                       std::string name)
{
    auto node = std::make_shared<SharedTensorNode>(
        g_next_tensor_id.fetch_add(1), freshName(name, "s"), dtype,
        std::move(shape));
    push(instStmt(std::make_shared<AllocateSharedInst>(node)));
    return node;
}

RegTensor
Script::allocateRegister(DataType dtype, Layout layout,
                         std::optional<double> init, std::string name)
{
    RegTensor out = makeReg(dtype, std::move(layout), name, "r");
    push(instStmt(std::make_shared<AllocateRegisterInst>(out, init)));
    return out;
}

RegTensor
Script::loadGlobal(const GlobalTensor &src, Layout layout,
                   std::vector<Expr> offset, std::string name)
{
    RegTensor out = makeReg(src->dtype, std::move(layout), name, "r");
    push(instStmt(
        std::make_shared<LoadGlobalInst>(src, std::move(offset), out)));
    return out;
}

RegTensor
Script::loadShared(const SharedTensor &src, Layout layout,
                   std::vector<Expr> offset, std::string name)
{
    RegTensor out = makeReg(src->dtype, std::move(layout), name, "r");
    push(instStmt(
        std::make_shared<LoadSharedInst>(src, std::move(offset), out)));
    return out;
}

void
Script::storeGlobal(const RegTensor &src, const GlobalTensor &dst,
                    std::vector<Expr> offset)
{
    push(instStmt(
        std::make_shared<StoreGlobalInst>(src, dst, std::move(offset))));
}

void
Script::storeShared(const RegTensor &src, const SharedTensor &dst,
                    std::vector<Expr> offset)
{
    push(instStmt(
        std::make_shared<StoreSharedInst>(src, dst, std::move(offset))));
}

void
Script::copyAsync(const SharedTensor &dst, const GlobalTensor &src,
                  std::vector<Expr> offset)
{
    push(instStmt(
        std::make_shared<CopyAsyncInst>(dst, src, std::move(offset))));
}

void
Script::copyAsyncCommitGroup()
{
    push(instStmt(std::make_shared<CopyAsyncCommitGroupInst>()));
}

void
Script::copyAsyncWaitGroup(int n)
{
    push(instStmt(std::make_shared<CopyAsyncWaitGroupInst>(n)));
}

RegTensor
Script::cast(const RegTensor &src, DataType dtype, std::string name)
{
    RegTensor out = makeReg(dtype, src->layout, name, "r");
    push(instStmt(std::make_shared<CastInst>(src, out)));
    return out;
}

RegTensor
Script::view(const RegTensor &src, DataType dtype, Layout layout,
             std::string name)
{
    RegTensor out = makeReg(dtype, std::move(layout), name, "r");
    push(instStmt(std::make_shared<ViewInst>(src, out)));
    return out;
}

namespace {

TensorBinaryOp
toBinaryOp(char op)
{
    switch (op) {
      case '+': return TensorBinaryOp::kAdd;
      case '-': return TensorBinaryOp::kSub;
      case '*': return TensorBinaryOp::kMul;
      case '/': return TensorBinaryOp::kDiv;
    }
    TILUS_PANIC("bad op");
}

} // namespace

RegTensor
Script::add(const RegTensor &a, const RegTensor &b, std::string name)
{
    RegTensor out = makeReg(a->dtype, a->layout, name, "r");
    push(instStmt(
        std::make_shared<BinaryInst>(toBinaryOp('+'), a, b, out)));
    return out;
}

RegTensor
Script::sub(const RegTensor &a, const RegTensor &b, std::string name)
{
    RegTensor out = makeReg(a->dtype, a->layout, name, "r");
    push(instStmt(
        std::make_shared<BinaryInst>(toBinaryOp('-'), a, b, out)));
    return out;
}

RegTensor
Script::mul(const RegTensor &a, const RegTensor &b, std::string name)
{
    RegTensor out = makeReg(a->dtype, a->layout, name, "r");
    push(instStmt(
        std::make_shared<BinaryInst>(toBinaryOp('*'), a, b, out)));
    return out;
}

RegTensor
Script::div(const RegTensor &a, const RegTensor &b, std::string name)
{
    RegTensor out = makeReg(a->dtype, a->layout, name, "r");
    push(instStmt(
        std::make_shared<BinaryInst>(toBinaryOp('/'), a, b, out)));
    return out;
}

RegTensor
Script::mulScalar(const RegTensor &a, Expr scalar, std::string name)
{
    RegTensor out = makeReg(a->dtype, a->layout, name, "r");
    push(instStmt(std::make_shared<BinaryScalarInst>(
        TensorBinaryOp::kMul, a, std::move(scalar), out)));
    return out;
}

RegTensor
Script::addScalar(const RegTensor &a, Expr scalar, std::string name)
{
    RegTensor out = makeReg(a->dtype, a->layout, name, "r");
    push(instStmt(std::make_shared<BinaryScalarInst>(
        TensorBinaryOp::kAdd, a, std::move(scalar), out)));
    return out;
}

RegTensor
Script::neg(const RegTensor &a, std::string name)
{
    RegTensor out = makeReg(a->dtype, a->layout, name, "r");
    push(instStmt(
        std::make_shared<UnaryInst>(TensorUnaryOp::kNeg, a, out)));
    return out;
}

void
Script::dot(const RegTensor &a, const RegTensor &b, const RegTensor &acc)
{
    push(instStmt(std::make_shared<DotInst>(a, b, acc, acc)));
}

void
Script::synchronize()
{
    push(instStmt(std::make_shared<SynchronizeInst>()));
}

void
Script::exitBlock()
{
    push(instStmt(std::make_shared<ExitInst>()));
}

void
Script::print(const RegTensor &tensor)
{
    push(instStmt(std::make_shared<PrintInst>(tensor)));
}

void
Script::forRange(Expr extent, const std::function<void(Var)> &body,
                 const std::string &var_name)
{
    Var var = Var::make(var_name.empty()
                            ? "i" + std::to_string(name_counter_++)
                            : var_name,
                        tilus::int32());
    blocks_.emplace_back();
    body(var);
    Stmt body_stmt = seq(std::move(blocks_.back()));
    blocks_.pop_back();
    push(std::make_shared<ForStmt>(var, std::move(extent),
                                   std::move(body_stmt)));
}

void
Script::ifThen(Expr cond, const std::function<void()> &then_body)
{
    blocks_.emplace_back();
    then_body();
    Stmt then_stmt = seq(std::move(blocks_.back()));
    blocks_.pop_back();
    push(std::make_shared<IfStmt>(std::move(cond), std::move(then_stmt),
                                  nullptr));
}

void
Script::ifThenElse(Expr cond, const std::function<void()> &then_body,
                   const std::function<void()> &else_body)
{
    blocks_.emplace_back();
    then_body();
    Stmt then_stmt = seq(std::move(blocks_.back()));
    blocks_.pop_back();
    blocks_.emplace_back();
    else_body();
    Stmt else_stmt = seq(std::move(blocks_.back()));
    blocks_.pop_back();
    push(std::make_shared<IfStmt>(std::move(cond), std::move(then_stmt),
                                  std::move(else_stmt)));
}

void
Script::whileLoop(Expr cond, const std::function<void()> &body)
{
    blocks_.emplace_back();
    body();
    Stmt body_stmt = seq(std::move(blocks_.back()));
    blocks_.pop_back();
    push(std::make_shared<WhileStmt>(std::move(cond),
                                     std::move(body_stmt)));
}

void
Script::breakLoop()
{
    push(std::make_shared<BreakStmt>());
}

void
Script::continueLoop()
{
    push(std::make_shared<ContinueStmt>());
}

void
Script::assign(const Var &var, Expr value)
{
    push(std::make_shared<AssignStmt>(var, std::move(value)));
}

Var
Script::letVar(const std::string &name, Expr value, DataType dtype)
{
    Var var = Var::make(name, dtype);
    push(std::make_shared<AssignStmt>(var, std::move(value)));
    return var;
}

Program
Script::finish()
{
    TILUS_CHECK_MSG(blocks_.size() == 1,
                    "unbalanced control-flow blocks in Script");
    TILUS_FATAL_IF(grid_.empty(), "setGrid was never called");
    finished_ = true;
    Program prog;
    prog.name = name_;
    prog.grid = grid_;
    prog.params = params_;
    prog.body = seq(std::move(blocks_.back()));
    prog.num_warps = num_warps_;
    ir::verify(prog);
    return prog;
}

lir::Kernel
Script::compile(const compiler::CompileOptions &options)
{
    return compiler::compile(finish(), options);
}

} // namespace lang
} // namespace tilus
