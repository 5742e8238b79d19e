/**
 * @file
 * The thread-block-level instruction set of the Tilus virtual machine
 * (Table 1 of the paper). Every instruction describes an operation applied
 * by the entire thread block: tensor allocation, transfer between memory
 * scopes, register-tensor computation, and control/debug utilities.
 */
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "ir/expr.h"
#include "ir/tensor.h"

namespace tilus {
namespace ir {

enum class InstKind : uint8_t {
    // Indexing
    kBlockIndices,
    // Tensor creation
    kViewGlobal,
    kAllocateGlobal,
    kAllocateShared,
    kAllocateRegister,
    // Tensor transferring
    kLoadGlobal,
    kLoadShared,
    kStoreGlobal,
    kStoreShared,
    kCopyAsync,
    kCopyAsyncCommitGroup,
    kCopyAsyncWaitGroup,
    // Register tensor computation
    kCast,
    kView,
    kBinary,
    kBinaryScalar,
    kUnary,
    kDot,
    // Control
    kSynchronize,
    kExit,
    // Debug
    kPrint,
};

/** Elementwise binary operators on register tensors. */
enum class TensorBinaryOp : uint8_t { kAdd, kSub, kMul, kDiv, kMod };

/** Elementwise unary operators on register tensors. */
enum class TensorUnaryOp : uint8_t { kNeg };

/** Base of all thread-block-level instructions. */
class Instruction
{
  public:
    virtual ~Instruction() = default;
    InstKind kind() const { return kind_; }

  protected:
    explicit Instruction(InstKind kind) : kind_(kind) {}

  private:
    InstKind kind_;
};
using Inst = std::shared_ptr<const Instruction>;

/** indices = BlockIndices(): bind the grid position to scalar vars. */
class BlockIndicesInst : public Instruction
{
  public:
    explicit BlockIndicesInst(std::vector<Var> outs)
        : Instruction(InstKind::kBlockIndices), outs(std::move(outs))
    {}

    std::vector<Var> outs;
};

/** g = ViewGlobal(ptr, dtype, shape): view over a device pointer. */
class ViewGlobalInst : public Instruction
{
  public:
    explicit ViewGlobalInst(GlobalTensor out)
        : Instruction(InstKind::kViewGlobal), out(std::move(out))
    {}

    GlobalTensor out;
};

/** g = AllocateGlobal(dtype, shape): workspace tensor in global memory. */
class AllocateGlobalInst : public Instruction
{
  public:
    explicit AllocateGlobalInst(GlobalTensor out)
        : Instruction(InstKind::kAllocateGlobal), out(std::move(out))
    {}

    GlobalTensor out;
};

/** s = AllocateShared(dtype, shape). */
class AllocateSharedInst : public Instruction
{
  public:
    explicit AllocateSharedInst(SharedTensor out)
        : Instruction(InstKind::kAllocateShared), out(std::move(out))
    {}

    SharedTensor out;
};

/** r = AllocateRegister(dtype, layout, [init]). */
class AllocateRegisterInst : public Instruction
{
  public:
    AllocateRegisterInst(RegTensor out, std::optional<double> init)
        : Instruction(InstKind::kAllocateRegister), out(std::move(out)),
          init(init)
    {}

    RegTensor out;
    std::optional<double> init;
};

/** r = LoadGlobal(g, layout, offset): global -> registers. */
class LoadGlobalInst : public Instruction
{
  public:
    LoadGlobalInst(GlobalTensor src, std::vector<Expr> offset, RegTensor out)
        : Instruction(InstKind::kLoadGlobal), src(std::move(src)),
          offset(std::move(offset)), out(std::move(out))
    {}

    GlobalTensor src;
    std::vector<Expr> offset;
    RegTensor out;
};

/** r = LoadShared(s, layout, offset): shared -> registers. */
class LoadSharedInst : public Instruction
{
  public:
    LoadSharedInst(SharedTensor src, std::vector<Expr> offset, RegTensor out)
        : Instruction(InstKind::kLoadShared), src(std::move(src)),
          offset(std::move(offset)), out(std::move(out))
    {}

    SharedTensor src;
    std::vector<Expr> offset;
    RegTensor out;
};

/** StoreGlobal(r, g, offset): registers -> global. */
class StoreGlobalInst : public Instruction
{
  public:
    StoreGlobalInst(RegTensor src, GlobalTensor dst,
                    std::vector<Expr> offset)
        : Instruction(InstKind::kStoreGlobal), src(std::move(src)),
          dst(std::move(dst)), offset(std::move(offset))
    {}

    RegTensor src;
    GlobalTensor dst;
    std::vector<Expr> offset;
};

/** StoreShared(r, s, offset): registers -> shared. */
class StoreSharedInst : public Instruction
{
  public:
    StoreSharedInst(RegTensor src, SharedTensor dst,
                    std::vector<Expr> offset)
        : Instruction(InstKind::kStoreShared), src(std::move(src)),
          dst(std::move(dst)), offset(std::move(offset))
    {}

    RegTensor src;
    SharedTensor dst;
    std::vector<Expr> offset;
};

/**
 * CopyAsync(s, g, offset): issue an asynchronous copy of an s-shaped tile
 * from global memory (at the given element offset) into shared memory.
 * The copy only becomes visible after CopyAsyncCommitGroup +
 * CopyAsyncWaitGroup (+ Synchronize), mirroring cp.async semantics.
 */
class CopyAsyncInst : public Instruction
{
  public:
    CopyAsyncInst(SharedTensor dst, GlobalTensor src,
                  std::vector<Expr> offset)
        : Instruction(InstKind::kCopyAsync), dst(std::move(dst)),
          src(std::move(src)), offset(std::move(offset))
    {}

    SharedTensor dst;
    GlobalTensor src;
    std::vector<Expr> offset;
};

/** CopyAsyncCommitGroup(): close the current group of async copies. */
class CopyAsyncCommitGroupInst : public Instruction
{
  public:
    CopyAsyncCommitGroupInst()
        : Instruction(InstKind::kCopyAsyncCommitGroup)
    {}
};

/** CopyAsyncWaitGroup(n): wait until at most n groups are in flight. */
class CopyAsyncWaitGroupInst : public Instruction
{
  public:
    explicit CopyAsyncWaitGroupInst(int n)
        : Instruction(InstKind::kCopyAsyncWaitGroup), n(n)
    {}

    int n;
};

/** b = Cast(a, dtype): convert element type, keeping the layout. */
class CastInst : public Instruction
{
  public:
    CastInst(RegTensor src, RegTensor out)
        : Instruction(InstKind::kCast), src(std::move(src)),
          out(std::move(out))
    {}

    RegTensor src;
    RegTensor out;
};

/**
 * b = View(a, dtype, layout): zero-cost register reinterpretation.
 * Requires the same thread count and the same bits per thread
 * (Figure 2(c) of the paper).
 */
class ViewInst : public Instruction
{
  public:
    ViewInst(RegTensor src, RegTensor out)
        : Instruction(InstKind::kView), src(std::move(src)),
          out(std::move(out))
    {}

    RegTensor src;
    RegTensor out;
};

/** c = op(a, b): elementwise arithmetic; b may broadcast along dims. */
class BinaryInst : public Instruction
{
  public:
    BinaryInst(TensorBinaryOp op, RegTensor a, RegTensor b, RegTensor out)
        : Instruction(InstKind::kBinary), op(op), a(std::move(a)),
          b(std::move(b)), out(std::move(out))
    {}

    TensorBinaryOp op;
    RegTensor a;
    RegTensor b;
    RegTensor out;
};

/** c = op(a, scalar). */
class BinaryScalarInst : public Instruction
{
  public:
    BinaryScalarInst(TensorBinaryOp op, RegTensor a, Expr scalar,
                     RegTensor out)
        : Instruction(InstKind::kBinaryScalar), op(op), a(std::move(a)),
          scalar(std::move(scalar)), out(std::move(out))
    {}

    TensorBinaryOp op;
    RegTensor a;
    Expr scalar;
    RegTensor out;
};

/** b = op(a). */
class UnaryInst : public Instruction
{
  public:
    UnaryInst(TensorUnaryOp op, RegTensor a, RegTensor out)
        : Instruction(InstKind::kUnary), op(op), a(std::move(a)),
          out(std::move(out))
    {}

    TensorUnaryOp op;
    RegTensor a;
    RegTensor out;
};

/** d = Dot(a, b, c): d = a @ b + c (mma or SIMT, chosen by selection). */
class DotInst : public Instruction
{
  public:
    DotInst(RegTensor a, RegTensor b, RegTensor c, RegTensor out)
        : Instruction(InstKind::kDot), a(std::move(a)), b(std::move(b)),
          c(std::move(c)), out(std::move(out))
    {}

    RegTensor a;
    RegTensor b;
    RegTensor c;
    RegTensor out;
};

/** Synchronize(): block-wide barrier ordering memory accesses. */
class SynchronizeInst : public Instruction
{
  public:
    SynchronizeInst() : Instruction(InstKind::kSynchronize) {}
};

/** Exit(): terminate the thread block. */
class ExitInst : public Instruction
{
  public:
    ExitInst() : Instruction(InstKind::kExit) {}
};

/** Print(tensor): debug-print a register tensor from block (0,...). */
class PrintInst : public Instruction
{
  public:
    explicit PrintInst(RegTensor tensor)
        : Instruction(InstKind::kPrint), tensor(std::move(tensor))
    {}

    RegTensor tensor;
};

} // namespace ir
} // namespace tilus
