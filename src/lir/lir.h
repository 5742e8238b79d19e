/**
 * @file
 * The low-level IR ("LIR") emitted by the Tilus compiler — the moral
 * equivalent of the PTX subset the paper's code generator targets
 * (Section 8, step 2): vectorized global/shared accesses (ldg128/lds128),
 * cp.async with commit/wait groups, ldmatrix, mma, and register-resident
 * elementwise/cast operations.
 *
 * LIR statements are structured (sequences, uniform loops and branches);
 * leaf operations execute once per thread — address expressions may
 * reference the special thread-index variable — except warp-wide mma and
 * block-wide barriers.
 *
 * Register tensors are modeled as per-thread byte arrays ("storages").
 * A View reinterpretation simply aliases the storage of its source, which
 * is exactly the zero-cost semantics of Section 7.2.
 */
#pragma once

#include <array>
#include <memory>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "dtype/data_type.h"
#include "ir/expr.h"
#include "layout/layout.h"

namespace tilus {
namespace lir {

/** The special per-thread variable: thread index within the block. */
const ir::Var &tidVar();

/** The implicit parameter holding the workspace base pointer. */
const ir::Var &workspaceVar();

/** Block index variables (bound per block by the launcher), dims 0..2. */
const ir::Var &blockIdxVar(int dim);

/**
 * A register tensor materialized in the kernel: dtype/layout plus the
 * physical per-thread storage it lives in. Views share a storage id.
 */
struct TensorDecl
{
    int id = -1;           ///< compiler::compile numbers ids 0, 1, ...
    std::string name;
    DataType dtype;
    Layout layout;
    int storage = -1;      ///< physical storage index
    int64_t storage_bits = 0; ///< bits per thread of the backing storage
};

/// @name Leaf operations (executed per thread unless noted).
/// @{

/** Vectorized global load into register storage (ldg.b8..b128). */
struct LoadGlobalVec
{
    int dst_tensor;
    int64_t dst_byte;   ///< byte offset in the tensor's per-thread storage
    ir::Expr addr;      ///< global byte address (may reference tid)
    int bytes;          ///< 1,2,4,8,16
    ir::Expr pred;      ///< optional guard; false -> zero-fill
    int global_id = -1; ///< source global tensor (traffic attribution)
};

/** Vectorized global store from register storage (stg.b8..b128). */
struct StoreGlobalVec
{
    int src_tensor;
    int64_t src_byte;
    ir::Expr addr;
    int bytes;
    ir::Expr pred; ///< optional guard; false -> skipped
    int global_id = -1;
};

/** Sub-byte fallback load: extract `bits` at a global bit address. */
struct LoadGlobalBits
{
    int dst_tensor;
    int64_t dst_bit;
    ir::Expr bit_addr;
    int bits;
    int global_id = -1;
};

/** Sub-byte fallback store: insert `bits` at a global bit address. */
struct StoreGlobalBits
{
    int src_tensor;
    int64_t src_bit;
    ir::Expr bit_addr;
    int bits;
    int global_id = -1;
};

/** Shared-memory load (lds / lds128 / ldmatrix when flagged). */
struct LoadSharedVec
{
    int dst_tensor;
    int64_t dst_byte;
    ir::Expr addr; ///< shared-memory byte address
    int bytes;
    bool via_ldmatrix;
};

/** Shared-memory store (sts / sts128). */
struct StoreSharedVec
{
    int src_tensor;
    int64_t src_byte;
    ir::Expr addr;
    int bytes;
    ir::Expr pred; ///< optional guard; false -> skipped
};

/**
 * cp.async: asynchronous global->shared copy of 4/8/16 bytes per thread.
 * Deferred until the matching wait completes (the simulator really defers
 * it, so missing synchronization is an observable bug, as on hardware).
 */
struct CpAsync
{
    ir::Expr smem_addr;
    ir::Expr gmem_addr;
    int bytes; ///< 4, 8, or 16
    ir::Expr pred; ///< false -> zero-fill (cp.async zfill behaviour)
    ir::Expr issue_pred; ///< false -> the thread issues no copy at all
    int global_id = -1;
};

/** Close the current cp.async group. */
struct CpAsyncCommit
{};

/** Wait until at most `n` cp.async groups remain in flight. */
struct CpAsyncWait
{
    int n;
};

/** Block-wide barrier (bar.sync). */
struct BarSync
{};

/**
 * One warp-wide tensor-core mma over register fragments
 * (mma.m16n8k16 / m16n8k8). Executed by every warp of the block; the
 * fragment slot bases are quotient-local and warp-invariant.
 */
struct MmaTile
{
    int a_tensor, b_tensor, c_tensor, d_tensor;
    int m, n, k;
    int64_t a_base, b_base, c_base, d_base; ///< element slot bases
};

/**
 * SIMT dot product: a per-thread multiply-accumulate program
 * (c[c_slot] += a[a_slot] * b[b_slot]); used when M is too small for
 * tensor cores to pay off (decode with 1-15 tokens).
 */
struct SimtDot
{
    int a_tensor, b_tensor, c_tensor, d_tensor;
    std::vector<std::array<int32_t, 3>> macs; ///< (c, a, b) slots
};

/** Elementwise binary op over whole tensors (optionally broadcast b). */
struct EltwiseBinary
{
    int dst_tensor, a_tensor, b_tensor;
    int op; ///< ir::TensorBinaryOp
    std::vector<int32_t> b_slot_map; ///< per-slot b index; empty = identity
};

/** Elementwise op with a scalar operand. */
struct EltwiseScalar
{
    int dst_tensor, a_tensor;
    int op; ///< ir::TensorBinaryOp
    ir::Expr scalar;
};

/** Elementwise unary op. */
struct EltwiseUnary
{
    int dst_tensor, a_tensor;
    int op; ///< ir::TensorUnaryOp
};

/**
 * Whole-tensor data-type conversion. `vectorized` marks the fast path
 * (PRMT/LOP3 sequences operating on packed 32-bit registers, Section 7.2)
 * as opposed to the per-element bitwise fallback of Section 7.1.
 */
struct CastTensor
{
    int dst_tensor, src_tensor;
    bool vectorized;
};

/** Fill a tensor's storage with an initial value. */
struct InitTensor
{
    int dst_tensor;
    double value;
};

/** Debug print of a register tensor (block 0 only). */
struct PrintTensor
{
    int tensor;
};

/** Terminate the thread block. */
struct ExitOp
{};

using LOp = std::variant<LoadGlobalVec, StoreGlobalVec, LoadGlobalBits,
                         StoreGlobalBits, LoadSharedVec, StoreSharedVec,
                         CpAsync, CpAsyncCommit, CpAsyncWait, BarSync,
                         MmaTile, SimtDot, EltwiseBinary, EltwiseScalar,
                         EltwiseUnary, CastTensor, InitTensor, PrintTensor,
                         ExitOp>;

/** False for every type; forEachField's static_assert names it. */
template <typename>
inline constexpr bool kUnlistedOp = false;

/**
 * Apply @p fn to every field of the leaf op @p o, by reference and in
 * wire order. This is the one list of each op's fields: the cache
 * serializer encodes and decodes each field by its C++ type through it
 * (src/cache/serialize.cc) and opt::forEachOpExpr visits its ir::Expr
 * fields. @p o is a leaf-op struct or an LOp (its alternative is
 * visited), const or not. A new leaf op adds its line here.
 */
template <typename Op, typename Fn>
void
forEachField(Op &o, Fn &&fn)
{
    using T = std::remove_const_t<Op>;
    auto each = [&fn](auto &...field) { (fn(field), ...); };
    if constexpr (std::is_same_v<T, LOp>)
        std::visit([&fn](auto &alt) { forEachField(alt, fn); }, o);
    else if constexpr (std::is_same_v<T, LoadGlobalVec>)
        each(o.dst_tensor, o.dst_byte, o.addr, o.bytes, o.pred, o.global_id);
    else if constexpr (std::is_same_v<T, StoreGlobalVec>)
        each(o.src_tensor, o.src_byte, o.addr, o.bytes, o.pred, o.global_id);
    else if constexpr (std::is_same_v<T, LoadGlobalBits>)
        each(o.dst_tensor, o.dst_bit, o.bit_addr, o.bits, o.global_id);
    else if constexpr (std::is_same_v<T, StoreGlobalBits>)
        each(o.src_tensor, o.src_bit, o.bit_addr, o.bits, o.global_id);
    else if constexpr (std::is_same_v<T, LoadSharedVec>)
        each(o.dst_tensor, o.dst_byte, o.addr, o.bytes, o.via_ldmatrix);
    else if constexpr (std::is_same_v<T, StoreSharedVec>)
        each(o.src_tensor, o.src_byte, o.addr, o.bytes, o.pred);
    else if constexpr (std::is_same_v<T, CpAsync>)
        each(o.smem_addr, o.gmem_addr, o.bytes, o.pred, o.issue_pred,
             o.global_id);
    else if constexpr (std::is_same_v<T, CpAsyncWait>)
        each(o.n);
    else if constexpr (std::is_same_v<T, MmaTile>)
        each(o.a_tensor, o.b_tensor, o.c_tensor, o.d_tensor, o.m, o.n, o.k,
             o.a_base, o.b_base, o.c_base, o.d_base);
    else if constexpr (std::is_same_v<T, SimtDot>)
        each(o.a_tensor, o.b_tensor, o.c_tensor, o.d_tensor, o.macs);
    else if constexpr (std::is_same_v<T, EltwiseBinary>)
        each(o.dst_tensor, o.a_tensor, o.b_tensor, o.op, o.b_slot_map);
    else if constexpr (std::is_same_v<T, EltwiseScalar>)
        each(o.dst_tensor, o.a_tensor, o.op, o.scalar);
    else if constexpr (std::is_same_v<T, EltwiseUnary>)
        each(o.dst_tensor, o.a_tensor, o.op);
    else if constexpr (std::is_same_v<T, CastTensor>)
        each(o.dst_tensor, o.src_tensor, o.vectorized);
    else if constexpr (std::is_same_v<T, InitTensor>)
        each(o.dst_tensor, o.value);
    else if constexpr (std::is_same_v<T, PrintTensor>)
        each(o.tensor);
    else if constexpr (!std::is_same_v<T, CpAsyncCommit> &&
                       !std::is_same_v<T, BarSync> &&
                       !std::is_same_v<T, ExitOp>)
        static_assert(kUnlistedOp<T>, "list the new op's fields here");
}

/**
 * Apply @p fn(id, written) to every register-tensor id field of the
 * leaf op @p o, by reference: @p written is true for the one tensor
 * the op writes and false for each tensor it reads. This is the one
 * list of each op's tensor operands: compiler::compile renumbers ids
 * through it and the dead-tensor pass derives its use/def sets from
 * it. @p o is a leaf-op struct or an LOp, const or not. A new leaf op
 * adds its line here, beside its forEachField line.
 */
template <typename Op, typename Fn>
void
forEachTensorRef(Op &o, Fn &&fn)
{
    using T = std::remove_const_t<Op>;
    if constexpr (std::is_same_v<T, LOp>)
        std::visit([&fn](auto &alt) { forEachTensorRef(alt, fn); }, o);
    else if constexpr (std::is_same_v<T, LoadGlobalVec> ||
                       std::is_same_v<T, LoadGlobalBits> ||
                       std::is_same_v<T, LoadSharedVec> ||
                       std::is_same_v<T, InitTensor>)
        fn(o.dst_tensor, true);
    else if constexpr (std::is_same_v<T, StoreGlobalVec> ||
                       std::is_same_v<T, StoreGlobalBits> ||
                       std::is_same_v<T, StoreSharedVec>)
        fn(o.src_tensor, false);
    else if constexpr (std::is_same_v<T, MmaTile> ||
                       std::is_same_v<T, SimtDot>)
        fn(o.a_tensor, false), fn(o.b_tensor, false),
            fn(o.c_tensor, false), fn(o.d_tensor, true);
    else if constexpr (std::is_same_v<T, EltwiseBinary>)
        fn(o.dst_tensor, true), fn(o.a_tensor, false),
            fn(o.b_tensor, false);
    else if constexpr (std::is_same_v<T, EltwiseScalar> ||
                       std::is_same_v<T, EltwiseUnary>)
        fn(o.dst_tensor, true), fn(o.a_tensor, false);
    else if constexpr (std::is_same_v<T, CastTensor>)
        fn(o.dst_tensor, true), fn(o.src_tensor, false);
    else if constexpr (std::is_same_v<T, PrintTensor>)
        fn(o.tensor, false);
    else if constexpr (!std::is_same_v<T, CpAsync> &&
                       !std::is_same_v<T, CpAsyncCommit> &&
                       !std::is_same_v<T, CpAsyncWait> &&
                       !std::is_same_v<T, BarSync> &&
                       !std::is_same_v<T, ExitOp>)
        static_assert(kUnlistedOp<T>, "list the new op's tensors here");
}
/// @}

struct LNode;

/** A sequence of LIR nodes. */
using LBody = std::vector<LNode>;

/** Uniform counted loop. */
struct LFor
{
    ir::Var var;
    ir::Expr extent;
    std::shared_ptr<LBody> body;
};

/** Uniform branch (condition must not depend on tid). */
struct LIf
{
    ir::Expr cond;
    std::shared_ptr<LBody> then_body;
    std::shared_ptr<LBody> else_body; ///< may be null
};

/** Uniform while loop. */
struct LWhile
{
    ir::Expr cond;
    std::shared_ptr<LBody> body;
};

/** Uniform scalar assignment (rebinds a variable). */
struct LAssign
{
    ir::Var var;
    ir::Expr value;
};

/** Break out of the innermost loop. */
struct LBreak
{};

/** Continue with the next iteration of the innermost loop. */
struct LContinue
{};

struct LNode
{
    std::variant<LOp, LFor, LIf, LWhile, LAssign, LBreak, LContinue> node;
};

/** Append helpers keeping call sites terse. */
inline void
push(LBody &body, LOp op)
{
    body.push_back(LNode{std::move(op)});
}

/**
 * A global tensor referenced by the kernel; used by the timing model to
 * separate unique (DRAM) from re-read (L2) traffic.
 */
struct GlobalDecl
{
    int id = -1;
    std::string name;
    DataType dtype;
    std::vector<ir::Expr> shape;
};

/** A fully lowered kernel ready for simulation. */
struct Kernel
{
    std::string name;
    int sm_arch = 80;            ///< minimum compute capability
    int block_threads = 32;
    std::vector<ir::Var> params;
    std::vector<ir::Expr> grid;
    std::vector<ir::Var> block_index_vars; ///< bound per block at launch
    ir::Expr main_loop_extent;   ///< k-loop trip count (timing-model hint)
    int64_t smem_bytes = 0;      ///< planned shared-memory footprint
    int64_t workspace_bytes = 0; ///< planned global workspace footprint
    std::vector<TensorDecl> tensors;
    std::vector<GlobalDecl> globals;
    int num_storages = 0;
    LBody body;

    /** Find a tensor declaration by ir tensor id (panics if missing). */
    const TensorDecl &tensor(int id) const;
};

/** Render the kernel as a PTX-like listing (for debugging and tests). */
std::string printKernel(const Kernel &kernel);

/// @name Decode-time expression classification (sim/microop decoder).
/// @{

/** How a leaf-op expression depends on the thread index. */
enum class ThreadExprKind : uint8_t
{
    kUniform,   ///< no tid reference: evaluate once per op execution
    kAffine,    ///< base + tid * stride with tid-free base/stride
    kSeparable, ///< base + f(tid), f referencing only tid and constants
    kGeneric,   ///< arbitrary tid dependence: evaluate per thread
};

/** Result of classifyThreadExpr. */
struct ThreadExprParts
{
    ThreadExprKind kind = ThreadExprKind::kGeneric;
    ir::Expr base;   ///< kUniform: the expression itself; else base part
    ir::Expr stride; ///< kAffine only: per-thread stride (tid-free)
    ir::Expr tid_part; ///< kSeparable only: pure function of tid
};

/** True when @p expr does not reference tidVar(). */
bool isTidFree(const ir::Expr &expr);

/**
 * Classify a leaf-op address/predicate expression for pre-decoding:
 * tid-free expressions are uniform; expressions affine in tidVar()
 * (ir::decomposeAffine) split into tid-free base and stride; sums that
 * separate into a tid-free base plus a pure-tid term — including the
 * swizzled (tid / a) % b patterns layouts produce, distributing
 * constant multipliers and divisions whose divisibility provenDivisor
 * can prove — become base + f(tid) with f tabulated per thread at
 * decode time; everything else stays per-thread. Optimizer passes must
 * keep emitted addresses within these shapes (see src/sim/README.md).
 */
ThreadExprParts classifyThreadExpr(const ir::Expr &expr);
/// @}

} // namespace lir
} // namespace tilus
