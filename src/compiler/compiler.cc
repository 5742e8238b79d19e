#include "compiler/compiler.h"

#include <map>
#include <optional>

#include "compiler/memory_planner.h"
#include "ir/verifier.h"
#include "layout/atoms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/pass_manager.h"
#include "support/error.h"
#include "support/math_util.h"

namespace tilus {
namespace compiler {

namespace {

using namespace tilus::ir;
using lir::LBody;
using lir::LNode;

Expr
c64(int64_t v)
{
    return constInt(v, tilus::int64());
}

bool
isConstTrue(const Expr &e)
{
    return e->kind() == ExprKind::kConst &&
           static_cast<const ConstNode &>(*e).ivalue != 0;
}

bool
isConstFalse(const Expr &e)
{
    return e->kind() == ExprKind::kConst &&
           static_cast<const ConstNode &>(*e).ivalue == 0;
}

/** AND with true/false folding (null = true). */
Expr
andPred(Expr acc, Expr term)
{
    if (isConstTrue(term))
        return acc;
    if (!acc)
        return term;
    if (isConstFalse(acc))
        return acc;
    return makeBinary(BinaryOp::kAnd, std::move(acc), std::move(term));
}

std::vector<int64_t>
rowMajorStrides(const std::vector<int64_t> &shape)
{
    std::vector<int64_t> strides(shape.size());
    int64_t acc = 1;
    for (size_t d = shape.size(); d-- > 0;) {
        strides[d] = acc;
        acc *= shape[d];
    }
    return strides;
}

/**
 * Where a layout keeps each element of its tile: the closed-form inverse
 * threadLocalOf, tabulated over row-major element positions, plus every
 * thread's replica-free form. A thread holds element e iff its
 * replica-free form is e's holder, and then at e's slot, so a residency
 * query is two table reads instead of a search of the thread's locals.
 */
class Residency
{
  public:
    explicit Residency(const Layout &layout)
        : key_(layout.replicaFreeThreads()),
          holder_(layout.numel()),
          slot_(layout.numel())
    {
        const std::vector<int64_t> strides = rowMajorStrides(layout.shape());
        const std::vector<int64_t> thread_pos = layout.threadOffsets(strides);
        const std::vector<int64_t> local_pos = layout.localOffsets(strides);
        for (size_t t = 0; t < key_.size(); ++t) {
            if (key_[t] != static_cast<int64_t>(t))
                continue; // a replica holds what its holder holds
            for (size_t i = 0; i < local_pos.size(); ++i) {
                holder_[thread_pos[t] + local_pos[i]] = key_[t];
                slot_[thread_pos[t] + local_pos[i]] = static_cast<int32_t>(i);
            }
        }
    }

    int64_t numThreads() const { return static_cast<int64_t>(key_.size()); }

    /** Slot of element @p pos in @p thread, or -1 if it is not there. */
    int32_t
    slotIn(int64_t thread, int64_t pos) const
    {
        return holder_[pos] == key_[thread] ? slot_[pos] : -1;
    }

  private:
    std::vector<int64_t> key_;
    std::vector<int64_t> holder_;
    std::vector<int32_t> slot_;
};

class Lowering
{
  public:
    Lowering(const Program &program, const CompileOptions &options)
        : prog_(program), opts_(options)
    {}

    lir::Kernel
    run()
    {
        ir::verify(prog_);
        shared_plan_ = planSharedMemory(prog_);
        workspace_plan_ = planWorkspace(prog_);

        kernel_.name = prog_.name;
        kernel_.sm_arch = opts_.sm_arch;
        kernel_.block_threads = prog_.blockThreads();
        kernel_.params = prog_.params;
        kernel_.grid = prog_.grid;
        kernel_.smem_bytes = shared_plan_.total_bytes;
        kernel_.workspace_bytes = workspace_plan_.total_bytes;

        // Pointer parameters are 256-byte aligned by the device allocator;
        // this is what lets the alignment analysis prove 128-bit accesses.
        for (const Var &p : prog_.params) {
            if (p.dtype() == tilus::int64())
                var_divisors_.emplace_back(p.id(), 256);
        }
        var_divisors_.emplace_back(lir::workspaceVar().id(), 256);

        body_stack_.push_back(&kernel_.body);
        lowerStmt(prog_.body);
        body_stack_.pop_back();
        kernel_.num_storages = next_storage_;
        return std::move(kernel_);
    }

  private:
    /// @name Emission helpers.
    /// @{
    void
    emit(lir::LOp op)
    {
        lir::push(*body_stack_.back(), std::move(op));
    }

    void
    emitNode(LNode node)
    {
        body_stack_.back()->push_back(std::move(node));
    }
    /// @}

    /// @name Tensor bookkeeping.
    /// @{
    lir::TensorDecl &
    declareTensor(const RegTensor &t, int storage = -1)
    {
        for (lir::TensorDecl &d : kernel_.tensors)
            if (d.id == t->id)
                return d;
        lir::TensorDecl decl;
        decl.id = t->id;
        decl.name = t->name;
        decl.dtype = t->dtype;
        decl.layout = t->layout;
        decl.storage = storage >= 0 ? storage : next_storage_++;
        decl.storage_bits = t->bitsPerThread();
        kernel_.tensors.push_back(decl);
        return kernel_.tensors.back();
    }

    const lir::TensorDecl &
    tensorDecl(const RegTensor &t)
    {
        for (const lir::TensorDecl &d : kernel_.tensors)
            if (d.id == t->id)
                return d;
        TILUS_PANIC("register tensor '" << t->name
                                        << "' used before lowering");
    }

    /** Synthetic tensor for staging copies when cp.async is forbidden. */
    int
    makeScratch(int bytes)
    {
        lir::TensorDecl decl;
        decl.id = next_synthetic_id_++;
        decl.name = "scratch" + std::to_string(decl.id - 1000000000);
        decl.dtype = tilus::uint8();
        decl.layout = Layout::makeLocal({bytes});
        decl.storage = next_storage_++;
        decl.storage_bits = int64_t(bytes) * 8;
        kernel_.tensors.push_back(decl);
        return decl.id;
    }

    void
    registerGlobal(const GlobalTensor &g, Expr base_bytes)
    {
        global_base_[g->id] = std::move(base_bytes);
        global_node_[g->id] = g;
        // Traffic attribution uses the registration index, which is
        // stable across rebuilds of the same template (node ids are not).
        global_index_[g->id] = static_cast<int>(kernel_.globals.size());
        lir::GlobalDecl decl;
        decl.id = static_cast<int>(kernel_.globals.size());
        decl.name = g->name;
        decl.dtype = g->dtype;
        decl.shape = g->shape;
        kernel_.globals.push_back(std::move(decl));
    }
    /// @}

    /// @name Addressing.
    /// @{
    /** Row-major element strides of a global/shared shape. */
    static std::vector<Expr>
    strideExprs(const std::vector<Expr> &shape)
    {
        std::vector<Expr> strides(shape.size());
        Expr acc = c64(1);
        for (size_t d = shape.size(); d-- > 0;) {
            strides[d] = acc;
            acc = acc * shape[d];
        }
        return strides;
    }

    /**
     * Per-dimension logical-index expressions of the tile element held in
     * local slot `slot` of the calling thread (function of tid).
     */
    std::vector<Expr>
    tileIndexExprs(const Layout &layout, int64_t slot) const
    {
        const auto &mode_shape = layout.modeShape();
        const auto &mode_dim = layout.modeDim();
        std::vector<Expr> mode_expr(mode_shape.size());

        // Spatial modes: extracted from tid by div/mod over the ravel.
        const auto &sm = layout.spatialModes();
        int64_t weight = 1;
        for (int p = static_cast<int>(sm.size()) - 1; p >= 0; --p) {
            int m = sm[p];
            Expr e = lir::tidVar();
            if (weight > 1)
                e = e / weight;
            if (p > 0)
                e = e % mode_shape[m];
            mode_expr[m] = e;
            weight *= mode_shape[m];
        }
        // Local modes: compile-time constants from the slot number.
        const auto &lm = layout.localModes();
        std::vector<int64_t> lsizes;
        lsizes.reserve(lm.size());
        for (int m : lm)
            lsizes.push_back(mode_shape[m]);
        std::vector<int64_t> lidx = unravel(slot, lsizes);
        for (size_t p = 0; p < lm.size(); ++p)
            mode_expr[lm[p]] = constInt(lidx[p], tilus::int64());

        // Combine per dimension (replica modes carry no position).
        std::vector<Expr> out(layout.rank());
        for (int d = 0; d < layout.rank(); ++d)
            out[d] = c64(0);
        for (size_t m = 0; m < mode_shape.size(); ++m) {
            if (mode_dim[m] < 0)
                continue;
            int d = mode_dim[m];
            out[d] = out[d] * mode_shape[m] + mode_expr[m];
        }
        return out;
    }
    /// @}

    /// @name Statement walking.
    /// @{
    void
    lowerStmt(const Stmt &stmt)
    {
        switch (stmt->kind()) {
          case StmtKind::kSeq:
            for (const Stmt &s : static_cast<const SeqStmt &>(*stmt).stmts)
                lowerStmt(s);
            break;
          case StmtKind::kIf: {
            const auto &node = static_cast<const IfStmt &>(*stmt);
            lir::LIf branch;
            branch.cond = node.cond;
            branch.then_body = std::make_shared<LBody>();
            body_stack_.push_back(branch.then_body.get());
            lowerStmt(node.then_body);
            body_stack_.pop_back();
            if (node.else_body) {
                branch.else_body = std::make_shared<LBody>();
                body_stack_.push_back(branch.else_body.get());
                lowerStmt(node.else_body);
                body_stack_.pop_back();
            }
            emitNode(LNode{std::move(branch)});
            break;
          }
          case StmtKind::kFor: {
            const auto &node = static_cast<const ForStmt &>(*stmt);
            lir::LFor loop;
            loop.var = node.var;
            loop.extent = node.extent;
            loop.body = std::make_shared<LBody>();
            loop_extent_stack_.push_back(node.extent);
            body_stack_.push_back(loop.body.get());
            lowerStmt(node.body);
            body_stack_.pop_back();
            loop_extent_stack_.pop_back();
            emitNode(LNode{std::move(loop)});
            break;
          }
          case StmtKind::kWhile: {
            const auto &node = static_cast<const WhileStmt &>(*stmt);
            lir::LWhile loop;
            loop.cond = node.cond;
            loop.body = std::make_shared<LBody>();
            loop_extent_stack_.push_back(nullptr);
            body_stack_.push_back(loop.body.get());
            lowerStmt(node.body);
            body_stack_.pop_back();
            loop_extent_stack_.pop_back();
            emitNode(LNode{std::move(loop)});
            break;
          }
          case StmtKind::kBreak:
            emitNode(LNode{lir::LBreak{}});
            break;
          case StmtKind::kContinue:
            emitNode(LNode{lir::LContinue{}});
            break;
          case StmtKind::kAssign: {
            const auto &node = static_cast<const AssignStmt &>(*stmt);
            emitNode(LNode{lir::LAssign{node.var, node.value}});
            break;
          }
          case StmtKind::kInst:
            lowerInst(*static_cast<const InstStmt &>(*stmt).inst);
            break;
        }
    }
    /// @}

    void
    noteMainLoop()
    {
        if (!kernel_.main_loop_extent) {
            for (const Expr &e : loop_extent_stack_) {
                if (e) {
                    kernel_.main_loop_extent = e;
                    break;
                }
            }
        }
    }

    void lowerInst(const Instruction &inst);
    void lowerRegisterTransfer(const RegTensor &reg,
                               const std::vector<Expr> &base_shape,
                               const std::vector<Expr> &offset,
                               Expr base_bytes, bool is_load,
                               bool is_shared, int global_id,
                               bool check_bounds);
    void lowerCopyAsync(const CopyAsyncInst &inst);
    std::vector<int32_t> broadcastSlotMap(const BinaryInst &inst);
    bool tryLowerMmaDot(const DotInst &inst);
    bool tryLowerSimtDot(const DotInst &inst);

    const Program &prog_;
    const CompileOptions &opts_;
    lir::Kernel kernel_;
    std::vector<LBody *> body_stack_;
    std::vector<Expr> loop_extent_stack_;
    MemoryPlan shared_plan_;
    MemoryPlan workspace_plan_;
    std::map<int, Expr> global_base_;
    std::map<int, GlobalTensor> global_node_;
    std::map<int, int> global_index_;
    std::vector<std::pair<int, int64_t>> var_divisors_;
    int next_storage_ = 0;
    int next_synthetic_id_ = 1000000000;
};

void
Lowering::lowerInst(const Instruction &inst)
{
    switch (inst.kind()) {
      case InstKind::kBlockIndices: {
        const auto &node = static_cast<const BlockIndicesInst &>(inst);
        kernel_.block_index_vars = node.outs;
        break;
      }
      case InstKind::kViewGlobal: {
        const auto &node = static_cast<const ViewGlobalInst &>(inst);
        registerGlobal(node.out, node.out->ptr);
        break;
      }
      case InstKind::kAllocateGlobal: {
        const auto &node = static_cast<const AllocateGlobalInst &>(inst);
        int64_t offset = workspace_plan_.offsets.at(node.out->id);
        registerGlobal(node.out,
                       Expr(lir::workspaceVar()) + c64(offset));
        break;
      }
      case InstKind::kAllocateShared:
        break; // offsets already planned
      case InstKind::kAllocateRegister: {
        const auto &node = static_cast<const AllocateRegisterInst &>(inst);
        declareTensor(node.out);
        if (node.init)
            emit(lir::InitTensor{node.out->id, *node.init});
        break;
      }
      case InstKind::kLoadGlobal: {
        const auto &node = static_cast<const LoadGlobalInst &>(inst);
        declareTensor(node.out);
        lowerRegisterTransfer(node.out, node.src->shape, node.offset,
                              global_base_.at(node.src->id),
                              /*is_load=*/true, /*is_shared=*/false,
                              global_index_.at(node.src->id),
                              /*check_bounds=*/true);
        break;
      }
      case InstKind::kStoreGlobal: {
        const auto &node = static_cast<const StoreGlobalInst &>(inst);
        lowerRegisterTransfer(node.src, node.dst->shape, node.offset,
                              global_base_.at(node.dst->id),
                              /*is_load=*/false, /*is_shared=*/false,
                              global_index_.at(node.dst->id),
                              /*check_bounds=*/true);
        break;
      }
      case InstKind::kLoadShared: {
        const auto &node = static_cast<const LoadSharedInst &>(inst);
        declareTensor(node.out);
        std::vector<Expr> shape;
        for (int64_t s : node.src->shape)
            shape.push_back(c64(s));
        lowerRegisterTransfer(node.out, shape, node.offset,
                              c64(shared_plan_.offsets.at(node.src->id)),
                              /*is_load=*/true, /*is_shared=*/true, -1,
                              /*check_bounds=*/false);
        break;
      }
      case InstKind::kStoreShared: {
        const auto &node = static_cast<const StoreSharedInst &>(inst);
        std::vector<Expr> shape;
        for (int64_t s : node.dst->shape)
            shape.push_back(c64(s));
        lowerRegisterTransfer(node.src, shape, node.offset,
                              c64(shared_plan_.offsets.at(node.dst->id)),
                              /*is_load=*/false, /*is_shared=*/true, -1,
                              /*check_bounds=*/false);
        break;
      }
      case InstKind::kCopyAsync:
        noteMainLoop();
        lowerCopyAsync(static_cast<const CopyAsyncInst &>(inst));
        break;
      case InstKind::kCopyAsyncCommitGroup:
        if (!opts_.forbid_cp_async)
            emit(lir::CpAsyncCommit{});
        break;
      case InstKind::kCopyAsyncWaitGroup: {
        const auto &node = static_cast<const CopyAsyncWaitGroupInst &>(inst);
        if (!opts_.forbid_cp_async)
            emit(lir::CpAsyncWait{node.n});
        break;
      }
      case InstKind::kCast: {
        const auto &node = static_cast<const CastInst &>(inst);
        const lir::TensorDecl &src = tensorDecl(node.src);
        (void)src;
        declareTensor(node.out);
        emit(lir::CastTensor{node.out->id, node.src->id,
                             !opts_.force_scalar_cast});
        break;
      }
      case InstKind::kView: {
        const auto &node = static_cast<const ViewInst &>(inst);
        const lir::TensorDecl &src = tensorDecl(node.src);
        declareTensor(node.out, src.storage);
        break; // zero-cost: storage aliased
      }
      case InstKind::kBinary: {
        const auto &node = static_cast<const BinaryInst &>(inst);
        declareTensor(node.out);
        std::vector<int32_t> slot_map;
        if (!(node.b->layout.equivalent(node.a->layout)))
            slot_map = broadcastSlotMap(node);
        emit(lir::EltwiseBinary{node.out->id, node.a->id, node.b->id,
                                static_cast<int>(node.op),
                                std::move(slot_map)});
        break;
      }
      case InstKind::kBinaryScalar: {
        const auto &node = static_cast<const BinaryScalarInst &>(inst);
        declareTensor(node.out);
        emit(lir::EltwiseScalar{node.out->id, node.a->id,
                                static_cast<int>(node.op), node.scalar});
        break;
      }
      case InstKind::kUnary: {
        const auto &node = static_cast<const UnaryInst &>(inst);
        declareTensor(node.out);
        emit(lir::EltwiseUnary{node.out->id, node.a->id,
                               static_cast<int>(node.op)});
        break;
      }
      case InstKind::kDot: {
        const auto &node = static_cast<const DotInst &>(inst);
        noteMainLoop();
        if (node.out != node.c)
            declareTensor(node.out);
        if (tryLowerMmaDot(node))
            return;
        if (tryLowerSimtDot(node))
            return;
        throw CompileError(
            "Dot: operand layouts fit neither the tensor-core atoms nor "
            "a thread-local SIMT schedule (a=" +
            node.a->layout.toString() + ", b=" + node.b->layout.toString() +
            ")");
      }
      case InstKind::kSynchronize:
        emit(lir::BarSync{});
        break;
      case InstKind::kExit:
        emit(lir::ExitOp{});
        break;
      case InstKind::kPrint: {
        const auto &node = static_cast<const PrintInst &>(inst);
        emit(lir::PrintTensor{node.tensor->id});
        break;
      }
    }
}

void
Lowering::lowerRegisterTransfer(const RegTensor &reg,
                                const std::vector<Expr> &base_shape,
                                const std::vector<Expr> &offset,
                                Expr base_bytes, bool is_load,
                                bool is_shared, int global_id,
                                bool check_bounds)
{
    const Layout &layout = reg->layout;
    const int bits = reg->dtype.bits();
    const int r = static_cast<int>(base_shape.size());
    const int rl = layout.rank();
    const int lead = r - rl;
    TILUS_CHECK(lead >= 0);
    const std::vector<Expr> strides = strideExprs(base_shape);
    const int64_t locals = layout.localsPerThread();
    const int last_dim = rl - 1;
    // ldmatrix eligibility is a property of the whole layout; decide once.
    const bool ldmatrix_ok =
        is_shared && is_load && opts_.enable_ldmatrix && bits == 16 &&
        layout.divisibleBy(atoms::ldmatrixAtom());

    // Static per-slot logical indices (thread-invariant differences).
    std::vector<std::vector<int64_t>> slot_idx(locals);
    for (int64_t i = 0; i < locals; ++i)
        slot_idx[i] = layout.logicalIndexOf(0, i);

    auto contiguous_run = [&](int64_t i) {
        int64_t run = 1;
        while (i + run < locals) {
            const auto &prev = slot_idx[i + run - 1];
            const auto &next = slot_idx[i + run];
            bool ok = next[last_dim] == prev[last_dim] + 1;
            for (int d = 0; ok && d < last_dim; ++d)
                ok = next[d] == prev[d];
            if (!ok)
                break;
            ++run;
        }
        return run;
    };

    int64_t i = 0;
    while (i < locals) {
        int64_t run = opts_.enable_vectorize ? contiguous_run(i) : 1;

        // Build the per-dim index expressions for the run start.
        std::vector<Expr> tile_idx = tileIndexExprs(layout, i);
        Expr linear = c64(0);
        std::vector<Expr> full_idx(r);
        for (int gd = 0; gd < r; ++gd) {
            Expr idx = offset[gd];
            if (gd >= lead)
                idx = idx + tile_idx[gd - lead];
            full_idx[gd] = idx;
            linear = linear + idx * strides[gd];
        }
        Expr bit_addr = base_bytes * 8 + linear * bits;

        // Choose the widest vector: whole bytes, power-of-two width up to
        // 16B, provably aligned, within both the run and the slot's byte
        // alignment in its own storage.
        int n_el = 1;
        int64_t addr_div = provenDivisor(bit_addr, var_divisors_);
        for (int cand = static_cast<int>(run); cand >= 1; --cand) {
            int64_t total_bits = int64_t(cand) * bits;
            if (total_bits > 128 || total_bits % 8 != 0)
                continue;
            int64_t vec_bytes = total_bits / 8;
            if (!isPowerOfTwo(vec_bytes))
                continue;
            if ((i * bits) % 8 != 0)
                continue; // slot not byte-aligned in storage
            if (addr_div % (vec_bytes * 8) != 0)
                continue; // address alignment unprovable
            n_el = cand;
            break;
        }

        bool byte_path = (int64_t(n_el) * bits) % 8 == 0 &&
                         (i * bits) % 8 == 0 && addr_div % 8 == 0;

        // Bounds predicate over the base tensor's shape.
        Expr pred = nullptr;
        if (check_bounds) {
            for (int gd = 0; gd < r; ++gd) {
                Expr limit = base_shape[gd];
                Expr idx = full_idx[gd];
                Expr term = (gd == r - 1 && n_el > 1)
                                ? makeBinary(BinaryOp::kLe,
                                             idx + int64_t(n_el), limit)
                                : makeBinary(BinaryOp::kLt, idx, limit);
                pred = andPred(pred, term);
            }
        }

        if (byte_path) {
            Expr addr = bit_addr / 8;
            int vec_bytes = static_cast<int>(int64_t(n_el) * bits / 8);
            int64_t reg_byte = i * bits / 8;
            if (is_shared) {
                if (is_load) {
                    emit(lir::LoadSharedVec{reg->id, reg_byte, addr,
                                            vec_bytes, ldmatrix_ok});
                } else {
                    emit(lir::StoreSharedVec{reg->id, reg_byte, addr,
                                             vec_bytes, nullptr});
                }
            } else if (is_load) {
                emit(lir::LoadGlobalVec{reg->id, reg_byte, addr, vec_bytes,
                                        pred, global_id});
            } else {
                emit(lir::StoreGlobalVec{reg->id, reg_byte, addr,
                                         vec_bytes, pred, global_id});
            }
        } else {
            // Sub-byte fallback (Section 7.1): bitwise extract/insert.
            TILUS_CHECK_MSG(!is_shared,
                            "sub-byte shared-memory tensors must be "
                            "staged as bytes");
            n_el = 1;
            if (is_load) {
                emit(lir::LoadGlobalBits{reg->id, i * bits, bit_addr, bits,
                                         global_id});
            } else {
                emit(lir::StoreGlobalBits{reg->id, i * bits, bit_addr,
                                          bits, global_id});
            }
        }
        i += n_el;
    }
}

void
Lowering::lowerCopyAsync(const CopyAsyncInst &inst)
{
    const SharedTensor &dst = inst.dst;
    const GlobalTensor &src = inst.src;
    const int bits = dst->dtype.bits();
    // Shape constraints below are the program author's responsibility:
    // reject cleanly (CompileError) so differential harnesses can tell
    // "unsupported shape" apart from a compiler defect.
    if (bits % 8 != 0)
        throw CompileError(
            "CopyAsync stages whole bytes: transform sub-byte weights "
            "to a byte-typed layout first (Section 7.2)");
    const auto &tile = dst->shape;
    const int r = static_cast<int>(src->shape.size());
    const int rt = static_cast<int>(tile.size());
    TILUS_CHECK(rt <= r);
    const int lead = r - rt;

    const int64_t last = tile[rt - 1];
    if ((last * bits) % 8 != 0)
        throw CompileError("CopyAsync tile rows must be whole bytes");
    const int64_t row_bytes = last * bits / 8;
    int chunk = 16;
    while (chunk > 4 && row_bytes % chunk != 0)
        chunk /= 2;
    if (row_bytes % chunk != 0)
        throw CompileError(
            "CopyAsync tile rows must be multiples of 4 bytes (got " +
            std::to_string(row_bytes) + ")");
    int64_t rows = 1;
    for (int d = 0; d + 1 < rt; ++d)
        rows *= tile[d];
    const int64_t chunks_per_row = row_bytes / chunk;
    const int64_t total_chunks = rows * chunks_per_row;
    const int threads = kernel_.block_threads;
    const int64_t iters = ceilDiv(total_chunks, threads);

    const Expr smem_base = c64(shared_plan_.offsets.at(dst->id));
    const Expr gbase = global_base_.at(src->id);
    const int gindex = global_index_.at(src->id);
    const std::vector<Expr> strides = strideExprs(src->shape);
    const int scratch =
        opts_.forbid_cp_async ? makeScratch(chunk) : -1;

    for (int64_t it = 0; it < iters; ++it) {
        Expr chunk_id = Expr(lir::tidVar()) + c64(it * threads);
        Expr row = chunk_id / chunks_per_row;
        Expr col_byte = (chunk_id % chunks_per_row) * int64_t(chunk);

        // Unravel the row into tile coordinates, add offsets, linearize.
        Expr linear = c64(0);
        Expr pred = nullptr;
        Expr remaining = row;
        std::vector<Expr> tile_idx(rt - 1);
        for (int d = rt - 2; d >= 0; --d) {
            tile_idx[d] = remaining % tile[d];
            remaining = remaining / tile[d];
        }
        for (int gd = 0; gd < r; ++gd) {
            Expr idx = inst.offset[gd];
            if (gd >= lead && gd < r - 1)
                idx = idx + tile_idx[gd - lead];
            linear = linear + idx * strides[gd];
            Expr term = makeBinary(BinaryOp::kLt, idx, src->shape[gd]);
            pred = andPred(pred, term);
        }
        Expr gmem_addr = (gbase * 8 + linear * bits) / 8 + col_byte;
        Expr smem_addr = smem_base + chunk_id * int64_t(chunk);
        // Chunks beyond the tile must not be issued at all (their shared
        // destination does not exist); out-of-bounds sources zero-fill.
        Expr issue_pred = nullptr;
        if (total_chunks % threads != 0) {
            issue_pred = makeBinary(BinaryOp::kLt, chunk_id,
                                    c64(total_chunks));
        }
        if (!opts_.forbid_cp_async) {
            emit(lir::CpAsync{smem_addr, gmem_addr, chunk, pred,
                              issue_pred, gindex});
        } else {
            // Synchronous staging: ldg into a scratch register + sts.
            Expr both = pred;
            if (issue_pred)
                both = andPred(both, issue_pred);
            emit(lir::LoadGlobalVec{scratch, 0, gmem_addr, chunk, both,
                                    gindex});
            emit(lir::StoreSharedVec{scratch, 0, smem_addr, chunk,
                                     issue_pred});
        }
    }
}

std::vector<int32_t>
Lowering::broadcastSlotMap(const BinaryInst &inst)
{
    // Each a-slot's index, projected onto b's unit dims, must be resident
    // in b in the same thread and at the same b-slot for every thread.
    // The projection is linear: a's offset tables under b's row-major
    // strides, with the unit dims' strides zeroed, give b positions.
    const Layout &la = inst.a->layout;
    const Layout &lb = inst.b->layout;
    std::vector<int64_t> strides = rowMajorStrides(lb.shape());
    for (int d = 0; d < lb.rank(); ++d)
        if (lb.shape()[d] == 1)
            strides[d] = 0;
    const std::vector<int64_t> a_thread = la.threadOffsets(strides);
    const std::vector<int64_t> a_local = la.localOffsets(strides);
    const Residency b(lb);
    TILUS_CHECK(b.numThreads() == la.numThreads());
    std::vector<int32_t> slot_map(a_local.size());
    for (size_t t = 0; t < a_thread.size(); ++t) {
        for (size_t i = 0; i < a_local.size(); ++i) {
            const int32_t slot = b.slotIn(t, a_thread[t] + a_local[i]);
            if (slot < 0) {
                throw CompileError("Binary broadcast: thread " +
                                   std::to_string(t) +
                                   " does not hold the required element of '" +
                                   inst.b->name + "'");
            }
            if (t == 0) {
                slot_map[i] = slot;
            } else if (slot_map[i] != slot) {
                throw CompileError("Binary broadcast: slot mapping is not "
                                   "thread-uniform for '" +
                                   inst.b->name + "'");
            }
        }
    }
    return slot_map;
}

bool
Lowering::tryLowerMmaDot(const DotInst &inst)
{
    if (inst.a->dtype.bits() != 16 || !inst.a->dtype.isFloat())
        return false;
    if (inst.c->dtype != tilus::float32())
        return false;

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
        auto qa = inst.a->layout.dividedBy(cand.a);
        auto qb = inst.b->layout.dividedBy(cand.b);
        auto qc = inst.c->layout.dividedBy(cand.c);
        if (!qa || !qb || !qc)
            continue;
        const int warps = prog_.blockThreads() / 32;
        if (qc->numThreads() != warps || qa->numThreads() != warps ||
            qb->numThreads() != warps)
            continue;

        // Fragment grid extents.
        const int64_t frags = qc->localsPerThread();
        const int64_t k_tiles = inst.a->shape()[1] / cand.k;
        const int64_t n_tiles = qb->shape()[1];

        // Check warp-invariant slot mapping and collect bases from warp 0.
        // Fragment (m, n) of C reads fragment (m, kt) of A at position
        // m * k_tiles + kt and fragment (kt, n) of B at kt * n_tiles + n.
        const Residency ra(*qa), rb(*qb);
        const std::vector<int64_t> cm_warp = qc->threadOffsets({k_tiles, 0});
        const std::vector<int64_t> cm_frag = qc->localOffsets({k_tiles, 0});
        const std::vector<int64_t> cn_warp = qc->threadOffsets({0, 1});
        const std::vector<int64_t> cn_frag = qc->localOffsets({0, 1});
        std::vector<int32_t> a_slot(frags * k_tiles), b_slot(frags * k_tiles);
        bool ok = true;
        for (int w = 0; w < warps && ok; ++w) {
            for (int64_t f = 0; f < frags && ok; ++f) {
                const int64_t a_row = cm_warp[w] + cm_frag[f];
                const int64_t b_col = cn_warp[w] + cn_frag[f];
                for (int64_t kt = 0; kt < k_tiles; ++kt) {
                    const int32_t sa = ra.slotIn(w, a_row + kt);
                    const int32_t sb = rb.slotIn(w, kt * n_tiles + b_col);
                    const int64_t at = f * k_tiles + kt;
                    if (sa < 0 || sb < 0 ||
                        (w > 0 && (a_slot[at] != sa || b_slot[at] != sb))) {
                        ok = false;
                        break;
                    }
                    a_slot[at] = sa;
                    b_slot[at] = sb;
                }
            }
        }
        if (!ok)
            continue;

        const int64_t a_locals = cand.a.localsPerThread();
        const int64_t b_locals = cand.b.localsPerThread();
        const int64_t c_locals = cand.c.localsPerThread();
        for (int64_t f = 0; f < frags; ++f) {
            for (int64_t kt = 0; kt < k_tiles; ++kt) {
                int c_id = (kt == 0) ? inst.c->id : inst.out->id;
                emit(lir::MmaTile{inst.a->id, inst.b->id, c_id,
                                  inst.out->id, cand.m, cand.n, cand.k,
                                  a_slot[f * k_tiles + kt] * a_locals,
                                  b_slot[f * k_tiles + kt] * b_locals,
                                  f * c_locals, f * c_locals});
            }
        }
        return true;
    }
    return false;
}

bool
Lowering::tryLowerSimtDot(const DotInst &inst)
{
    const Layout &lc = inst.c->layout;
    const int64_t threads = lc.numThreads();
    const int64_t c_locals = lc.localsPerThread();
    const int64_t k_extent = inst.a->shape()[1];
    const int64_t n_extent = inst.b->shape()[1];

    // Every thread must hold all (m, k) and (k, n) operands of its own
    // accumulator elements; the slot program must be thread-uniform.
    // Accumulator (m, n) reads A at m * K + k and B at k * N + n.
    const Residency a(inst.a->layout), b(inst.b->layout);
    TILUS_CHECK(a.numThreads() == threads && b.numThreads() == threads);
    const std::vector<int64_t> cm_thread = lc.threadOffsets({k_extent, 0});
    const std::vector<int64_t> cm_local = lc.localOffsets({k_extent, 0});
    const std::vector<int64_t> cn_thread = lc.threadOffsets({0, 1});
    const std::vector<int64_t> cn_local = lc.localOffsets({0, 1});
    std::vector<std::array<int32_t, 3>> macs;
    macs.reserve(static_cast<size_t>(c_locals * k_extent));
    for (int64_t t = 0; t < threads; ++t) {
        size_t cursor = 0;
        for (int64_t i = 0; i < c_locals; ++i) {
            const int64_t a_row = cm_thread[t] + cm_local[i];
            const int64_t b_col = cn_thread[t] + cn_local[i];
            for (int64_t k = 0; k < k_extent; ++k) {
                const int32_t sa = a.slotIn(t, a_row + k);
                const int32_t sb = b.slotIn(t, k * n_extent + b_col);
                if (sa < 0 || sb < 0)
                    return false;
                std::array<int32_t, 3> mac = {static_cast<int32_t>(i), sa,
                                              sb};
                if (t == 0) {
                    macs.push_back(mac);
                } else if (macs[cursor] != mac) {
                    return false;
                }
                ++cursor;
            }
        }
    }
    emit(lir::SimtDot{inst.a->id, inst.b->id, inst.c->id, inst.out->id,
                      std::move(macs)});
    return true;
}

} // namespace

lir::Kernel
compile(const ir::Program &program, const CompileOptions &options)
{
    obs::Span span("compiler", "compile");
    span.arg("program", program.name)
        .arg("opt_level",
             static_cast<int64_t>(static_cast<int>(options.opt_level)));
    obs::Registry::instance().counter("compiler_compiles_total").add();
    Lowering lowering(program, options);
    lir::Kernel kernel = lowering.run();
    opt::PassManager::standardPipeline(options.opt_level).run(kernel);
    return kernel;
}

} // namespace compiler
} // namespace tilus
