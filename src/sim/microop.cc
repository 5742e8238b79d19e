#include "sim/microop.h"

#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>

#include "dtype/cast.h"
#include "dtype/packing.h"
#include "ir/instruction.h"
#include "layout/atoms.h"
#include "obs/profile.h"
#include "sim/exec_common.h"
#include "support/error.h"
#include "support/math_util.h"

namespace tilus {
namespace sim {

namespace {

using namespace tilus::lir;

constexpr int kMaxEvalStack = 256;

/**
 * Shared decode tables: decodeValue over every raw bit pattern of a
 * type, built once per dtype per process. 2 KB for sub-byte types,
 * 512 KB for f16/bf16 — paid once, then every register-element read is
 * one indexed load instead of an ldexp chain.
 */
std::shared_ptr<const std::vector<float>>
decodeLutFor(const DataType &dtype)
{
    static std::mutex mutex;
    static std::map<std::string,
                    std::shared_ptr<const std::vector<float>>> cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(dtype.name());
    if (it != cache.end())
        return it->second;
    auto lut = std::make_shared<std::vector<float>>();
    lut->resize(size_t(1) << dtype.bits());
    for (uint64_t bits = 0; bits < lut->size(); ++bits)
        (*lut)[bits] = static_cast<float>(decodeValue(dtype, bits));
    cache.emplace(dtype.name(), lut);
    return lut;
}

/**
 * Shared cast tables: the decode(src)+encode(dst) composition over
 * every source bit pattern, built once per dtype pair. Turns the
 * per-element conversion of CastTensor into one indexed load.
 */
std::shared_ptr<const std::vector<uint64_t>>
castLutFor(const DataType &src, const DataType &dst)
{
    static std::mutex mutex;
    static std::map<std::string,
                    std::shared_ptr<const std::vector<uint64_t>>> cache;
    std::lock_guard<std::mutex> lock(mutex);
    const std::string key = src.name() + "->" + dst.name();
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    auto lut = std::make_shared<std::vector<uint64_t>>();
    lut->resize(size_t(1) << src.bits());
    for (uint64_t bits = 0; bits < lut->size(); ++bits)
        (*lut)[bits] = encodeValue(dst, decodeValue(src, bits));
    cache.emplace(key, lut);
    return lut;
}

/** Decode aborts are reported as a failure reason, never thrown. */
struct DecodeFailure
{
    std::string reason;
};

} // namespace

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

/** Flattens one lir::Kernel into a MicroProgram. */
class MicroDecoder
{
  public:
    explicit MicroDecoder(const lir::Kernel &kernel) : kernel_(kernel) {}

    MicroProgram
    run()
    {
        program_.kernel_ = &kernel_;
        try {
            decodeTensors();
            flattenBody(kernel_.body);
            for (int32_t fixup : end_fixups_)
                program_.ops_[fixup].a =
                    static_cast<int32_t>(program_.ops_.size());
            program_.ops_.push_back(MicroOp{MicroOp::kHalt, 0, 0, 0});
            program_.num_slots_ = next_slot_;
        } catch (const DecodeFailure &failure) {
            program_.reason_ = failure.reason;
        } catch (const TilusError &e) {
            // Decode evaluates eagerly (tid tables, InitTensor encode);
            // what it trips over becomes the program's failure reason,
            // since compileMicroProgram promises never to throw.
            program_.reason_ = e.what();
        }
        return std::move(program_);
    }

  private:
    [[noreturn]] static void
    fail(std::string reason)
    {
        throw DecodeFailure{std::move(reason)};
    }

    /// @name Slot allocation.
    /// @{
    int32_t
    newSlot(std::string name)
    {
        program_.slot_names_.push_back(std::move(name));
        return next_slot_++;
    }

    int32_t
    slotFor(const ir::VarNode &var)
    {
        auto it = slot_of_var_.find(var.id);
        if (it != slot_of_var_.end())
            return it->second;
        int32_t slot = newSlot(var.name);
        slot_of_var_.emplace(var.id, slot);
        program_.var_slots_.push_back(
            MicroProgram::VarSlot{var.id, slot, var.name});
        return slot;
    }
    /// @}

    /// @name Expression compilation (flat postorder slot programs).
    /// @{
    void
    emitExpr(const ir::Expr &expr, bool allow_tid, ExprProgram &out)
    {
        switch (expr->kind()) {
          case ir::ExprKind::kConst: {
            const auto &node = static_cast<const ir::ConstNode &>(*expr);
            // evalInt reads ivalue for every constant, including float
            // constants (scalar operands take the dedicated fvalue path
            // in the EltwiseScalar decoder); mirror that.
            out.code.push_back(
                SlotInstr{SlotInstr::kConst, 0, 0, node.ivalue});
            return;
          }
          case ir::ExprKind::kVar: {
            const auto &var = static_cast<const ir::VarNode &>(*expr);
            if (var.id == tidVar().id()) {
                if (!allow_tid)
                    fail("thread index used in uniform context");
                out.code.push_back(SlotInstr{SlotInstr::kTid, 0, 0, 0});
            } else {
                out.code.push_back(
                    SlotInstr{SlotInstr::kSlot, 0, slotFor(var), 0});
            }
            return;
          }
          case ir::ExprKind::kUnary: {
            const auto &node = static_cast<const ir::UnaryNode &>(*expr);
            emitExpr(node.a, allow_tid, out);
            out.code.push_back(SlotInstr{
                SlotInstr::kUnary, static_cast<uint8_t>(node.op), 0, 0});
            return;
          }
          case ir::ExprKind::kBinary: {
            const auto &node = static_cast<const ir::BinaryNode &>(*expr);
            emitExpr(node.a, allow_tid, out);
            emitExpr(node.b, allow_tid, out);
            out.code.push_back(SlotInstr{
                SlotInstr::kBinary, static_cast<uint8_t>(node.op), 0, 0});
            return;
          }
          case ir::ExprKind::kSelect: {
            // evalInt evaluates only the taken branch (the untaken side
            // may divide by zero); compile with skip jumps to match.
            const auto &node = static_cast<const ir::SelectNode &>(*expr);
            emitExpr(node.cond, allow_tid, out);
            size_t brz = out.code.size();
            out.code.push_back(SlotInstr{SlotInstr::kBrZ, 0, 0, 0});
            emitExpr(node.on_true, allow_tid, out);
            size_t jmp = out.code.size();
            out.code.push_back(SlotInstr{SlotInstr::kJmpRel, 0, 0, 0});
            out.code[brz].slot =
                static_cast<int32_t>(out.code.size() - brz - 1);
            emitExpr(node.on_false, allow_tid, out);
            out.code[jmp].slot =
                static_cast<int32_t>(out.code.size() - jmp - 1);
            return;
          }
        }
        fail("unknown expression node");
    }

    ExprProgram
    compileProgram(const ir::Expr &expr, bool allow_tid)
    {
        ExprProgram prog;
        emitExpr(expr, allow_tid, prog);
        // Peak stack depth by linear simulation. Scanning straight
        // through select branches counts both sides as if stacked,
        // which over-estimates by the select nesting depth — safely
        // conservative, and exact for the common jump-free programs.
        int depth = 0;
        int peak = 0;
        for (const SlotInstr &ins : prog.code) {
            switch (ins.kind) {
              case SlotInstr::kConst:
              case SlotInstr::kSlot:
              case SlotInstr::kTid:
                peak = std::max(peak, ++depth);
                break;
              case SlotInstr::kBinary:
              case SlotInstr::kBrZ:
                --depth;
                break;
              case SlotInstr::kUnary:
              case SlotInstr::kJmpRel:
                break;
            }
        }
        prog.max_stack = peak;
        if (prog.max_stack > kMaxEvalStack)
            fail("expression too deep for the micro-op evaluator");
        return prog;
    }

    /** Decode a leaf-op address/scalar expression. */
    ExprRef
    decodeThreadExpr(const ir::Expr &expr)
    {
        ExprRef ref;
        if (!expr)
            return ref; // kNone
        if (expr->kind() == ir::ExprKind::kConst) {
            ref.cls = ExprClass::kConst;
            ref.konst = static_cast<const ir::ConstNode &>(*expr).ivalue;
            return ref;
        }
        ThreadExprParts parts = classifyThreadExpr(expr);
        switch (parts.kind) {
          case ThreadExprKind::kUniform:
            ref.cls = ExprClass::kUniform;
            ref.base = compileProgram(expr, /*allow_tid=*/false);
            program_.num_uniform_ += 1;
            return ref;
          case ThreadExprKind::kAffine:
            ref.cls = ExprClass::kAffine;
            ref.base = compileProgram(parts.base, /*allow_tid=*/false);
            ref.stride = compileProgram(parts.stride,
                                        /*allow_tid=*/false);
            program_.num_affine_ += 1;
            return ref;
          case ThreadExprKind::kSeparable: {
            ref.cls = ExprClass::kTabulated;
            if (parts.base)
                ref.base = compileProgram(parts.base,
                                          /*allow_tid=*/false);
            ref.table.resize(static_cast<size_t>(kernel_.block_threads));
            ir::Env tid_env;
            for (int t = 0; t < kernel_.block_threads; ++t) {
                tid_env.bind(tidVar().id(), t);
                ref.table[t] = ir::evalInt(parts.tid_part, tid_env);
            }
            program_.num_tabulated_ += 1;
            return ref;
          }
          case ThreadExprKind::kGeneric:
            ref.cls = ExprClass::kGeneric;
            ref.base = compileProgram(expr, /*allow_tid=*/true);
            program_.num_generic_ += 1;
            return ref;
        }
        fail("unknown thread-expression class");
    }

    /**
     * Decode a guard predicate. Conjunctions of comparisons whose sides
     * avoid the generic per-thread program become a list of split
     * compares; anything else keeps the whole-expression form.
     */
    PredRef
    decodePred(const ir::Expr &expr)
    {
        PredRef pred;
        if (!expr)
            return pred;
        std::vector<const ir::Expr *> conjuncts;
        bool splittable =
            collectConjuncts(expr, conjuncts) && conjuncts.size() <= 4;
        if (splittable) {
            for (const ir::Expr *c : conjuncts) {
                const auto &node =
                    static_cast<const ir::BinaryNode &>(**c);
                PredRef::Cmp cmp;
                cmp.op = static_cast<uint8_t>(node.op);
                cmp.lhs = decodeThreadExpr(node.a);
                cmp.rhs = decodeThreadExpr(node.b);
                if (cmp.lhs.cls == ExprClass::kGeneric ||
                    cmp.rhs.cls == ExprClass::kGeneric) {
                    // No faster than the whole program; undo the split
                    // (the counters already ticked, acceptable skew).
                    pred.conj.clear();
                    splittable = false;
                    break;
                }
                pred.conj.push_back(std::move(cmp));
            }
        }
        if (!splittable || pred.conj.empty()) {
            pred.conj.clear();
            pred.whole = decodeThreadExpr(expr);
        }
        return pred;
    }

    /** Flatten an && tree of comparisons; false if any leaf is not one. */
    static bool
    collectConjuncts(const ir::Expr &expr,
                     std::vector<const ir::Expr *> &out)
    {
        if (expr->kind() != ir::ExprKind::kBinary)
            return false;
        const auto &node = static_cast<const ir::BinaryNode &>(*expr);
        switch (node.op) {
          case ir::BinaryOp::kAnd:
            return collectConjuncts(node.a, out) &&
                   collectConjuncts(node.b, out);
          case ir::BinaryOp::kEq:
          case ir::BinaryOp::kNe:
          case ir::BinaryOp::kLt:
          case ir::BinaryOp::kLe:
          case ir::BinaryOp::kGt:
          case ir::BinaryOp::kGe:
            out.push_back(&expr);
            return true;
          default:
            return false;
        }
    }

    /** Decode a uniform-context expression (loop bound, branch, assign). */
    int32_t
    decodeUniformExpr(const ir::Expr &expr)
    {
        ExprRef ref;
        if (expr->kind() == ir::ExprKind::kConst) {
            ref.cls = ExprClass::kConst;
            ref.konst = static_cast<const ir::ConstNode &>(*expr).ivalue;
        } else {
            ref.cls = ExprClass::kUniform;
            ref.base = compileProgram(expr, /*allow_tid=*/false);
        }
        program_.uniform_exprs_.push_back(std::move(ref));
        return static_cast<int32_t>(program_.uniform_exprs_.size() - 1);
    }

    int32_t
    constUniformExpr(int64_t value)
    {
        ExprRef ref;
        ref.cls = ExprClass::kConst;
        ref.konst = value;
        program_.uniform_exprs_.push_back(std::move(ref));
        return static_cast<int32_t>(program_.uniform_exprs_.size() - 1);
    }
    /// @}

    /// @name Tensors.
    /// @{
    void
    decodeTensors()
    {
        program_.tensors_.reserve(kernel_.tensors.size());
        for (const TensorDecl &decl : kernel_.tensors) {
            TensorInfo info;
            info.storage = decl.storage;
            info.bits = decl.dtype.bits();
            info.locals = decl.layout.localsPerThread();
            info.dtype = decl.dtype;
            if (decl.dtype == tilus::float32()) {
                info.codec = ValueCodec::kF32;
            } else if (decl.dtype.bits() <= 16) {
                info.codec = ValueCodec::kLut;
                info.decode_lut = decodeLutFor(decl.dtype);
            }
            program_.tensors_.push_back(std::move(info));
        }
    }

    int
    tensorIndex(int tensor_id)
    {
        for (size_t i = 0; i < kernel_.tensors.size(); ++i)
            if (kernel_.tensors[i].id == tensor_id)
                return static_cast<int>(i);
        fail("unknown LIR tensor id " + std::to_string(tensor_id));
    }
    /// @}

    /// @name Control-flow flattening.
    /// @{
    int32_t pc() const { return static_cast<int32_t>(program_.ops_.size()); }

    void
    emit(MicroOp op)
    {
        program_.ops_.push_back(op);
    }

    void
    flattenBody(const LBody &body)
    {
        for (const LNode &node : body) {
            if (std::holds_alternative<LOp>(node.node)) {
                decodeLeaf(std::get<LOp>(node.node));
            } else if (std::holds_alternative<LFor>(node.node)) {
                flattenFor(std::get<LFor>(node.node));
            } else if (std::holds_alternative<LWhile>(node.node)) {
                flattenWhile(std::get<LWhile>(node.node));
            } else if (std::holds_alternative<LAssign>(node.node)) {
                const auto &assign = std::get<LAssign>(node.node);
                emit(MicroOp{MicroOp::kAssign,
                             slotFor(*assign.var.node()),
                             decodeUniformExpr(assign.value), 0});
            } else if (std::holds_alternative<LBreak>(node.node)) {
                if (loops_.empty())
                    fail("break outside a loop");
                loops_.back().break_fixups.push_back(pc());
                emit(MicroOp{MicroOp::kJump, 0, 0, 0});
            } else if (std::holds_alternative<LContinue>(node.node)) {
                if (loops_.empty())
                    fail("continue outside a loop");
                loops_.back().continue_fixups.push_back(pc());
                emit(MicroOp{MicroOp::kJump, 0, 0, 0});
            } else {
                flattenIf(std::get<LIf>(node.node));
            }
        }
    }

    void
    flattenFor(const LFor &loop)
    {
        // extent_slot = extent; counter = 0;
        // head: if counter >= extent_slot goto exit
        //   i = counter            (the user-visible variable binds per
        //   body...                 iteration, so after the loop it holds
        // inc: ++counter; goto head extent-1 — or stays unbound for a
        // exit:                     zero-trip loop — like the tree walk)
        int32_t extent_slot = newSlot("");
        int32_t counter_slot = newSlot("");
        int32_t i_slot = slotFor(*loop.var.node());
        emit(MicroOp{MicroOp::kAssign, extent_slot,
                     decodeUniformExpr(loop.extent), 0});
        emit(MicroOp{MicroOp::kAssign, counter_slot, constUniformExpr(0),
                     0});
        int32_t head = pc();
        int32_t head_fixup = head;
        emit(MicroOp{MicroOp::kLoopHead, counter_slot, extent_slot, 0});
        emit(MicroOp{MicroOp::kCopySlot, i_slot, counter_slot, 0});
        loops_.push_back(LoopCtx{});
        flattenBody(*loop.body);
        LoopCtx ctx = std::move(loops_.back());
        loops_.pop_back();
        int32_t inc = pc();
        emit(MicroOp{MicroOp::kLoopInc, counter_slot, head, 0});
        int32_t exit = pc();
        program_.ops_[head_fixup].c = exit;
        for (int32_t fixup : ctx.break_fixups)
            program_.ops_[fixup].a = exit;
        for (int32_t fixup : ctx.continue_fixups)
            program_.ops_[fixup].a = inc;
    }

    void
    flattenWhile(const LWhile &loop)
    {
        int32_t head = pc();
        int32_t cond = decodeUniformExpr(loop.cond);
        int32_t head_fixup = pc();
        emit(MicroOp{MicroOp::kBranchIfZero, 0, cond, 0});
        loops_.push_back(LoopCtx{});
        flattenBody(*loop.body);
        LoopCtx ctx = std::move(loops_.back());
        loops_.pop_back();
        emit(MicroOp{MicroOp::kJump, head, 0, 0});
        int32_t exit = pc();
        program_.ops_[head_fixup].a = exit;
        for (int32_t fixup : ctx.break_fixups)
            program_.ops_[fixup].a = exit;
        // `continue` in a while loop re-evaluates the condition.
        for (int32_t fixup : ctx.continue_fixups)
            program_.ops_[fixup].a = head;
    }

    void
    flattenIf(const LIf &branch)
    {
        int32_t cond = decodeUniformExpr(branch.cond);
        int32_t skip_then = pc();
        emit(MicroOp{MicroOp::kBranchIfZero, 0, cond, 0});
        flattenBody(*branch.then_body);
        if (branch.else_body) {
            int32_t skip_else = pc();
            emit(MicroOp{MicroOp::kJump, 0, 0, 0});
            program_.ops_[skip_then].a = pc();
            flattenBody(*branch.else_body);
            program_.ops_[skip_else].a = pc();
        } else {
            program_.ops_[skip_then].a = pc();
        }
    }
    /// @}

    /// @name Leaf-op decoding (one case per LOp alternative).
    /// @{
    void
    pushLeaf(DecodedLeaf leaf)
    {
        program_.leaves_.push_back(std::move(leaf));
        emit(MicroOp{MicroOp::kLeaf,
                     static_cast<int32_t>(program_.leaves_.size() - 1), 0,
                     0});
    }

    void
    decodeMma(const MmaTile &op, DecodedLeaf &leaf)
    {
        // The gather/scatter tables depend only on the mma shape (the
        // atom layouts are fixed); matmul kernels carry dozens of
        // MmaTile leaves, so the tables are built once per shape per
        // process and shared by reference.
        using ShapeTables = DecodedLeaf::MmaTables;
        static std::mutex mutex;
        static std::map<std::tuple<int, int, int>,
                        std::shared_ptr<const ShapeTables>> cache;
        std::lock_guard<std::mutex> lock(mutex);
        auto key = std::make_tuple(op.m, op.n, op.k);
        auto it = cache.find(key);
        if (it == cache.end()) {
            Layout atom_a, atom_b, atom_c;
            if (op.m == 16 && op.n == 8 && op.k == 16) {
                atom_a = atoms::mmaM16N8K16A();
                atom_b = atoms::mmaM16N8K16B();
                atom_c = atoms::mmaM16N8K16C();
            } else if (op.m == 16 && op.n == 8 && op.k == 8) {
                atom_a = atoms::mmaM16N8K8A();
                atom_b = atoms::mmaM16N8K8B();
                atom_c = atoms::mmaM16N8K8C();
            } else {
                fail("unsupported mma shape m" + std::to_string(op.m) +
                     "n" + std::to_string(op.n) + "k" +
                     std::to_string(op.k));
            }
            ShapeTables tables;
            tables.a_locals = atom_a.localsPerThread();
            tables.b_locals = atom_b.localsPerThread();
            tables.c_locals = atom_c.localsPerThread();
            auto fill = [](const Layout &atom, int64_t locals,
                           int64_t cols, std::vector<int32_t> &table) {
                table.resize(static_cast<size_t>(32 * locals));
                for (int lane = 0; lane < 32; ++lane) {
                    for (int64_t j = 0; j < locals; ++j) {
                        auto idx = atom.logicalIndexOf(lane, j);
                        table[static_cast<size_t>(lane * locals + j)] =
                            static_cast<int32_t>(idx[0] * cols + idx[1]);
                    }
                }
            };
            fill(atom_a, tables.a_locals, op.k, tables.a_idx);
            fill(atom_b, tables.b_locals, op.n, tables.b_idx);
            fill(atom_c, tables.c_locals, op.n, tables.c_idx);
            it = cache
                     .emplace(key, std::make_shared<const ShapeTables>(
                                       std::move(tables)))
                     .first;
        }
        leaf.mma = it->second;
    }

    void
    decodeLeaf(const LOp &op)
    {
        DecodedLeaf leaf;
        leaf.op = &op;
        std::visit(
            [&](const auto &o) {
                using T = std::decay_t<decltype(o)>;
                if constexpr (std::is_same_v<T, LoadGlobalVec>) {
                    leaf.kind = DecodedLeaf::kLoadGlobalVec;
                    leaf.t_a = tensorIndex(o.dst_tensor);
                    leaf.addr = decodeThreadExpr(o.addr);
                    leaf.pred = decodePred(o.pred);
                } else if constexpr (std::is_same_v<T, StoreGlobalVec>) {
                    leaf.kind = DecodedLeaf::kStoreGlobalVec;
                    leaf.t_a = tensorIndex(o.src_tensor);
                    leaf.addr = decodeThreadExpr(o.addr);
                    leaf.pred = decodePred(o.pred);
                } else if constexpr (std::is_same_v<T, LoadGlobalBits>) {
                    leaf.kind = DecodedLeaf::kLoadGlobalBits;
                    leaf.t_a = tensorIndex(o.dst_tensor);
                    leaf.addr = decodeThreadExpr(o.bit_addr);
                } else if constexpr (std::is_same_v<T, StoreGlobalBits>) {
                    leaf.kind = DecodedLeaf::kStoreGlobalBits;
                    leaf.t_a = tensorIndex(o.src_tensor);
                    leaf.addr = decodeThreadExpr(o.bit_addr);
                } else if constexpr (std::is_same_v<T, LoadSharedVec>) {
                    leaf.kind = DecodedLeaf::kLoadSharedVec;
                    leaf.t_a = tensorIndex(o.dst_tensor);
                    leaf.addr = decodeThreadExpr(o.addr);
                } else if constexpr (std::is_same_v<T, StoreSharedVec>) {
                    leaf.kind = DecodedLeaf::kStoreSharedVec;
                    leaf.t_a = tensorIndex(o.src_tensor);
                    leaf.addr = decodeThreadExpr(o.addr);
                    leaf.pred = decodePred(o.pred);
                } else if constexpr (std::is_same_v<T, CpAsync>) {
                    leaf.kind = DecodedLeaf::kCpAsync;
                    leaf.addr = decodeThreadExpr(o.smem_addr);
                    leaf.addr2 = decodeThreadExpr(o.gmem_addr);
                    leaf.pred = decodePred(o.pred);
                    leaf.pred2 = decodePred(o.issue_pred);
                } else if constexpr (std::is_same_v<T, CpAsyncCommit>) {
                    leaf.kind = DecodedLeaf::kCpAsyncCommit;
                } else if constexpr (std::is_same_v<T, CpAsyncWait>) {
                    leaf.kind = DecodedLeaf::kCpAsyncWait;
                } else if constexpr (std::is_same_v<T, BarSync>) {
                    leaf.kind = DecodedLeaf::kBarSync;
                } else if constexpr (std::is_same_v<T, MmaTile>) {
                    leaf.kind = DecodedLeaf::kMmaTile;
                    leaf.t_a = tensorIndex(o.a_tensor);
                    leaf.t_b = tensorIndex(o.b_tensor);
                    leaf.t_c = tensorIndex(o.c_tensor);
                    leaf.t_d = tensorIndex(o.d_tensor);
                    decodeMma(o, leaf);
                } else if constexpr (std::is_same_v<T, SimtDot>) {
                    leaf.kind = DecodedLeaf::kSimtDot;
                    leaf.t_a = tensorIndex(o.a_tensor);
                    leaf.t_b = tensorIndex(o.b_tensor);
                    leaf.t_c = tensorIndex(o.c_tensor);
                    leaf.t_d = tensorIndex(o.d_tensor);
                } else if constexpr (std::is_same_v<T, EltwiseBinary>) {
                    leaf.kind = DecodedLeaf::kEltwiseBinary;
                    leaf.t_a = tensorIndex(o.a_tensor);
                    leaf.t_b = tensorIndex(o.b_tensor);
                    leaf.t_d = tensorIndex(o.dst_tensor);
                } else if constexpr (std::is_same_v<T, EltwiseScalar>) {
                    leaf.kind = DecodedLeaf::kEltwiseScalar;
                    leaf.t_a = tensorIndex(o.a_tensor);
                    leaf.t_d = tensorIndex(o.dst_tensor);
                    if (o.scalar->kind() == ir::ExprKind::kConst &&
                        o.scalar->dtype().isFloat()) {
                        leaf.scalar_is_const = true;
                        leaf.scalar_value =
                            static_cast<const ir::ConstNode &>(*o.scalar)
                                .fvalue;
                    } else {
                        leaf.scalar = decodeThreadExpr(o.scalar);
                    }
                } else if constexpr (std::is_same_v<T, EltwiseUnary>) {
                    leaf.kind = DecodedLeaf::kEltwiseUnary;
                    leaf.t_a = tensorIndex(o.a_tensor);
                    leaf.t_d = tensorIndex(o.dst_tensor);
                } else if constexpr (std::is_same_v<T, CastTensor>) {
                    leaf.kind = DecodedLeaf::kCastTensor;
                    leaf.t_a = tensorIndex(o.src_tensor);
                    leaf.t_d = tensorIndex(o.dst_tensor);
                    const DataType &src =
                        kernel_.tensors[leaf.t_a].dtype;
                    const DataType &dst =
                        kernel_.tensors[leaf.t_d].dtype;
                    if (src.bits() <= 16)
                        leaf.cast_lut = castLutFor(src, dst);
                } else if constexpr (std::is_same_v<T, InitTensor>) {
                    leaf.kind = DecodedLeaf::kInitTensor;
                    leaf.t_d = tensorIndex(o.dst_tensor);
                    leaf.init_bits = encodeValue(
                        kernel_.tensors[leaf.t_d].dtype, o.value);
                } else if constexpr (std::is_same_v<T, PrintTensor>) {
                    leaf.kind = DecodedLeaf::kPrintTensor;
                    leaf.t_a = tensorIndex(o.tensor);
                } else if constexpr (std::is_same_v<T, ExitOp>) {
                    // Lowered as a jump to the halt op, not a leaf.
                    end_fixups_.push_back(pc());
                    emit(MicroOp{MicroOp::kJump, 0, 0, 0});
                    return;
                } else {
                    fail("leaf op without a decoder case");
                }
                pushLeaf(std::move(leaf));
            },
            op);
    }
    /// @}

    struct LoopCtx
    {
        std::vector<int32_t> break_fixups;
        std::vector<int32_t> continue_fixups;
    };

    const lir::Kernel &kernel_;
    MicroProgram program_;
    std::unordered_map<int, int32_t> slot_of_var_;
    int32_t next_slot_ = 0;
    std::vector<LoopCtx> loops_;
    std::vector<int32_t> end_fixups_;
};

MicroProgram
compileMicroProgram(const lir::Kernel &kernel)
{
    return MicroDecoder(kernel).run();
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

namespace {

using detail::PendingCopy;
using detail::applyTensorBinary;

/**
 * Executes one thread block functionally by dispatching over the flat
 * micro-op program. Mirrors interpreter.cc's BlockExecutor semantics
 * exactly — same memory mutations, deferred cp.async groups and
 * statistics — with pre-decoded addressing instead of tree walks.
 */
class MicroExecutor
{
  public:
    MicroExecutor(const MicroProgram &program, Device *device,
                  SimStats &stats, const RunOptions &options,
                  bool is_first_block)
        : program_(program), kernel_(*program.kernel()), device_(device),
          stats_(stats), options_(options), first_block_(is_first_block)
    {
        smem_.assign(static_cast<size_t>(kernel_.smem_bytes), 0);
        std::vector<int64_t> bits(kernel_.num_storages, 0);
        for (const TensorDecl &t : kernel_.tensors)
            bits[t.storage] = std::max(bits[t.storage], t.storage_bits);
        storage_bytes_.resize(kernel_.num_storages);
        storages_.resize(kernel_.num_storages);
        for (int s = 0; s < kernel_.num_storages; ++s) {
            storage_bytes_[s] = ceilDiv(bits[s], 8);
            storages_[s].assign(
                static_cast<size_t>(storage_bytes_[s]) *
                    kernel_.block_threads,
                0);
        }
        regs_.assign(static_cast<size_t>(program.numSlots()), 0);
        bound_.assign((regs_.size() + 63) / 64, 0);
    }

    void
    run(const ir::Env &block_env)
    {
        for (const MicroProgram::VarSlot &vs : program_.varSlots()) {
            int64_t value;
            if (block_env.lookup(vs.var_id, value)) {
                regs_[vs.slot] = value;
                setBound(vs.slot);
            }
        }
        const MicroOp *ops = program_.ops().data();
        int32_t pc = 0;
        for (;;) {
            const MicroOp &op = ops[pc];
            switch (op.kind) {
              case MicroOp::kLeaf: {
                const DecodedLeaf &leaf = program_.leaves()[op.a];
                if (options_.profile == nullptr) {
                    execLeaf(leaf);
                } else {
                    const Counters before = stats_;
                    execLeaf(leaf);
                    options_.profile->attribute(leaf.op, before,
                                                stats_);
                }
                ++pc;
                break;
              }
              case MicroOp::kJump:
                pc = op.a;
                break;
              case MicroOp::kBranchIfZero:
                pc = evalUniform(op.b) == 0 ? op.a : pc + 1;
                break;
              case MicroOp::kAssign:
                regs_[op.a] = evalUniform(op.b);
                setBound(op.a);
                ++pc;
                break;
              case MicroOp::kCopySlot:
                regs_[op.a] = regs_[op.b];
                setBound(op.a);
                ++pc;
                break;
              case MicroOp::kLoopHead:
                pc = regs_[op.a] >= regs_[op.b] ? op.c : pc + 1;
                break;
              case MicroOp::kLoopInc:
                ++regs_[op.a];
                pc = op.b;
                break;
              case MicroOp::kHalt:
                // Hardware drains outstanding copies at kernel end
                // (same rationale as BlockExecutor::run).
                drainTo(0);
                return;
            }
        }
    }

  private:
    /// @name Slot-program evaluation.
    /// @{
    void
    setBound(int32_t slot)
    {
        bound_[static_cast<size_t>(slot) >> 6] |= 1ull << (slot & 63);
    }

    bool
    isBound(int32_t slot) const
    {
        return (bound_[static_cast<size_t>(slot) >> 6] >>
                (slot & 63)) & 1;
    }

    int64_t
    evalProgram(const ExprProgram &prog, int64_t tid) const
    {
        int64_t stack[kMaxEvalStack];
        int sp = 0;
        const SlotInstr *code = prog.code.data();
        const int n = static_cast<int>(prog.code.size());
        for (int pc = 0; pc < n; ++pc) {
            const SlotInstr &ins = code[pc];
            switch (ins.kind) {
              case SlotInstr::kConst:
                stack[sp++] = ins.imm;
                break;
              case SlotInstr::kSlot:
                TILUS_CHECK_MSG(isBound(ins.slot),
                                "unbound variable '"
                                    << program_.slotNames()[ins.slot]
                                    << "'");
                stack[sp++] = regs_[ins.slot];
                break;
              case SlotInstr::kTid:
                stack[sp++] = tid;
                break;
              case SlotInstr::kUnary: {
                int64_t &a = stack[sp - 1];
                switch (static_cast<ir::UnaryOp>(ins.op)) {
                  case ir::UnaryOp::kNeg: a = -a; break;
                  case ir::UnaryOp::kBitNot: a = ~a; break;
                  case ir::UnaryOp::kNot: a = (a == 0); break;
                }
                break;
              }
              case SlotInstr::kBinary: {
                int64_t b = stack[--sp];
                int64_t &a = stack[sp - 1];
                switch (static_cast<ir::BinaryOp>(ins.op)) {
                  case ir::BinaryOp::kAdd: a = a + b; break;
                  case ir::BinaryOp::kSub: a = a - b; break;
                  case ir::BinaryOp::kMul: a = a * b; break;
                  case ir::BinaryOp::kDiv:
                    TILUS_CHECK_MSG(b != 0, "division by zero");
                    a = a / b;
                    break;
                  case ir::BinaryOp::kMod:
                    TILUS_CHECK_MSG(b != 0, "modulo by zero");
                    a = a % b;
                    break;
                  case ir::BinaryOp::kMin: a = std::min(a, b); break;
                  case ir::BinaryOp::kMax: a = std::max(a, b); break;
                  case ir::BinaryOp::kBitAnd: a = a & b; break;
                  case ir::BinaryOp::kBitOr: a = a | b; break;
                  case ir::BinaryOp::kBitXor: a = a ^ b; break;
                  case ir::BinaryOp::kShl: a = a << b; break;
                  case ir::BinaryOp::kShr: a = a >> b; break;
                  case ir::BinaryOp::kAnd: a = (a != 0 && b != 0); break;
                  case ir::BinaryOp::kOr: a = (a != 0 || b != 0); break;
                  case ir::BinaryOp::kEq: a = (a == b); break;
                  case ir::BinaryOp::kNe: a = (a != b); break;
                  case ir::BinaryOp::kLt: a = (a < b); break;
                  case ir::BinaryOp::kLe: a = (a <= b); break;
                  case ir::BinaryOp::kGt: a = (a > b); break;
                  case ir::BinaryOp::kGe: a = (a >= b); break;
                }
                break;
              }
              case SlotInstr::kBrZ:
                if (stack[--sp] == 0)
                    pc += ins.slot;
                break;
              case SlotInstr::kJmpRel:
                pc += ins.slot;
                break;
            }
        }
        return stack[sp - 1];
    }

    int64_t
    evalUniform(int32_t index) const
    {
        const ExprRef &e = program_.uniformExprs()[index];
        return e.cls == ExprClass::kConst ? e.konst
                                          : evalProgram(e.base, 0);
    }

    /** A prepared per-thread value generator: base + tid*stride (+table). */
    struct Gen
    {
        int64_t base = 0;
        int64_t stride = 0;
        const int64_t *table = nullptr;    ///< kTabulated per-thread part
        const ExprProgram *prog = nullptr; ///< kGeneric per-thread program
    };

    Gen
    prepare(const ExprRef &e) const
    {
        Gen gen;
        switch (e.cls) {
          case ExprClass::kNone:
            break;
          case ExprClass::kConst:
            gen.base = e.konst;
            break;
          case ExprClass::kUniform:
            gen.base = evalProgram(e.base, 0);
            break;
          case ExprClass::kAffine:
            gen.base = evalProgram(e.base, 0);
            gen.stride = evalProgram(e.stride, 0);
            break;
          case ExprClass::kTabulated:
            gen.base = e.base.code.empty() ? 0 : evalProgram(e.base, 0);
            gen.table = e.table.data();
            break;
          case ExprClass::kGeneric:
            gen.prog = &e.base;
            break;
        }
        return gen;
    }

    int64_t
    genAt(const Gen &gen, int thread) const
    {
        if (gen.prog)
            return evalProgram(*gen.prog, thread);
        if (gen.table)
            return gen.base + gen.table[thread];
        return gen.base + thread * gen.stride;
    }

    /**
     * Lazily prepared generator: the uniform/affine parts are evaluated
     * only when the first thread actually needs the value, mirroring
     * exactly where the tree-walk interpreter evaluates each expression
     * (a never-taken address may divide by zero).
     */
    struct LazyGen
    {
        const ExprRef *expr;
        const MicroExecutor *owner;
        bool ready = false;
        Gen gen;

        LazyGen(const ExprRef &e, const MicroExecutor *ex)
            : expr(&e), owner(ex)
        {}

        int64_t
        at(int thread)
        {
            if (!ready) {
                gen = owner->prepare(*expr);
                ready = true;
            }
            return owner->genAt(gen, thread);
        }
    };

    /**
     * Predicate generator: absent predicates are trivially true; split
     * conjunctions evaluate each comparison over fast generators; whole
     * predicates fall back to the lazily prepared expression.
     */
    struct PredGen
    {
        const MicroExecutor *owner;
        const PredRef *pred;
        bool always;
        bool ready = false;
        /// Prepared (lhs, rhs) generators per conjunct, or the whole
        /// expression's generator in slot 0's lhs.
        std::array<std::pair<Gen, Gen>, 4> cmps;
        int num_cmps = 0;

        PredGen(const PredRef &p, const MicroExecutor *ex)
            : owner(ex), pred(&p),
              always(p.conj.empty() &&
                     p.whole.cls == ExprClass::kNone)
        {}

        bool
        at(int thread)
        {
            if (always)
                return true;
            if (!ready) {
                if (!pred->conj.empty() &&
                    pred->conj.size() <= cmps.size()) {
                    num_cmps = static_cast<int>(pred->conj.size());
                    for (int i = 0; i < num_cmps; ++i) {
                        cmps[i].first =
                            owner->prepare(pred->conj[i].lhs);
                        cmps[i].second =
                            owner->prepare(pred->conj[i].rhs);
                    }
                } else {
                    num_cmps = 0;
                    cmps[0].first = owner->prepare(pred->whole);
                }
                ready = true;
            }
            if (num_cmps == 0)
                return owner->genAt(cmps[0].first, thread) != 0;
            for (int i = 0; i < num_cmps; ++i) {
                int64_t a = owner->genAt(cmps[i].first, thread);
                int64_t b = owner->genAt(cmps[i].second, thread);
                bool ok;
                switch (static_cast<ir::BinaryOp>(pred->conj[i].op)) {
                  case ir::BinaryOp::kEq: ok = a == b; break;
                  case ir::BinaryOp::kNe: ok = a != b; break;
                  case ir::BinaryOp::kLt: ok = a < b; break;
                  case ir::BinaryOp::kLe: ok = a <= b; break;
                  case ir::BinaryOp::kGt: ok = a > b; break;
                  case ir::BinaryOp::kGe: ok = a >= b; break;
                  default: ok = false; break;
                }
                if (!ok)
                    return false;
            }
            return true;
        }
    };
    /// @}

    /// @name Per-thread register storage access.
    /// @{
    uint64_t
    readElement(const TensorInfo &t, int thread, int64_t slot) const
    {
        const auto &buf = storages_[t.storage];
        const uint8_t *base =
            buf.data() +
            static_cast<size_t>(thread) * storage_bytes_[t.storage];
        return getBits(base, slot * t.bits, t.bits);
    }

    void
    writeElement(const TensorInfo &t, int thread, int64_t slot,
                 uint64_t value)
    {
        auto &buf = storages_[t.storage];
        uint8_t *base = buf.data() + static_cast<size_t>(thread) *
                                         storage_bytes_[t.storage];
        setBits(base, slot * t.bits, t.bits, value);
    }

    uint8_t *
    storagePtr(const TensorInfo &t, int thread)
    {
        return storages_[t.storage].data() +
               static_cast<size_t>(thread) * storage_bytes_[t.storage];
    }

    double
    decodeFast(const TensorInfo &t, uint64_t bits) const
    {
        switch (t.codec) {
          case ValueCodec::kF32: {
            // Bit-for-bit equivalent to decodeValue(f32, ...): exact for
            // normals/subnormals/inf; NaNs stay NaN (payloads are
            // invisible downstream, every encode canonicalizes).
            float f;
            uint32_t u = static_cast<uint32_t>(bits);
            std::memcpy(&f, &u, sizeof(f));
            return f;
          }
          case ValueCodec::kLut:
            return (*t.decode_lut)[bits];
          case ValueCodec::kGeneric:
            break;
        }
        return decodeValue(t.dtype, bits);
    }

    /** decodeFast narrowed to float (the mma fragment element type). */
    float
    decodeFastF(const TensorInfo &t, uint64_t bits) const
    {
        switch (t.codec) {
          case ValueCodec::kF32: {
            float f;
            uint32_t u = static_cast<uint32_t>(bits);
            std::memcpy(&f, &u, sizeof(f));
            return f;
          }
          case ValueCodec::kLut:
            return (*t.decode_lut)[bits];
          case ValueCodec::kGeneric:
            break;
        }
        return static_cast<float>(decodeValue(t.dtype, bits));
    }

    uint64_t
    encodeFast(const TensorInfo &t, double value) const
    {
        if (t.codec == ValueCodec::kF32) {
            // Matches encodeFloat(f32, ...): IEEE round-to-nearest-even
            // double->float conversion, canonical quiet NaN.
            if (std::isnan(value))
                return 0x7FC00000u;
            float f = static_cast<float>(value);
            uint32_t u;
            std::memcpy(&u, &f, sizeof(u));
            return u;
        }
        return encodeValue(t.dtype, value);
    }
    /// @}

    void
    countSectors(const std::vector<std::pair<int64_t, int>> &accesses)
    {
        detail::countSectors(accesses, options_, stats_);
    }

    void
    drainTo(int n)
    {
        queue_.drainTo(n, compute_ops_, smem_, device_, options_, stats_);
    }

    template <int M, int N, int K>
    static void
    mmaCompute(const float *__restrict a, const float *__restrict b,
               const float *__restrict c, float *__restrict d)
    {
        for (int i = 0; i < M; ++i) {
            float *__restrict drow = d + i * N;
            const float *__restrict crow = c + i * N;
            for (int jn = 0; jn < N; ++jn)
                drow[jn] = crow[jn];
            for (int kk = 0; kk < K; ++kk) {
                const float aik = a[i * K + kk];
                const float *__restrict brow = b + kk * N;
                for (int jn = 0; jn < N; ++jn)
                    drow[jn] += aik * brow[jn];
            }
        }
    }

    void execLeaf(const DecodedLeaf &leaf);
    void execMma(const DecodedLeaf &leaf);
    void printTensor(const DecodedLeaf &leaf);

    const MicroProgram &program_;
    const lir::Kernel &kernel_;
    Device *device_;
    SimStats &stats_;
    const RunOptions &options_;
    bool first_block_;

    std::vector<uint8_t> smem_;
    std::vector<std::vector<uint8_t>> storages_;
    std::vector<int64_t> storage_bytes_;
    detail::CpAsyncQueue queue_;
    int64_t compute_ops_ = 0;
    std::vector<int64_t> regs_;
    std::vector<uint64_t> bound_;
    /// execMma fragment scratch, reused across calls.
    std::vector<float> mma_a_, mma_b_, mma_c_, mma_d_;
};

void
MicroExecutor::execLeaf(const DecodedLeaf &leaf)
{
    const int threads = kernel_.block_threads;
    switch (leaf.kind) {
      case DecodedLeaf::kLoadGlobalVec: {
        const auto &o = std::get<LoadGlobalVec>(*leaf.op);
        const TensorInfo &t = program_.tensorInfo()[leaf.t_a];
        PredGen pred(leaf.pred, this);
        LazyGen addr(leaf.addr, this);
        int64_t active_lanes = 0;
        for (int w = 0; w < threads / 32; ++w) {
            std::vector<std::pair<int64_t, int>> accesses;
            for (int lane = 0; lane < 32; ++lane) {
                int thread = w * 32 + lane;
                uint8_t *dst = storagePtr(t, thread) + o.dst_byte;
                if (!pred.at(thread)) {
                    std::memset(dst, 0, o.bytes);
                    continue;
                }
                if (device_) {
                    int64_t a = addr.at(thread);
                    accesses.emplace_back(a, o.bytes);
                    device_->read(static_cast<uint64_t>(a), dst, o.bytes);
                } else {
                    std::memset(dst, 0, o.bytes);
                }
                active_lanes += 1;
            }
            countSectors(accesses);
            stats_.ldg_ops += 1;
        }
        stats_.global_load_bytes += o.bytes * active_lanes;
        stats_.load_bytes_by_global[o.global_id] +=
            o.bytes * active_lanes;
        break;
      }
      case DecodedLeaf::kStoreGlobalVec: {
        const auto &o = std::get<StoreGlobalVec>(*leaf.op);
        const TensorInfo &t = program_.tensorInfo()[leaf.t_a];
        PredGen pred(leaf.pred, this);
        LazyGen addr(leaf.addr, this);
        int64_t active_lanes = 0;
        for (int w = 0; w < threads / 32; ++w) {
            std::vector<std::pair<int64_t, int>> accesses;
            for (int lane = 0; lane < 32; ++lane) {
                int thread = w * 32 + lane;
                if (!pred.at(thread))
                    continue;
                int64_t a = addr.at(thread);
                accesses.emplace_back(a, o.bytes);
                if (device_) {
                    device_->write(static_cast<uint64_t>(a),
                                   storagePtr(t, thread) + o.src_byte,
                                   o.bytes);
                }
                active_lanes += 1;
            }
            countSectors(accesses);
            stats_.stg_ops += 1;
        }
        stats_.global_store_bytes += o.bytes * active_lanes;
        stats_.store_bytes_by_global[o.global_id] +=
            o.bytes * active_lanes;
        break;
      }
      case DecodedLeaf::kLoadGlobalBits: {
        const auto &o = std::get<LoadGlobalBits>(*leaf.op);
        const TensorInfo &t = program_.tensorInfo()[leaf.t_a];
        LazyGen addr(leaf.addr, this);
        for (int thread = 0; thread < threads; ++thread) {
            int64_t bit_addr = addr.at(thread);
            uint64_t value = device_ ? device_->readBits(bit_addr, o.bits)
                                     : 0;
            uint8_t *base = storagePtr(t, thread);
            setBits(base, o.dst_bit, o.bits, value);
            stats_.bit_extract_ops += 1;
            int64_t touched = (bit_addr + o.bits + 7) / 8 - bit_addr / 8;
            stats_.global_load_bytes += touched;
            stats_.load_bytes_by_global[o.global_id] += touched;
        }
        break;
      }
      case DecodedLeaf::kStoreGlobalBits: {
        const auto &o = std::get<StoreGlobalBits>(*leaf.op);
        const TensorInfo &t = program_.tensorInfo()[leaf.t_a];
        LazyGen addr(leaf.addr, this);
        for (int thread = 0; thread < threads; ++thread) {
            int64_t bit_addr = addr.at(thread);
            uint64_t value =
                getBits(storagePtr(t, thread), o.src_bit, o.bits);
            if (device_)
                device_->writeBits(bit_addr, o.bits, value);
            stats_.bit_extract_ops += 1;
            int64_t touched = (bit_addr + o.bits + 7) / 8 - bit_addr / 8;
            stats_.global_store_bytes += touched;
            stats_.store_bytes_by_global[o.global_id] += touched;
        }
        break;
      }
      case DecodedLeaf::kLoadSharedVec: {
        const auto &o = std::get<LoadSharedVec>(*leaf.op);
        const TensorInfo &t = program_.tensorInfo()[leaf.t_a];
        LazyGen addr(leaf.addr, this);
        for (int thread = 0; thread < threads; ++thread) {
            int64_t a = addr.at(thread);
            TILUS_CHECK_MSG(a >= 0 &&
                                a + o.bytes <=
                                    static_cast<int64_t>(smem_.size()),
                            "lds outside shared memory: " << a);
            std::memcpy(storagePtr(t, thread) + o.dst_byte,
                        smem_.data() + a, o.bytes);
            stats_.smem_load_bytes += o.bytes;
        }
        if (o.via_ldmatrix)
            stats_.ldmatrix_ops += threads / 32;
        else
            stats_.lds_ops += threads / 32;
        break;
      }
      case DecodedLeaf::kStoreSharedVec: {
        const auto &o = std::get<StoreSharedVec>(*leaf.op);
        const TensorInfo &t = program_.tensorInfo()[leaf.t_a];
        PredGen pred(leaf.pred, this);
        LazyGen addr(leaf.addr, this);
        for (int thread = 0; thread < threads; ++thread) {
            if (!pred.at(thread))
                continue;
            int64_t a = addr.at(thread);
            TILUS_CHECK_MSG(a >= 0 &&
                                a + o.bytes <=
                                    static_cast<int64_t>(smem_.size()),
                            "sts outside shared memory: " << a);
            std::memcpy(smem_.data() + a,
                        storagePtr(t, thread) + o.src_byte, o.bytes);
            stats_.smem_store_bytes += o.bytes;
        }
        stats_.sts_ops += threads / 32;
        break;
      }
      case DecodedLeaf::kCpAsync: {
        const auto &o = std::get<CpAsync>(*leaf.op);
        PredGen issue(leaf.pred2, this);
        PredGen pred(leaf.pred, this);
        LazyGen smem_addr(leaf.addr, this);
        LazyGen gmem_addr(leaf.addr2, this);
        int64_t active_lanes = 0;
        for (int w = 0; w < threads / 32; ++w) {
            std::vector<std::pair<int64_t, int>> accesses;
            for (int lane = 0; lane < 32; ++lane) {
                int thread = w * 32 + lane;
                if (!issue.at(thread))
                    continue;
                bool active = pred.at(thread);
                int64_t sa = smem_addr.at(thread);
                int64_t ga = active ? gmem_addr.at(thread) : 0;
                queue_.push(PendingCopy{sa, ga, o.bytes, active});
                if (active) {
                    accesses.emplace_back(ga, o.bytes);
                    active_lanes += 1;
                }
            }
            countSectors(accesses);
        }
        stats_.cp_async_bytes += o.bytes * active_lanes;
        stats_.global_load_bytes += o.bytes * active_lanes;
        stats_.load_bytes_by_global[o.global_id] +=
            o.bytes * active_lanes;
        break;
      }
      case DecodedLeaf::kCpAsyncCommit:
        queue_.commit(compute_ops_, stats_);
        break;
      case DecodedLeaf::kCpAsyncWait:
        drainTo(std::get<CpAsyncWait>(*leaf.op).n);
        break;
      case DecodedLeaf::kBarSync:
        stats_.bar_syncs += 1;
        break;
      case DecodedLeaf::kMmaTile:
        execMma(leaf);
        break;
      case DecodedLeaf::kSimtDot: {
        const auto &o = std::get<SimtDot>(*leaf.op);
        const TensorInfo &ta = program_.tensorInfo()[leaf.t_a];
        const TensorInfo &tb = program_.tensorInfo()[leaf.t_b];
        const TensorInfo &tc = program_.tensorInfo()[leaf.t_c];
        const TensorInfo &td = program_.tensorInfo()[leaf.t_d];
        for (int thread = 0; thread < threads; ++thread) {
            for (const auto &mac : o.macs) {
                double a = decodeFast(ta, readElement(ta, thread, mac[1]));
                double b = decodeFast(tb, readElement(tb, thread, mac[2]));
                double c = decodeFast(tc, readElement(tc, thread, mac[0]));
                double d = static_cast<float>(
                    c + static_cast<float>(a) * static_cast<float>(b));
                writeElement(td, thread, mac[0], encodeFast(td, d));
            }
        }
        stats_.simt_fma += static_cast<int64_t>(o.macs.size()) * threads;
        compute_ops_ += 1;
        break;
      }
      case DecodedLeaf::kEltwiseBinary: {
        const auto &o = std::get<EltwiseBinary>(*leaf.op);
        const TensorInfo &ta = program_.tensorInfo()[leaf.t_a];
        const TensorInfo &tb = program_.tensorInfo()[leaf.t_b];
        const TensorInfo &td = program_.tensorInfo()[leaf.t_d];
        int64_t locals = ta.locals;
        for (int thread = 0; thread < threads; ++thread) {
            for (int64_t i = 0; i < locals; ++i) {
                int64_t bi = o.b_slot_map.empty() ? i : o.b_slot_map[i];
                double a = decodeFast(ta, readElement(ta, thread, i));
                double b = decodeFast(tb, readElement(tb, thread, bi));
                writeElement(
                    td, thread, i,
                    encodeFast(td, applyTensorBinary(o.op, a, b)));
            }
        }
        stats_.alu_elt_ops += locals * threads;
        break;
      }
      case DecodedLeaf::kEltwiseScalar: {
        const auto &o = std::get<EltwiseScalar>(*leaf.op);
        const TensorInfo &ta = program_.tensorInfo()[leaf.t_a];
        const TensorInfo &td = program_.tensorInfo()[leaf.t_d];
        int64_t locals = ta.locals;
        LazyGen scalar(leaf.scalar, this);
        for (int thread = 0; thread < threads; ++thread) {
            double s = leaf.scalar_is_const
                           ? leaf.scalar_value
                           : static_cast<double>(scalar.at(thread));
            for (int64_t i = 0; i < locals; ++i) {
                double a = decodeFast(ta, readElement(ta, thread, i));
                writeElement(
                    td, thread, i,
                    encodeFast(td, applyTensorBinary(o.op, a, s)));
            }
        }
        stats_.alu_elt_ops += locals * threads;
        break;
      }
      case DecodedLeaf::kEltwiseUnary: {
        const TensorInfo &ta = program_.tensorInfo()[leaf.t_a];
        const TensorInfo &td = program_.tensorInfo()[leaf.t_d];
        int64_t locals = ta.locals;
        for (int thread = 0; thread < threads; ++thread) {
            for (int64_t i = 0; i < locals; ++i) {
                double a = decodeFast(ta, readElement(ta, thread, i));
                writeElement(td, thread, i, encodeFast(td, -a));
            }
        }
        stats_.alu_elt_ops += locals * threads;
        break;
      }
      case DecodedLeaf::kCastTensor: {
        const auto &o = std::get<CastTensor>(*leaf.op);
        const TensorInfo &ts = program_.tensorInfo()[leaf.t_a];
        const TensorInfo &td = program_.tensorInfo()[leaf.t_d];
        int64_t locals = ts.locals;
        if (leaf.cast_lut) {
            const uint64_t *lut = leaf.cast_lut->data();
            for (int thread = 0; thread < threads; ++thread) {
                for (int64_t i = 0; i < locals; ++i)
                    writeElement(td, thread, i,
                                 lut[readElement(ts, thread, i)]);
            }
        } else {
            for (int thread = 0; thread < threads; ++thread) {
                for (int64_t i = 0; i < locals; ++i) {
                    double v =
                        decodeFast(ts, readElement(ts, thread, i));
                    writeElement(td, thread, i, encodeFast(td, v));
                }
            }
        }
        if (o.vectorized)
            stats_.cast_vec_elems += locals * threads;
        else
            stats_.cast_scalar_elems += locals * threads;
        break;
      }
      case DecodedLeaf::kInitTensor: {
        const TensorInfo &t = program_.tensorInfo()[leaf.t_d];
        int64_t locals = t.locals;
        if (leaf.init_bits == 0 && (t.bits & 7) == 0) {
            // Zero fill of byte-aligned elements: slots are contiguous
            // from bit 0, so the whole span memsets.
            const int64_t span = locals * (t.bits >> 3);
            for (int thread = 0; thread < threads; ++thread)
                std::memset(storagePtr(t, thread), 0,
                            static_cast<size_t>(span));
            break;
        }
        for (int thread = 0; thread < threads; ++thread)
            for (int64_t i = 0; i < locals; ++i)
                writeElement(t, thread, i, leaf.init_bits);
        break;
      }
      case DecodedLeaf::kPrintTensor:
        if (options_.enable_print && first_block_)
            printTensor(leaf);
        break;
    }
}

void
MicroExecutor::execMma(const DecodedLeaf &leaf)
{
    const auto &op = std::get<MmaTile>(*leaf.op);
    const TensorInfo &ta = program_.tensorInfo()[leaf.t_a];
    const TensorInfo &tb = program_.tensorInfo()[leaf.t_b];
    const TensorInfo &tc = program_.tensorInfo()[leaf.t_c];
    const TensorInfo &td = program_.tensorInfo()[leaf.t_d];

    const int warps = kernel_.block_threads / 32;
    mma_a_.resize(static_cast<size_t>(op.m * op.k));
    mma_b_.resize(static_cast<size_t>(op.k * op.n));
    mma_c_.resize(static_cast<size_t>(op.m * op.n));
    mma_d_.resize(static_cast<size_t>(op.m * op.n));
    float *__restrict a = mma_a_.data();
    float *__restrict b = mma_b_.data();
    float *__restrict c = mma_c_.data();
    float *__restrict d = mma_d_.data();
    // Fragment gather with the storage geometry hoisted out of the
    // per-element loops; the f16-LUT and f32 codecs (every tensor-core
    // kernel in the suite) get direct load loops.
    auto gather = [&](const TensorInfo &t, int64_t elem_base,
                      const int32_t *idx_table, int64_t locals,
                      int base_thread, float *__restrict dst) {
        const int64_t sb = storage_bytes_[t.storage];
        const uint8_t *sbase = storages_[t.storage].data() +
                               static_cast<size_t>(base_thread) * sb;
        if (t.bits == 16 && t.codec == ValueCodec::kLut) {
            const float *lut = t.decode_lut->data();
            for (int lane = 0; lane < 32; ++lane) {
                const uint8_t *p = sbase + lane * sb + elem_base * 2;
                const int32_t *idx = idx_table + lane * locals;
                for (int64_t j = 0; j < locals; ++j) {
                    uint16_t raw;
                    std::memcpy(&raw, p + j * 2, 2);
                    dst[idx[j]] = lut[raw];
                }
            }
        } else if (t.codec == ValueCodec::kF32) {
            for (int lane = 0; lane < 32; ++lane) {
                const uint8_t *p = sbase + lane * sb + elem_base * 4;
                const int32_t *idx = idx_table + lane * locals;
                for (int64_t j = 0; j < locals; ++j) {
                    float v;
                    std::memcpy(&v, p + j * 4, 4);
                    dst[idx[j]] = v;
                }
            }
        } else {
            for (int lane = 0; lane < 32; ++lane) {
                const int32_t *idx = idx_table + lane * locals;
                for (int64_t j = 0; j < locals; ++j)
                    dst[idx[j]] = decodeFastF(
                        t, readElement(t, base_thread + lane,
                                       elem_base + j));
            }
        }
    };
    for (int w = 0; w < warps; ++w) {
        const int base_thread = w * 32;
        gather(ta, op.a_base, leaf.mma->a_idx.data(), leaf.mma->a_locals,
               base_thread, a);
        gather(tb, op.b_base, leaf.mma->b_idx.data(), leaf.mma->b_locals,
               base_thread, b);
        gather(tc, op.c_base, leaf.mma->c_idx.data(), leaf.mma->c_locals,
               base_thread, c);
        // D = A x B + C with fp32 accumulation (tensor-core semantics).
        // The k loop stays outermost-per-row so each d element still
        // accumulates its products in ascending-k order — bit-identical
        // to the tree walk — while the inner n loop runs over
        // contiguous rows. Dispatching to the two fixed hardware shapes
        // gives the compiler constant trip counts to vectorize.
        if (op.m == 16 && op.n == 8 && op.k == 16)
            mmaCompute<16, 8, 16>(a, b, c, d);
        else if (op.m == 16 && op.n == 8 && op.k == 8)
            mmaCompute<16, 8, 8>(a, b, c, d);
        else // decodeMma rejects every other shape
            TILUS_PANIC("undecoded mma shape reached the executor");
        if (td.codec == ValueCodec::kF32) {
            const int64_t sb = storage_bytes_[td.storage];
            uint8_t *sbase = storages_[td.storage].data() +
                             static_cast<size_t>(base_thread) * sb;
            for (int lane = 0; lane < 32; ++lane) {
                uint8_t *p = sbase + lane * sb + op.d_base * 4;
                const int32_t *c_idx =
                    leaf.mma->c_idx.data() + lane * leaf.mma->c_locals;
                for (int64_t j = 0; j < leaf.mma->c_locals; ++j) {
                    float v = d[c_idx[j]];
                    uint32_t u;
                    if (std::isnan(v)) {
                        u = 0x7FC00000u; // canonical qNaN (encodeFloat)
                    } else {
                        std::memcpy(&u, &v, 4);
                    }
                    std::memcpy(p + j * 4, &u, 4);
                }
            }
        } else {
            for (int lane = 0; lane < 32; ++lane) {
                const int32_t *c_idx =
                    leaf.mma->c_idx.data() + lane * leaf.mma->c_locals;
                for (int64_t j = 0; j < leaf.mma->c_locals; ++j) {
                    writeElement(td, base_thread + lane, op.d_base + j,
                                 encodeFast(td, d[c_idx[j]]));
                }
            }
        }
    }
    stats_.mma_ops += warps;
    stats_.mma_flops +=
        static_cast<int64_t>(2) * op.m * op.n * op.k * warps;
    compute_ops_ += 1;
}

void
MicroExecutor::printTensor(const DecodedLeaf &leaf)
{
    const TensorDecl &t =
        kernel_.tensors[static_cast<size_t>(leaf.t_a)];
    const TensorInfo &info = program_.tensorInfo()[leaf.t_a];
    detail::printTensor(t, [&](int64_t thread, int64_t slot) {
        return decodeFast(
            info, readElement(info, static_cast<int>(thread), slot));
    });
}

} // namespace

void
runMicroBlock(const MicroProgram &program, const ir::Env &block_env,
              Device *device, SimStats &stats, const RunOptions &options,
              bool is_first_block)
{
    TILUS_CHECK_MSG(program.ok(),
                    "runMicroBlock on an undecodable program: "
                        << program.failureReason());
    TILUS_CHECK_MSG(options.mode != MemoryMode::kGhost,
                    "ghost traces run on the tree walk");
    MicroExecutor executor(program, device, stats, options,
                           is_first_block);
    executor.run(block_env);
}

} // namespace sim
} // namespace tilus
