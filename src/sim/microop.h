/**
 * @file
 * Pre-decoded micro-op execution engine for LIR kernels.
 *
 * The tree-walking interpreter (interpreter.cc) re-walks every
 * address/predicate expression tree once per thread per leaf op, with a
 * variable-environment lookup at every Var node. This engine instead
 * performs a one-time decode of a `lir::Kernel` into a flat program of
 * fixed-size micro-ops — the same trick fast emulators use (pre-decode
 * once, dispatch over a dense array):
 *
 *  - structured control flow (for/while/if/break/continue/exit) becomes
 *    jumps between micro-op indices;
 *  - every scalar variable is mapped to a dense register-slot index at
 *    decode time, so evaluation reads `regs[slot]` instead of scanning
 *    an association list;
 *  - every leaf-op expression is compiled to a flat postorder slot
 *    program, and expressions affine in the thread index decompose into
 *    `base + tid * stride` so the per-thread loop becomes a strided
 *    address walk instead of N full evaluations;
 *  - warp-wide mma fragment gather/scatter index maps (layout
 *    `logicalIndexOf` calls) are precomputed into flat tables.
 *
 * Decoding is total for everything the compiler emits today; a kernel
 * using an undecodable construct yields a program with a fallback
 * reason, and `sim::run` transparently executes it on the legacy
 * tree-walk path instead (recorded in SimStats::microop_fallbacks).
 *
 * The engine runs functional launches only. Decode pays off over many
 * blocks; a ghost trace runs one, so ghost traces (the autotuner's
 * probes) walk the tree and decode nothing. `sim::run` decodes the
 * kernel once per functional run; only perfbench's replay hands it a
 * program decoded ahead (RunOptions::micro_program).
 *
 * The decoded program borrows the kernel (it keeps pointers into the
 * kernel's op payloads): the kernel must outlive the program.
 *
 * See src/sim/README.md for the micro-op format, the affine
 * decomposition rules, and the decoder-author checklist.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/expr.h"
#include "lir/lir.h"
#include "sim/device.h"
#include "sim/interpreter.h"
#include "sim/stats.h"

namespace tilus {
namespace sim {

/** One instruction of a flat postorder expression program. */
struct SlotInstr
{
    enum Kind : uint8_t
    {
        kConst,  ///< push imm
        kSlot,   ///< push regs[slot]
        kTid,    ///< push the thread index
        kUnary,  ///< apply ir::UnaryOp `op` to the top of stack
        kBinary, ///< apply ir::BinaryOp `op` to the two top entries
        kBrZ,    ///< pop; if zero, skip `slot` instructions
        kJmpRel, ///< skip `slot` instructions (select join)
    };

    uint8_t kind = kConst;
    uint8_t op = 0;
    int32_t slot = 0; ///< slot index or relative jump distance
    int64_t imm = 0;
};

/** A compiled expression: flat instructions plus the needed stack depth. */
struct ExprProgram
{
    std::vector<SlotInstr> code;
    int max_stack = 0;
};

/** How a decoded expression is evaluated at run time. */
enum class ExprClass : uint8_t
{
    kNone,      ///< absent (e.g. an optional predicate): trivially true/0
    kConst,     ///< folded to a compile-time constant
    kUniform,   ///< tid-free: evaluated once per op execution
    kAffine,    ///< base + tid * stride, both tid-free
    kTabulated, ///< base + table[tid], table built at decode time
    kGeneric,   ///< per-thread slot-program evaluation (the fallback path)
};

/** A decoded expression reference. */
struct ExprRef
{
    ExprClass cls = ExprClass::kNone;
    int64_t konst = 0;  ///< kConst value
    ExprProgram base;   ///< kUniform/kAffine/kTabulated base (may be
                        ///< empty = 0 for pure-tid tabulated exprs);
                        ///< kGeneric full program
    ExprProgram stride; ///< kAffine per-thread stride
    /// kTabulated: the pure-tid part evaluated per thread at decode.
    std::vector<int64_t> table;
};

/**
 * A decoded predicate. Guards are conjunctions of comparisons whose
 * sides classify as fast expressions (uniform/affine/tabulated); the
 * decoder splits those so the per-thread test is a couple of compares
 * instead of a program walk, and keeps the whole program otherwise.
 */
struct PredRef
{
    struct Cmp
    {
        uint8_t op; ///< ir::BinaryOp comparison
        ExprRef lhs, rhs;
    };

    ExprRef whole;         ///< used when conj is empty
    std::vector<Cmp> conj; ///< non-empty: ANDed comparison fast form
};

/** One pre-decoded control micro-op of the flat program. */
struct MicroOp
{
    enum Kind : uint8_t
    {
        kLeaf,         ///< execute leaves[a]
        kJump,         ///< pc = a
        kBranchIfZero, ///< if uniform_exprs[b] == 0: pc = a
        kAssign,       ///< regs[a] = uniform_exprs[b]
        kCopySlot,     ///< regs[a] = regs[b] (loop-var bind per iteration)
        kLoopHead,     ///< if regs[a] >= regs[b]: pc = c
        kLoopInc,      ///< ++regs[a]; pc = b
        kHalt,         ///< end of block
    };

    Kind kind = kHalt;
    int32_t a = 0;
    int32_t b = 0;
    int32_t c = 0;
};

/** Decode/encode strategy selected per register tensor at decode time. */
enum class ValueCodec : uint8_t
{
    kF32,     ///< bit-cast float (encode canonicalizes NaN like the codec)
    kLut,     ///< decode via table (<= 16-bit types), encode generic
    kGeneric, ///< dtype/cast.h reference conversion both ways
};

/** Per-register-tensor facts hoisted out of the per-element loops. */
struct TensorInfo
{
    int storage = 0;
    int bits = 0;
    int64_t locals = 0; ///< layout.localsPerThread()
    DataType dtype;
    ValueCodec codec = ValueCodec::kGeneric;
    /// kLut: decodeValue for every raw bit pattern (shared per dtype).
    /// Stored as float: every <= 16-bit type decodes to a value exactly
    /// representable in f32, so no precision is lost.
    std::shared_ptr<const std::vector<float>> decode_lut;
};

/** One pre-decoded leaf operation. */
struct DecodedLeaf
{
    /** Discriminator mirroring the LOp variant alternatives. */
    enum Kind : uint8_t
    {
        kLoadGlobalVec,
        kStoreGlobalVec,
        kLoadGlobalBits,
        kStoreGlobalBits,
        kLoadSharedVec,
        kStoreSharedVec,
        kCpAsync,
        kCpAsyncCommit,
        kCpAsyncWait,
        kBarSync,
        kMmaTile,
        kSimtDot,
        kEltwiseBinary,
        kEltwiseScalar,
        kEltwiseUnary,
        kCastTensor,
        kInitTensor,
        kPrintTensor,
    };

    Kind kind = kBarSync;
    const lir::LOp *op = nullptr; ///< source op (variable-size payloads)

    /// Tensor-info indices (into MicroProgram::tensorInfo()), -1 = unused.
    int t_a = -1, t_b = -1, t_c = -1, t_d = -1;

    ExprRef addr;  ///< address / bit address / smem address
    ExprRef addr2; ///< CpAsync gmem address
    PredRef pred;  ///< guard predicate
    PredRef pred2; ///< CpAsync issue predicate
    ExprRef scalar; ///< EltwiseScalar non-constant operand
    bool scalar_is_const = false;
    double scalar_value = 0.0;
    uint64_t init_bits = 0; ///< InitTensor pre-encoded fill pattern

    /// MmaTile: flat gather/scatter maps, [lane * locals + j] -> linear
    /// element index in the m*k / k*n / m*n fragment matrices. Shared
    /// per mma shape across all leaves (and kernels) of the process.
    struct MmaTables
    {
        std::vector<int32_t> a_idx, b_idx, c_idx;
        int64_t a_locals = 0, b_locals = 0, c_locals = 0;
    };
    std::shared_ptr<const MmaTables> mma;

    /// CastTensor with a <= 16-bit source: the full decode+encode
    /// composition tabulated over every source bit pattern (shared per
    /// dtype pair).
    std::shared_ptr<const std::vector<uint64_t>> cast_lut;
};

/**
 * A kernel pre-decoded for the micro-op engine. Produced by
 * compileMicroProgram; immutable, so one program can serve several
 * runs of its kernel.
 */
class MicroProgram
{
  public:
    /** Decodable? When false, fallbackReason() says why. */
    bool ok() const { return reason_.empty(); }

    const std::string &fallbackReason() const { return reason_; }

    /** The kernel this program was decoded from (borrowed). */
    const lir::Kernel *kernel() const { return kernel_; }

    /// @name Decode statistics (tests and the CI fallback gate).
    /// @{
    int numAffineExprs() const { return num_affine_; }
    int numUniformExprs() const { return num_uniform_; }
    int numTabulatedExprs() const { return num_tabulated_; }
    int numGenericExprs() const { return num_generic_; }
    /// @}

    const std::vector<MicroOp> &ops() const { return ops_; }
    const std::vector<DecodedLeaf> &leaves() const { return leaves_; }
    const std::vector<ExprRef> &uniformExprs() const
    {
        return uniform_exprs_;
    }
    const std::vector<TensorInfo> &tensorInfo() const { return tensors_; }
    int numSlots() const { return num_slots_; }

    /** (var id, slot, name) of every named variable, for env seeding. */
    struct VarSlot
    {
        int var_id;
        int32_t slot;
        std::string name;
    };
    const std::vector<VarSlot> &varSlots() const { return var_slots_; }

    /** Display name per slot ("" for synthetic loop-bound slots). */
    const std::vector<std::string> &slotNames() const
    {
        return slot_names_;
    }

  private:
    friend class MicroDecoder;

    const lir::Kernel *kernel_ = nullptr;
    std::string reason_;
    std::vector<MicroOp> ops_;
    std::vector<DecodedLeaf> leaves_;
    std::vector<ExprRef> uniform_exprs_;
    std::vector<TensorInfo> tensors_;
    std::vector<VarSlot> var_slots_;
    std::vector<std::string> slot_names_;
    int num_slots_ = 0;
    int num_affine_ = 0;
    int num_uniform_ = 0;
    int num_tabulated_ = 0;
    int num_generic_ = 0;
};

/**
 * Decode @p kernel into a flat micro-op program. Never throws for
 * undecodable kernels: the returned program carries a fallback reason
 * and `sim::run` uses the tree-walk interpreter instead.
 */
MicroProgram compileMicroProgram(const lir::Kernel &kernel);

/**
 * Execute one thread block of a decoded program functionally
 * (program.ok() must hold; ghost mode is rejected). Mirrors the
 * tree-walk BlockExecutor bit for bit: same device mutations, same
 * deferred cp.async semantics, same SimStats counters.
 */
void runMicroBlock(const MicroProgram &program, const ir::Env &block_env,
                   Device *device, SimStats &stats,
                   const RunOptions &options, bool is_first_block);

} // namespace sim
} // namespace tilus
