#include "sim/interpreter.h"

#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <set>

#include "dtype/cast.h"
#include "dtype/packing.h"
#include "ir/instruction.h"
#include "layout/atoms.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sim/exec_common.h"
#include "sim/microop.h"
#include "support/error.h"
#include "support/math_util.h"

namespace tilus {
namespace sim {

namespace {

using namespace tilus::lir;

using detail::PendingCopy;
using detail::applyTensorBinary;

/** Executes a single thread block. */
class BlockExecutor
{
  public:
    BlockExecutor(const Kernel &kernel, Device *device, SimStats &stats,
                  const RunOptions &options, bool is_first_block)
        : kernel_(kernel), device_(device), stats_(stats),
          options_(options), first_block_(is_first_block)
    {
        smem_.assign(static_cast<size_t>(kernel.smem_bytes), 0);
        // Size each physical storage to the widest alias.
        std::vector<int64_t> bits(kernel.num_storages, 0);
        for (const TensorDecl &t : kernel.tensors)
            bits[t.storage] = std::max(bits[t.storage], t.storage_bits);
        storage_bytes_.resize(kernel.num_storages);
        storages_.resize(kernel.num_storages);
        for (int s = 0; s < kernel.num_storages; ++s) {
            storage_bytes_[s] = ceilDiv(bits[s], 8);
            storages_[s].assign(
                static_cast<size_t>(storage_bytes_[s]) *
                    kernel.block_threads,
                0);
        }
    }

    void
    run(const ir::Env &block_env)
    {
        block_env_ = block_env;
        thread_env_ = block_env;
        exited_ = false;
        queue_ = detail::CpAsyncQueue();
        execBody(kernel_.body);
        // Hardware drains outstanding copies at kernel end; mirror that so
        // a forgotten final wait is not a hidden leak (the data is simply
        // never observed).
        drainTo(0);
    }

  private:
    /// @name Per-thread register storage access.
    /// @{
    uint64_t
    readElement(const TensorDecl &t, int thread, int64_t slot) const
    {
        const auto &buf = storages_[t.storage];
        const uint8_t *base =
            buf.data() + static_cast<size_t>(thread) *
                             storage_bytes_[t.storage];
        return getBits(base, slot * t.dtype.bits(), t.dtype.bits());
    }

    void
    writeElement(const TensorDecl &t, int thread, int64_t slot,
                 uint64_t value)
    {
        auto &buf = storages_[t.storage];
        uint8_t *base = buf.data() + static_cast<size_t>(thread) *
                                         storage_bytes_[t.storage];
        setBits(base, slot * t.dtype.bits(), t.dtype.bits(), value);
    }

    uint8_t *
    storagePtr(const TensorDecl &t, int thread)
    {
        return storages_[t.storage].data() +
               static_cast<size_t>(thread) * storage_bytes_[t.storage];
    }
    /// @}

    int64_t
    evalThread(const ir::Expr &e, int thread)
    {
        thread_env_.bind(tidVar().id(), thread);
        return ir::evalInt(e, thread_env_);
    }

    bool
    evalPred(const ir::Expr &pred, int thread)
    {
        if (!pred)
            return true;
        return evalThread(pred, thread) != 0;
    }

    void
    execBody(const LBody &body)
    {
        for (const LNode &node : body) {
            if (exited_ || break_ || continue_)
                return;
            if (std::holds_alternative<LOp>(node.node)) {
                const LOp &op = std::get<LOp>(node.node);
                if (options_.profile == nullptr) {
                    execOp(op);
                } else {
                    const Counters before = stats_;
                    execOp(op);
                    options_.profile->attribute(&op, before, stats_);
                }
            } else if (std::holds_alternative<LFor>(node.node)) {
                const auto &loop = std::get<LFor>(node.node);
                int64_t extent = ir::evalInt(loop.extent, block_env_);
                for (int64_t i = 0; i < extent && !exited_; ++i) {
                    block_env_.bind(loop.var.id(), i);
                    thread_env_.bind(loop.var.id(), i);
                    execBody(*loop.body);
                    continue_ = false;
                    if (break_) {
                        break_ = false;
                        break;
                    }
                }
            } else if (std::holds_alternative<LWhile>(node.node)) {
                const auto &loop = std::get<LWhile>(node.node);
                while (!exited_ &&
                       ir::evalInt(loop.cond, block_env_) != 0) {
                    execBody(*loop.body);
                    continue_ = false;
                    if (break_) {
                        break_ = false;
                        break;
                    }
                }
            } else if (std::holds_alternative<LAssign>(node.node)) {
                const auto &assign = std::get<LAssign>(node.node);
                int64_t value = ir::evalInt(assign.value, block_env_);
                block_env_.bind(assign.var.id(), value);
                thread_env_.bind(assign.var.id(), value);
            } else if (std::holds_alternative<LBreak>(node.node)) {
                break_ = true;
            } else if (std::holds_alternative<LContinue>(node.node)) {
                continue_ = true;
            } else {
                const auto &branch = std::get<LIf>(node.node);
                if (ir::evalInt(branch.cond, block_env_) != 0)
                    execBody(*branch.then_body);
                else if (branch.else_body)
                    execBody(*branch.else_body);
            }
        }
    }

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

    void execOp(const LOp &op);
    void execMma(const MmaTile &op);
    void printTensor(int tensor_id);

    const Kernel &kernel_;
    Device *device_;
    SimStats &stats_;
    const RunOptions &options_;
    bool first_block_;

    std::vector<uint8_t> smem_;
    std::vector<std::vector<uint8_t>> storages_;
    std::vector<int64_t> storage_bytes_;
    detail::CpAsyncQueue queue_;
    int64_t compute_ops_ = 0;
    ir::Env block_env_;
    ir::Env thread_env_;
    bool exited_ = false;
    bool break_ = false;
    bool continue_ = false;
};

void
BlockExecutor::execOp(const LOp &op)
{
    const int threads = kernel_.block_threads;
    std::visit(
        [&](const auto &o) {
            using T = std::decay_t<decltype(o)>;
            if constexpr (std::is_same_v<T, LoadGlobalVec>) {
                const TensorDecl &t = kernel_.tensor(o.dst_tensor);
                // Ghost traces sample the first warp and scale: warps are
                // statistically identical for the analytical model.
                const bool ghost = options_.mode == MemoryMode::kGhost;
                const int warps = threads / 32;
                const int exec_warps = ghost ? 1 : warps;
                for (int w = 0; w < exec_warps; ++w) {
                    std::vector<std::pair<int64_t, int>> accesses;
                    for (int lane = 0; lane < 32; ++lane) {
                        int thread = w * 32 + lane;
                        uint8_t *dst = storagePtr(t, thread) + o.dst_byte;
                        if (!evalPred(o.pred, thread)) {
                            std::memset(dst, 0, o.bytes);
                            continue;
                        }
                        if (options_.mode == MemoryMode::kFunctional &&
                            device_) {
                            int64_t addr = evalThread(o.addr, thread);
                            accesses.emplace_back(addr, o.bytes);
                            device_->read(static_cast<uint64_t>(addr), dst,
                                          o.bytes);
                        } else {
                            std::memset(dst, 0, o.bytes);
                        }
                        stats_.global_load_bytes += o.bytes;
                        stats_.load_bytes_by_global[o.global_id] += o.bytes;
                    }
                    countSectors(accesses);
                    stats_.ldg_ops += 1;
                }
                if (ghost && exec_warps < warps) {
                    int64_t f = warps - exec_warps;
                    stats_.global_load_bytes += o.bytes * 32 * f;
                    stats_.load_bytes_by_global[o.global_id] +=
                        o.bytes * 32 * f;
                    stats_.ldg_ops += f;
                }
            } else if constexpr (std::is_same_v<T, StoreGlobalVec>) {
                const TensorDecl &t = kernel_.tensor(o.src_tensor);
                const bool ghost = options_.mode == MemoryMode::kGhost;
                const int warps = threads / 32;
                const int exec_warps = ghost ? 1 : warps;
                for (int w = 0; w < exec_warps; ++w) {
                    std::vector<std::pair<int64_t, int>> accesses;
                    for (int lane = 0; lane < 32; ++lane) {
                        int thread = w * 32 + lane;
                        if (!evalPred(o.pred, thread))
                            continue;
                        int64_t addr = evalThread(o.addr, thread);
                        accesses.emplace_back(addr, o.bytes);
                        if (options_.mode == MemoryMode::kFunctional &&
                            device_) {
                            device_->write(
                                static_cast<uint64_t>(addr),
                                storagePtr(t, thread) + o.src_byte,
                                o.bytes);
                        }
                        stats_.global_store_bytes += o.bytes;
                        stats_.store_bytes_by_global[o.global_id] +=
                            o.bytes;
                    }
                    countSectors(accesses);
                    stats_.stg_ops += 1;
                }
                if (ghost && exec_warps < warps) {
                    int64_t f = warps - exec_warps;
                    stats_.global_store_bytes += o.bytes * 32 * f;
                    stats_.store_bytes_by_global[o.global_id] +=
                        o.bytes * 32 * f;
                    stats_.stg_ops += f;
                }
            } else if constexpr (std::is_same_v<T, LoadGlobalBits>) {
                const TensorDecl &t = kernel_.tensor(o.dst_tensor);
                for (int thread = 0; thread < threads; ++thread) {
                    int64_t bit_addr = evalThread(o.bit_addr, thread);
                    uint64_t value =
                        (options_.mode == MemoryMode::kFunctional &&
                         device_)
                            ? device_->readBits(bit_addr, o.bits)
                            : 0;
                    uint8_t *base = storagePtr(t, thread);
                    setBits(base, o.dst_bit, o.bits, value);
                    stats_.bit_extract_ops += 1;
                    int64_t touched =
                        (bit_addr + o.bits + 7) / 8 - bit_addr / 8;
                    stats_.global_load_bytes += touched;
                    stats_.load_bytes_by_global[o.global_id] += touched;
                }
            } else if constexpr (std::is_same_v<T, StoreGlobalBits>) {
                const TensorDecl &t = kernel_.tensor(o.src_tensor);
                for (int thread = 0; thread < threads; ++thread) {
                    int64_t bit_addr = evalThread(o.bit_addr, thread);
                    uint64_t value = getBits(storagePtr(t, thread),
                                             o.src_bit, o.bits);
                    if (options_.mode == MemoryMode::kFunctional && device_)
                        device_->writeBits(bit_addr, o.bits, value);
                    stats_.bit_extract_ops += 1;
                    int64_t touched =
                        (bit_addr + o.bits + 7) / 8 - bit_addr / 8;
                    stats_.global_store_bytes += touched;
                    stats_.store_bytes_by_global[o.global_id] += touched;
                }
            } else if constexpr (std::is_same_v<T, LoadSharedVec>) {
                if (options_.mode == MemoryMode::kGhost) {
                    stats_.smem_load_bytes +=
                        int64_t(o.bytes) * threads;
                    if (o.via_ldmatrix)
                        stats_.ldmatrix_ops += threads / 32;
                    else
                        stats_.lds_ops += threads / 32;
                    return;
                }
                const TensorDecl &t = kernel_.tensor(o.dst_tensor);
                for (int thread = 0; thread < threads; ++thread) {
                    int64_t addr = evalThread(o.addr, thread);
                    TILUS_CHECK_MSG(
                        addr >= 0 && addr + o.bytes <=
                                         static_cast<int64_t>(smem_.size()),
                        "lds outside shared memory: " << addr);
                    std::memcpy(storagePtr(t, thread) + o.dst_byte,
                                smem_.data() + addr, o.bytes);
                    stats_.smem_load_bytes += o.bytes;
                }
                if (o.via_ldmatrix)
                    stats_.ldmatrix_ops += threads / 32;
                else
                    stats_.lds_ops += threads / 32;
            } else if constexpr (std::is_same_v<T, StoreSharedVec>) {
                if (options_.mode == MemoryMode::kGhost) {
                    stats_.smem_store_bytes +=
                        int64_t(o.bytes) * threads;
                    stats_.sts_ops += threads / 32;
                    return;
                }
                const TensorDecl &t = kernel_.tensor(o.src_tensor);
                for (int thread = 0; thread < threads; ++thread) {
                    if (!evalPred(o.pred, thread))
                        continue;
                    int64_t addr = evalThread(o.addr, thread);
                    TILUS_CHECK_MSG(
                        addr >= 0 && addr + o.bytes <=
                                         static_cast<int64_t>(smem_.size()),
                        "sts outside shared memory: " << addr);
                    std::memcpy(smem_.data() + addr,
                                storagePtr(t, thread) + o.src_byte,
                                o.bytes);
                    stats_.smem_store_bytes += o.bytes;
                }
                stats_.sts_ops += threads / 32;
            } else if constexpr (std::is_same_v<T, CpAsync>) {
                const bool ghost = options_.mode == MemoryMode::kGhost;
                const int warps = threads / 32;
                const int exec_warps = ghost ? 1 : warps;
                for (int w = 0; w < exec_warps; ++w) {
                    std::vector<std::pair<int64_t, int>> accesses;
                    for (int lane = 0; lane < 32; ++lane) {
                        int thread = w * 32 + lane;
                        if (!evalPred(o.issue_pred, thread))
                            continue;
                        bool active = evalPred(o.pred, thread);
                        int64_t smem_addr = evalThread(o.smem_addr, thread);
                        int64_t gmem_addr =
                            active ? evalThread(o.gmem_addr, thread) : 0;
                        queue_.push(PendingCopy{smem_addr, gmem_addr,
                                                o.bytes, active});
                        if (active) {
                            accesses.emplace_back(gmem_addr, o.bytes);
                            stats_.cp_async_bytes += o.bytes;
                            stats_.global_load_bytes += o.bytes;
                            stats_.load_bytes_by_global[o.global_id] +=
                                o.bytes;
                        }
                    }
                    countSectors(accesses);
                }
                if (ghost && exec_warps < warps) {
                    int64_t active = 0;
                    // Approximate remaining warps by the sampled warp's
                    // active fraction.
                    const auto &group = queue_.current();
                    for (size_t i =
                             group.size() >= 32 ? group.size() - 32 : 0;
                         i < group.size(); ++i)
                        active += group[i].active ? 1 : 0;
                    int64_t f = (warps - exec_warps) * active;
                    stats_.cp_async_bytes += o.bytes * f;
                    stats_.global_load_bytes += o.bytes * f;
                    stats_.load_bytes_by_global[o.global_id] +=
                        o.bytes * f;
                }
            } else if constexpr (std::is_same_v<T, CpAsyncCommit>) {
                queue_.commit(compute_ops_, stats_);
            } else if constexpr (std::is_same_v<T, CpAsyncWait>) {
                drainTo(o.n);
            } else if constexpr (std::is_same_v<T, BarSync>) {
                stats_.bar_syncs += 1;
            } else if constexpr (std::is_same_v<T, MmaTile>) {
                if (options_.mode == MemoryMode::kGhost) {
                    const int warps = threads / 32;
                    stats_.mma_ops += warps;
                    stats_.mma_flops += static_cast<int64_t>(2) * o.m *
                                        o.n * o.k * warps;
                    compute_ops_ += 1;
                    return;
                }
                execMma(o);
            } else if constexpr (std::is_same_v<T, SimtDot>) {
                if (options_.mode == MemoryMode::kGhost) {
                    stats_.simt_fma +=
                        static_cast<int64_t>(o.macs.size()) * threads;
                    compute_ops_ += 1;
                    return;
                }
                const TensorDecl &ta = kernel_.tensor(o.a_tensor);
                const TensorDecl &tb = kernel_.tensor(o.b_tensor);
                const TensorDecl &tc = kernel_.tensor(o.c_tensor);
                const TensorDecl &td = kernel_.tensor(o.d_tensor);
                for (int thread = 0; thread < threads; ++thread) {
                    for (const auto &mac : o.macs) {
                        double a = decodeValue(
                            ta.dtype, readElement(ta, thread, mac[1]));
                        double b = decodeValue(
                            tb.dtype, readElement(tb, thread, mac[2]));
                        double c = decodeValue(
                            tc.dtype, readElement(tc, thread, mac[0]));
                        double d = static_cast<float>(
                            c + static_cast<float>(a) *
                                    static_cast<float>(b));
                        writeElement(td, thread, mac[0],
                                     encodeValue(td.dtype, d));
                    }
                }
                stats_.simt_fma +=
                    static_cast<int64_t>(o.macs.size()) * threads;
                compute_ops_ += 1;
            } else if constexpr (std::is_same_v<T, EltwiseBinary>) {
                if (options_.mode == MemoryMode::kGhost) {
                    stats_.alu_elt_ops +=
                        kernel_.tensor(o.a_tensor)
                            .layout.localsPerThread() *
                        threads;
                    return;
                }
                const TensorDecl &ta = kernel_.tensor(o.a_tensor);
                const TensorDecl &tb = kernel_.tensor(o.b_tensor);
                const TensorDecl &td = kernel_.tensor(o.dst_tensor);
                int64_t locals = ta.layout.localsPerThread();
                for (int thread = 0; thread < threads; ++thread) {
                    for (int64_t i = 0; i < locals; ++i) {
                        int64_t bi =
                            o.b_slot_map.empty() ? i : o.b_slot_map[i];
                        double a = decodeValue(ta.dtype,
                                               readElement(ta, thread, i));
                        double b = decodeValue(
                            tb.dtype, readElement(tb, thread, bi));
                        writeElement(td, thread, i,
                                     encodeValue(td.dtype,
                                                 applyTensorBinary(o.op, a, b)));
                    }
                }
                stats_.alu_elt_ops += locals * threads;
            } else if constexpr (std::is_same_v<T, EltwiseScalar>) {
                if (options_.mode == MemoryMode::kGhost) {
                    stats_.alu_elt_ops +=
                        kernel_.tensor(o.a_tensor)
                            .layout.localsPerThread() *
                        threads;
                    return;
                }
                const TensorDecl &ta = kernel_.tensor(o.a_tensor);
                const TensorDecl &td = kernel_.tensor(o.dst_tensor);
                int64_t locals = ta.layout.localsPerThread();
                for (int thread = 0; thread < threads; ++thread) {
                    double s;
                    if (o.scalar->kind() == ir::ExprKind::kConst &&
                        o.scalar->dtype().isFloat()) {
                        s = static_cast<const ir::ConstNode &>(*o.scalar)
                                .fvalue;
                    } else {
                        s = static_cast<double>(
                            evalThread(o.scalar, thread));
                    }
                    for (int64_t i = 0; i < locals; ++i) {
                        double a = decodeValue(ta.dtype,
                                               readElement(ta, thread, i));
                        writeElement(td, thread, i,
                                     encodeValue(td.dtype,
                                                 applyTensorBinary(o.op, a, s)));
                    }
                }
                stats_.alu_elt_ops += locals * threads;
            } else if constexpr (std::is_same_v<T, EltwiseUnary>) {
                if (options_.mode == MemoryMode::kGhost) {
                    stats_.alu_elt_ops +=
                        kernel_.tensor(o.a_tensor)
                            .layout.localsPerThread() *
                        threads;
                    return;
                }
                const TensorDecl &ta = kernel_.tensor(o.a_tensor);
                const TensorDecl &td = kernel_.tensor(o.dst_tensor);
                int64_t locals = ta.layout.localsPerThread();
                for (int thread = 0; thread < threads; ++thread) {
                    for (int64_t i = 0; i < locals; ++i) {
                        double a = decodeValue(ta.dtype,
                                               readElement(ta, thread, i));
                        writeElement(td, thread, i,
                                     encodeValue(td.dtype, -a));
                    }
                }
                stats_.alu_elt_ops += locals * threads;
            } else if constexpr (std::is_same_v<T, CastTensor>) {
                if (options_.mode == MemoryMode::kGhost) {
                    int64_t n = kernel_.tensor(o.src_tensor)
                                    .layout.localsPerThread() *
                                threads;
                    if (o.vectorized)
                        stats_.cast_vec_elems += n;
                    else
                        stats_.cast_scalar_elems += n;
                    return;
                }
                const TensorDecl &ts = kernel_.tensor(o.src_tensor);
                const TensorDecl &td = kernel_.tensor(o.dst_tensor);
                int64_t locals = ts.layout.localsPerThread();
                for (int thread = 0; thread < threads; ++thread) {
                    for (int64_t i = 0; i < locals; ++i) {
                        double v = decodeValue(ts.dtype,
                                               readElement(ts, thread, i));
                        writeElement(td, thread, i,
                                     encodeValue(td.dtype, v));
                    }
                }
                if (o.vectorized)
                    stats_.cast_vec_elems += locals * threads;
                else
                    stats_.cast_scalar_elems += locals * threads;
            } else if constexpr (std::is_same_v<T, InitTensor>) {
                if (options_.mode == MemoryMode::kGhost)
                    return;
                const TensorDecl &t = kernel_.tensor(o.dst_tensor);
                int64_t locals = t.layout.localsPerThread();
                uint64_t bits = encodeValue(t.dtype, o.value);
                for (int thread = 0; thread < threads; ++thread)
                    for (int64_t i = 0; i < locals; ++i)
                        writeElement(t, thread, i, bits);
            } else if constexpr (std::is_same_v<T, PrintTensor>) {
                if (options_.enable_print && first_block_)
                    printTensor(o.tensor);
            } else if constexpr (std::is_same_v<T, ExitOp>) {
                exited_ = true;
            }
        },
        op);
}

void
BlockExecutor::execMma(const MmaTile &op)
{
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
        TILUS_PANIC("unsupported mma shape m" << op.m << "n" << op.n << "k"
                                              << op.k);
    }
    const TensorDecl &ta = kernel_.tensor(op.a_tensor);
    const TensorDecl &tb = kernel_.tensor(op.b_tensor);
    const TensorDecl &tc = kernel_.tensor(op.c_tensor);
    const TensorDecl &td = kernel_.tensor(op.d_tensor);

    const int warps = kernel_.block_threads / 32;
    std::vector<float> a(op.m * op.k), b(op.k * op.n);
    std::vector<float> c(op.m * op.n), d(op.m * op.n);
    for (int w = 0; w < warps; ++w) {
        const int base_thread = w * 32;
        for (int lane = 0; lane < 32; ++lane) {
            for (int64_t j = 0; j < atom_a.localsPerThread(); ++j) {
                auto idx = atom_a.logicalIndexOf(lane, j);
                a[idx[0] * op.k + idx[1]] = static_cast<float>(decodeValue(
                    ta.dtype,
                    readElement(ta, base_thread + lane, op.a_base + j)));
            }
            for (int64_t j = 0; j < atom_b.localsPerThread(); ++j) {
                auto idx = atom_b.logicalIndexOf(lane, j);
                b[idx[0] * op.n + idx[1]] = static_cast<float>(decodeValue(
                    tb.dtype,
                    readElement(tb, base_thread + lane, op.b_base + j)));
            }
            for (int64_t j = 0; j < atom_c.localsPerThread(); ++j) {
                auto idx = atom_c.logicalIndexOf(lane, j);
                c[idx[0] * op.n + idx[1]] = static_cast<float>(decodeValue(
                    tc.dtype,
                    readElement(tc, base_thread + lane, op.c_base + j)));
            }
        }
        // D = A x B + C with fp32 accumulation (tensor-core semantics).
        for (int i = 0; i < op.m; ++i) {
            for (int jn = 0; jn < op.n; ++jn) {
                float acc = c[i * op.n + jn];
                for (int kk = 0; kk < op.k; ++kk)
                    acc += a[i * op.k + kk] * b[kk * op.n + jn];
                d[i * op.n + jn] = acc;
            }
        }
        for (int lane = 0; lane < 32; ++lane) {
            for (int64_t j = 0; j < atom_c.localsPerThread(); ++j) {
                auto idx = atom_c.logicalIndexOf(lane, j);
                writeElement(td, base_thread + lane, op.d_base + j,
                             encodeValue(td.dtype,
                                         d[idx[0] * op.n + idx[1]]));
            }
        }
    }
    stats_.mma_ops += warps;
    stats_.mma_flops += static_cast<int64_t>(2) * op.m * op.n * op.k * warps;
    compute_ops_ += 1;
}

void
BlockExecutor::printTensor(int tensor_id)
{
    const TensorDecl &t = kernel_.tensor(tensor_id);
    detail::printTensor(t, [&](int64_t thread, int64_t slot) {
        return decodeValue(
            t.dtype, readElement(t, static_cast<int>(thread), slot));
    });
}

} // namespace

SimStats
run(const lir::Kernel &kernel, ir::Env args, Device *device,
    const RunOptions &options)
{
    obs::Span span("sim", "run");
    span.arg("kernel", kernel.name);
    obs::Registry::instance().counter("sim_runs_total").add();

    // Bind the workspace pointer (one workspace shared by the whole grid).
    if (kernel.workspace_bytes > 0) {
        uint64_t ws = 0;
        if (options.mode == MemoryMode::kFunctional && device)
            ws = device->allocate(kernel.workspace_bytes);
        args.bind(lir::workspaceVar().id(), static_cast<int64_t>(ws));
    } else {
        args.bind(lir::workspaceVar().id(), 0);
    }

    std::vector<int64_t> grid;
    grid.reserve(kernel.grid.size());
    for (const ir::Expr &g : kernel.grid)
        grid.push_back(ir::evalInt(g, args));
    int64_t total_blocks = 1;
    for (int64_t g : grid)
        total_blocks *= g;
    int64_t limit = options.max_blocks < 0
                        ? total_blocks
                        : std::min(options.max_blocks, total_blocks);

    SimStats stats;

    // Engine selection: ghost traces walk the tree. Functional runs use
    // micro-ops unless the caller asks for the tree walk, decoding the
    // kernel here, once per run() call, unless the caller passes the
    // program it decoded.
    std::unique_ptr<MicroProgram> decoded_here;
    const MicroProgram *program = nullptr;
    if (options.mode == MemoryMode::kFunctional &&
        options.engine == Engine::kMicroOps) {
        program = options.micro_program;
        if (program != nullptr) {
            TILUS_CHECK_MSG(program->kernel() == &kernel,
                            "RunOptions::micro_program was decoded from a "
                            "different kernel");
        } else {
            obs::Span decode_span("sim", "microop-decode");
            decode_span.arg("kernel", kernel.name);
            obs::Registry::instance()
                .counter("sim_microop_decodes_total")
                .add();
            decoded_here = std::make_unique<MicroProgram>(
                compileMicroProgram(kernel));
            program = decoded_here.get();
        }
        if (!program->ok())
            throw SimError("micro-op decode of kernel '" + kernel.name +
                           "' failed: " + program->failureReason());
    }
    span.arg("engine", program != nullptr ? "microop" : "treewalk");

    for (int64_t linear = 0; linear < limit; ++linear) {
        std::vector<int64_t> bidx = unravel(linear, grid);
        ir::Env env = args;
        for (size_t d = 0; d < grid.size(); ++d) {
            env.bind(lir::blockIdxVar(static_cast<int>(d)).id(), bidx[d]);
            if (d < kernel.block_index_vars.size())
                env.bind(kernel.block_index_vars[d].id(), bidx[d]);
        }
        if (options.profile != nullptr)
            options.profile->noteBlock();
        if (program != nullptr) {
            runMicroBlock(*program, env, device, stats, options,
                          linear == 0);
        } else {
            BlockExecutor block(kernel, device, stats, options,
                                linear == 0);
            block.run(env);
        }
    }
    if (program != nullptr)
        stats.used_microops = true;
    return stats;
}

SimStats
traceOneBlock(const lir::Kernel &kernel, const ir::Env &args,
              const MicroProgram *)
{
    RunOptions options;
    options.mode = MemoryMode::kGhost;
    options.max_blocks = 1;
    options.enable_print = false;
    return run(kernel, args, nullptr, options);
}

} // namespace sim
} // namespace tilus

