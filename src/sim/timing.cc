#include "sim/timing.h"

#include <algorithm>
#include <cmath>

#include "dtype/packing.h"
#include "support/error.h"
#include "support/math_util.h"

namespace tilus {
namespace sim {

namespace {

/** Evaluate a global tensor's packed byte size under bound params. */
int64_t
globalByteSize(const lir::GlobalDecl &g, const ir::Env &args)
{
    int64_t numel = 1;
    for (const ir::Expr &e : g.shape)
        numel *= ir::evalInt(e, args);
    return packedByteSize(g.dtype, numel);
}

} // namespace

ComponentWork
componentWork(const Counters &c)
{
    ComponentWork w;
    // A cp.async also counts its bytes in global_load_bytes, so
    // cp_async_bytes stays out.
    w.global_bytes =
        static_cast<double>(c.global_load_bytes + c.global_store_bytes);
    w.tc_flops = static_cast<double>(c.mma_flops);
    w.fma = static_cast<double>(c.simt_fma);
    w.alu_ops = static_cast<double>(c.alu_elt_ops) +
                1.0 * static_cast<double>(c.cast_vec_elems) +
                6.0 * static_cast<double>(c.cast_scalar_elems) +
                4.0 * static_cast<double>(c.bit_extract_ops) +
                2.0 * static_cast<double>(c.ldg_ops + c.stg_ops);
    w.smem_bytes =
        static_cast<double>(c.smem_load_bytes + c.smem_store_bytes);
    w.sync_ops = static_cast<double>(c.bar_syncs + c.cp_commits);
    return w;
}

double
waves(const LatencyBreakdown &breakdown, const GpuSpec &spec)
{
    return std::ceil(
        static_cast<double>(breakdown.blocks) /
        std::max(1.0, breakdown.occupancy_blocks_per_sm * spec.num_sms));
}

LatencyBreakdown
estimateLatency(const lir::Kernel &kernel, const SimStats &block_stats,
                const ir::Env &args, const GpuSpec &spec,
                const PerfTraits &traits)
{
    LatencyBreakdown out;

    // ---- Grid and occupancy -------------------------------------------
    int64_t blocks = 1;
    for (const ir::Expr &g : kernel.grid)
        blocks *= ir::evalInt(g, args);
    out.blocks = blocks;

    double bps = spec.max_blocks_per_sm;
    bps = std::min(bps, static_cast<double>(spec.max_threads_per_sm) /
                            kernel.block_threads);
    if (kernel.smem_bytes > 0) {
        bps = std::min(bps, std::floor(
                                static_cast<double>(spec.smem_per_sm) /
                                static_cast<double>(kernel.smem_bytes)));
    }
    bps = std::max(0.25, bps * traits.occupancy_factor);
    out.occupancy_blocks_per_sm = bps;
    const double concurrent =
        std::min<double>(static_cast<double>(blocks), bps * spec.num_sms);

    // ---- Memory: unique bytes at DRAM, re-reads at L2 ------------------
    double dram_bytes = 0, l2_bytes = 0;
    for (const auto &[gid, per_block] : block_stats.load_bytes_by_global) {
        double traffic = static_cast<double>(per_block) * blocks;
        double unique = traffic;
        if (gid >= 0 && gid < static_cast<int>(kernel.globals.size())) {
            unique = std::min(traffic,
                              static_cast<double>(globalByteSize(
                                  kernel.globals[gid], args)));
        }
        dram_bytes += unique;
        l2_bytes += traffic - unique;
    }
    for (const auto &[gid, per_block] : block_stats.store_bytes_by_global)
        dram_bytes += static_cast<double>(per_block) * blocks;

    // DRAM bandwidth saturates only with enough resident blocks.
    const double bw_frac =
        std::min(1.0, concurrent / (0.5 * spec.num_sms));
    const double dram_bw = spec.dram_gbps * 1e9 * std::max(bw_frac, 0.05);
    out.dram_us = dram_bytes / dram_bw * 1e6;
    out.l2_us = l2_bytes / (spec.l2_gbps * 1e9) * 1e6;
    const double t_mem = out.dram_us + out.l2_us;

    // ---- Compute -------------------------------------------------------
    const double compute_frac = std::min(
        1.0, concurrent / static_cast<double>(spec.num_sms));
    const double cf = std::max(compute_frac, 0.05);
    const ComponentWork work = componentWork(block_stats);
    out.tc_us =
        work.tc_flops * blocks / (spec.fp16_tc_tflops * 1e12 * cf) * 1e6;
    out.simt_us =
        work.fma * 2 * blocks / (spec.fp32_tflops * 1e12 * cf) * 1e6;
    out.alu_us =
        work.alu_ops * blocks / (spec.alu_topsps * 1e12 * cf) * 1e6;
    out.smem_us =
        work.smem_bytes * blocks / (spec.smem_gbps * 1e9 * cf) * 1e6;
    // Tensor cores and the ALU/LSU pipes dual-issue; the slower pipe
    // bounds the kernel's compute time.
    const double t_comp =
        std::max(out.tc_us + out.simt_us, out.alu_us + out.smem_us);

    // ---- Serialized latency (pipelining) --------------------------------
    out.pipelined = block_stats.overlapped;
    int64_t k_iters = 1;
    if (kernel.main_loop_extent)
        k_iters = std::max<int64_t>(
            1, ir::evalInt(kernel.main_loop_extent, args));
    double per_block_serial_us = traits.per_iter_serial_us * k_iters;
    if (!out.pipelined) {
        // Every iteration pays the full memory round trip, plus the
        // shared-memory staging chain when the tile passes through smem
        // synchronously (Figure 1(b)).
        double round_trip = spec.dram_latency_us;
        if (block_stats.sts_ops > 0)
            round_trip += 0.25;
        per_block_serial_us += round_trip * k_iters;
    } else {
        // Pipeline fill cost only.
        per_block_serial_us +=
            spec.dram_latency_us * block_stats.max_groups_in_flight;
    }
    per_block_serial_us += kSyncOpUs * work.sync_ops;
    out.serial_us = per_block_serial_us * waves(out, spec);

    // ---- Combine ---------------------------------------------------------
    double core;
    if (out.pipelined) {
        core = std::max(t_mem, t_comp) + 0.08 * std::min(t_mem, t_comp);
    } else {
        core = t_mem + t_comp;
    }
    out.launch_us = spec.launch_overhead_us;
    out.total_us = core + out.serial_us + out.launch_us;
    return out;
}

} // namespace sim
} // namespace tilus
