/**
 * @file
 * Analytical latency model combining a traced block's event counters with
 * a GPU specification. The model is deliberately structural: systems
 * differ only through the instruction streams they emit (bytes moved,
 * pipelining observed, cast strategy, shared-memory round trips) plus two
 * documented traits (occupancy pressure, per-iteration serialized work),
 * so relative results emerge from kernel structure rather than per-system
 * fudge factors.
 *
 * Components:
 *  - DRAM time: unique bytes per global tensor at DRAM bandwidth, re-read
 *    excess at L2 bandwidth (inter-block reuse model);
 *  - compute time: tensor-core flops, CUDA-core fma, dequant/cast ALU
 *    work, shared-memory traffic;
 *  - serialization: unpipelined kernels pay the DRAM round-trip latency
 *    every main-loop iteration (the Ladder failure mode of Figure 1(b));
 *    pipelined kernels overlap memory and compute (cp.async observed in
 *    flight across compute);
 *  - wave quantization and occupancy-scaled bandwidth for small grids.
 *
 * The work each component prices is one exported table
 * (componentWork, kSyncOpUs, waves) over the additive counter list in
 * sim/stats.h; the kernel profiler (obs/profile.h) splits the
 * components over instructions by folding the same table.
 */
#pragma once

#include "ir/expr.h"
#include "lir/lir.h"
#include "sim/gpu_spec.h"
#include "sim/stats.h"

namespace tilus {
namespace sim {

/** Documented structural traits of a kernel generator (see DESIGN.md). */
struct PerfTraits
{
    /** Occupancy multiplier < 1 models register/smem pressure. */
    double occupancy_factor = 1.0;

    /**
     * Extra serialized latency per main-loop iteration in microseconds
     * (e.g. a shared-memory layout-conversion round trip that sits on the
     * dependency chain of every iteration — Figure 1(a) step 4).
     */
    double per_iter_serial_us = 0.0;
};

/** Latency estimate with its component breakdown (microseconds). */
struct LatencyBreakdown
{
    double total_us = 0;
    double dram_us = 0;
    double l2_us = 0;
    double tc_us = 0;
    double simt_us = 0;
    double alu_us = 0;
    double smem_us = 0;
    double serial_us = 0;
    double launch_us = 0;
    bool pipelined = false;
    int64_t blocks = 0;
    double occupancy_blocks_per_sm = 0;
};

/**
 * The work each latency component prices, from additive counters (one
 * block's, or one instruction's share of a run).
 */
struct ComponentWork
{
    /// Global-memory traffic, priced by the DRAM and L2 components
    /// (estimateLatency splits a block's traffic per global tensor).
    double global_bytes = 0;
    double tc_flops = 0;   ///< tensor-core flops
    double fma = 0;        ///< SIMT fused multiply-adds
    double alu_ops = 0;    ///< weighted dequant/cast/addressing ALU ops
    double smem_bytes = 0; ///< shared-memory traffic
    double sync_ops = 0;   ///< bar.syncs + cp.async commits
};

ComponentWork componentWork(const Counters &counters);

/** Serialized microseconds each sync op adds to its block. */
constexpr double kSyncOpUs = 0.01;

/** Waves the grid runs in, from a breakdown's blocks and occupancy. */
double waves(const LatencyBreakdown &breakdown, const GpuSpec &spec);

/**
 * Estimate a kernel's latency on `spec` from one block's traced stats.
 *
 * @param kernel      lowered kernel (grid/main-loop/global shapes)
 * @param block_stats counters from tracing one representative block
 * @param args        bound parameter values (for grid/shape evaluation)
 * @param spec        target GPU
 * @param traits      structural generator traits
 */
LatencyBreakdown estimateLatency(const lir::Kernel &kernel,
                                 const SimStats &block_stats,
                                 const ir::Env &args, const GpuSpec &spec,
                                 const PerfTraits &traits = {});

} // namespace sim
} // namespace tilus
