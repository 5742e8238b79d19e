/**
 * @file
 * Event counters collected while executing (or tracing) a kernel on the
 * simulator. These are the inputs of the analytical timing model: bytes
 * moved per memory scope, coalescing sectors, tensor-core and CUDA-core
 * operation counts, synchronization counts, and the observed cp.async
 * pipelining structure.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

namespace tilus {
namespace sim {

/**
 * The additive counters: each only ever grows by += inside one leaf
 * instruction's execution, so it sums over instructions and over
 * blocks. This one list declares sim::Counters and drives
 * SimStats::merge, the tuner's probe extrapolation
 * (autotune/tuner.cc) and the profiler's per-instruction attribution
 * (obs/profile.h). Maxima, flags and the per-global byte maps are not
 * sums over leaves and stay out (see the author contract in
 * src/obs/README.md).
 */
#define TILUS_SIM_COUNTERS(X)                                            \
    /* Global memory. */                                                 \
    X(global_load_bytes)                                                 \
    X(global_store_bytes)                                                \
    X(cp_async_bytes)                                                    \
    X(global_sectors) /* distinct 32B sectors per warp access */         \
    X(ldg_ops)                                                           \
    X(stg_ops)                                                           \
    X(bit_extract_ops) /* sub-byte fallback accesses */                  \
    /* Shared memory. */                                                 \
    X(smem_load_bytes)                                                   \
    X(smem_store_bytes)                                                  \
    X(lds_ops)                                                           \
    X(sts_ops)                                                           \
    X(ldmatrix_ops)                                                      \
    /* Compute. */                                                       \
    X(mma_ops)                                                           \
    X(mma_flops)                                                         \
    X(simt_fma)                                                          \
    X(alu_elt_ops)                                                       \
    X(cast_vec_elems)                                                    \
    X(cast_scalar_elems)                                                 \
    /* Synchronization. */                                               \
    X(bar_syncs)                                                         \
    X(cp_commits)

/** One int64 per TILUS_SIM_COUNTERS entry. */
struct Counters
{
#define TILUS_SIM_COUNTER_FIELD(f) int64_t f = 0;
    TILUS_SIM_COUNTERS(TILUS_SIM_COUNTER_FIELD)
#undef TILUS_SIM_COUNTER_FIELD

    void
    add(const Counters &other)
    {
#define TILUS_SIM_COUNTER_ADD(f) f += other.f;
        TILUS_SIM_COUNTERS(TILUS_SIM_COUNTER_ADD)
#undef TILUS_SIM_COUNTER_ADD
    }

    /** Accumulate (after - before), one leaf's delta. */
    void
    addDelta(const Counters &before, const Counters &after)
    {
#define TILUS_SIM_COUNTER_DELTA(f) f += after.f - before.f;
        TILUS_SIM_COUNTERS(TILUS_SIM_COUNTER_DELTA)
#undef TILUS_SIM_COUNTER_DELTA
    }

    bool
    operator==(const Counters &other) const
    {
#define TILUS_SIM_COUNTER_EQ(f)                                          \
    if (f != other.f)                                                    \
        return false;
        TILUS_SIM_COUNTERS(TILUS_SIM_COUNTER_EQ)
#undef TILUS_SIM_COUNTER_EQ
        return true;
    }
};

/** Counters for one traced/executed region (usually one thread block). */
struct SimStats : Counters
{
    /// Per-global-tensor read traffic (for the L2 reuse model).
    std::map<int, int64_t> load_bytes_by_global;
    std::map<int, int64_t> store_bytes_by_global;

    // Pipelining.
    int max_groups_in_flight = 0;
    bool overlapped = false; ///< copies stayed in flight across compute

    // Execution-engine diagnostics (not part of the timing model).
    bool used_microops = false;    ///< ran on the pre-decoded engine
    /** Always 0: an undecodable kernel is an error, not a fallback.
        Kept only because perfbench's frozen replay reads it. */
    int64_t microop_fallbacks = 0;

    void
    merge(const SimStats &other)
    {
        add(other);
        for (const auto &[id, bytes] : other.load_bytes_by_global)
            load_bytes_by_global[id] += bytes;
        for (const auto &[id, bytes] : other.store_bytes_by_global)
            store_bytes_by_global[id] += bytes;
        max_groups_in_flight =
            std::max(max_groups_in_flight, other.max_groups_in_flight);
        overlapped = overlapped || other.overlapped;
        used_microops = used_microops || other.used_microops;
    }
};

} // namespace sim
} // namespace tilus
