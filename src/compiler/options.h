/**
 * @file
 * Compilation options. Besides the target architecture these expose the
 * ablation switches DESIGN.md calls out: automatic vectorization,
 * ldmatrix selection, the vectorized-vs-fallback casting strategy
 * (Section 7.1 vs 7.2), and the availability of cp.async (kernels built
 * without it degrade to synchronous ldg+sts staging, which is exactly the
 * Ladder structure of Figure 1(b)).
 */
#pragma once

#include <cstdint>

namespace tilus {
namespace compiler {

/**
 * Compiler behavior revision. Bump whenever compiler::compile can
 * produce different LIR for the same (program, options) input — a
 * lowering change, a new or fixed optimizer pass, different
 * instruction selection. It feeds the kernel-cache fingerprint and the
 * autotune-database key (src/cache/), so every artifact produced by an
 * older compiler misses and is recompiled; without the bump, warm
 * caches (developer machines, CI's persisted ~/.cache/tilus) would
 * keep serving kernels the old compiler built and the change would
 * silently not take effect on cached paths.
 */
constexpr uint32_t kCompilerRevision = 1;

/**
 * LIR optimization level (the pass pipeline of src/opt/):
 *  - O0: lowering output as-is (the differential oracle's reference);
 *  - O2: software pipelining of synchronous cp.async staging loops,
 *        redundant-synchronization and dead-tensor elimination, and
 *        loop-invariant address CSE (the default).
 * The values are hashed into kernel fingerprints and tune keys.
 */
enum class OptLevel
{
    O0 = 0,
    O2 = 2,
};

/** Flags controlling lowering/instruction selection. */
struct CompileOptions
{
    /** Minimum compute capability the kernel will require. */
    int sm_arch = 80;

    /** LIR pass-pipeline level applied after lowering (default O2). */
    OptLevel opt_level = OptLevel::O2;

    /** Coalesce contiguous element runs into ldg64/ldg128/lds128. */
    bool enable_vectorize = true;

    /** Select ldmatrix for eligible shared->register loads. */
    bool enable_ldmatrix = true;

    /**
     * Force the per-element bitwise casting fallback of Section 7.1
     * instead of the vectorized LOP3/PRMT path (ablation).
     */
    bool force_scalar_cast = false;

    /**
     * Lower CopyAsync to synchronous ldg+sts (no pipelining possible);
     * models pre-Ampere targets and Ladder-style generators.
     */
    bool forbid_cp_async = false;
};

} // namespace compiler
} // namespace tilus
