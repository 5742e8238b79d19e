/**
 * @file
 * The Tilus quantized matrix-multiplication template (Section 9.2): a
 * single parameterized VM program covering every weight data type from
 * 1 to 8 bits (plus standard f16/bf16), both execution paths (tensor
 * cores for 16+ tokens, SIMT CUDA cores for 1-15 tokens), software
 * pipelining over cp.async stages, optional sub-channel (grouped) scales,
 * and the global-memory weight-layout transformation + zero-cost register
 * reinterpretation of Section 7.2.
 *
 * The same builder also produces the paper's baselines' structural
 * variants: convert_via_smem replays Triton's shared-memory layout
 * conversion (Figure 1(a) step 4), and compiling with forbid_cp_async
 * yields Ladder's unpipelined ldg+sts staging (Figure 1(b)).
 *
 * Computation:  C[m, n] = sum_k A[m, k] * dequant(B)[k, n]
 * with A: f16[M, K] (M is a runtime parameter), B: wdtype[K, N] stored
 * transformed as u8[K/BK, N/BN, BK*BN*w/8], C: f16[M, N], and
 * dequant(q) = (q - zero) * scale[k/group, n] when group_size > 0.
 */
#pragma once

#include <optional>
#include <string>

#include "ir/program.h"
#include "lang/script.h"

namespace tilus {
namespace kernels {

/** Configuration of one matmul kernel instantiation. */
struct MatmulConfig
{
    /// Weight data type: any 1-8 bit int/uint/float, or f16/bf16 dense.
    DataType wdtype = tilus::uint4();

    /// Static problem dimensions (the token count M stays a runtime
    /// parameter, as in LLM decode serving).
    int64_t n = 0;
    int64_t k = 0;

    /// Block tile sizes.
    int64_t bm = 16;
    int64_t bn = 64;
    int64_t bk = 32;

    /// Tensor-core warp grid (warp_m x warp_n warps per block).
    int warp_m = 1;
    int warp_n = 2;

    /// Warps per block on the SIMT path.
    int simt_warps = 4;

    /// Software-pipeline stages (1 = synchronous staging).
    int stages = 2;

    /// Tensor cores (requires bm multiple of 16) vs SIMT fma.
    bool use_tensor_cores = true;

    /// Transform the weight layout in global memory (Section 7.2 fast
    /// path). When false, weights are extracted from the untransformed
    /// packed tensor with bitwise operations (Section 7.1 fallback).
    bool transform_weights = true;

    /// Sub-channel scale group size (0 = no scales).
    int64_t group_size = 0;

    /// Insert a shared-memory layout-conversion round trip after the
    /// cast, reproducing Triton's Figure 1(a) pipeline.
    bool convert_via_smem = false;

    /** Structural validity (divisibility constraints). */
    bool valid() const;

    /** Threads per block. */
    int numWarps() const { return use_tensor_cores ? warp_m * warp_n
                                                   : simt_warps; }

    /** Transformed-tile byte count (BK*BN*w/8). */
    int64_t
    tileBytes() const
    {
        return bk * bn * wdtype.bits() / 8;
    }

    /** Cache/diagnostic name encoding the whole configuration. */
    std::string name() const;
};

/** The programs + parameter handles of one matmul instantiation. */
struct MatmulBundle
{
    MatmulConfig config;

    ir::Program main_program;
    ir::Var m;        ///< runtime token count
    ir::Var a_ptr;    ///< f16[M, K]
    ir::Var b_ptr;    ///< transformed u8 (or raw packed) weights
    ir::Var scale_ptr; ///< f16[K/group, N] (bound only when grouped)
    ir::Var c_ptr;    ///< f16[M, N]

    /// Weight rearrangement program (Figure 9); present only when
    /// config.transform_weights is set.
    std::optional<ir::Program> transform_program;
    ir::Var t_in_ptr;
    ir::Var t_out_ptr;
};

/** Build the matmul (and transform) programs for a configuration. */
MatmulBundle buildMatmul(const MatmulConfig &config);

/** Dequantization zero point used for unsigned weight types. */
double dequantZero(const DataType &wdtype);

} // namespace kernels
} // namespace tilus
