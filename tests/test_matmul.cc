/**
 * @file
 * End-to-end correctness of the quantized matmul template on the
 * simulated GPU: every sub-byte weight type (uint1..8, int2..8,
 * float3..8), both execution paths (tensor cores / SIMT), pipelining
 * depths, grouped scales, the untransformed fallback, the Triton-style
 * conversion variant, and the dense f16 kernel — all validated against a
 * double-precision reference with the kernel's dequantization semantics.
 */
#include <gtest/gtest.h>

#include "sim/gpu_spec.h"
#include "test_helpers.h"

namespace tilus {
namespace {

using kernels::MatmulConfig;
using testing::maxRelativeError;
using testing::randomActivations;
using testing::randomScales;
using testing::randomWeights;
using testing::referenceMatmul;
using testing::runMatmul;
using testing::simtConfig;
using testing::tensorCoreConfig;

void
checkConfig(const MatmulConfig &cfg, int64_t m, uint64_t seed,
            const compiler::CompileOptions &opts = {},
            double tolerance = 2e-2)
{
    ASSERT_TRUE(cfg.valid()) << cfg.name();
    runtime::Runtime rt(sim::l40s());
    PackedBuffer a = randomActivations(m * cfg.k, seed);
    PackedBuffer b = randomWeights(cfg.wdtype, cfg.k * cfg.n, seed + 1);
    PackedBuffer scales;
    PackedBuffer *scales_ptr = nullptr;
    if (cfg.group_size > 0) {
        scales = randomScales((cfg.k / cfg.group_size) * cfg.n, seed + 2);
        scales_ptr = &scales;
    }
    auto run = runMatmul(rt, cfg, m, a, b, scales_ptr, opts);
    auto want = referenceMatmul(cfg, m, a, b, scales_ptr);
    EXPECT_LT(maxRelativeError(run.result, want), tolerance)
        << cfg.name() << " m=" << m;
}

// ---------------------------------------------------------------------
// Full weight-type spectrum on both execution paths.
// ---------------------------------------------------------------------

class SpectrumTensorCore : public ::testing::TestWithParam<DataType>
{};

TEST_P(SpectrumTensorCore, MatchesReference)
{
    checkConfig(tensorCoreConfig(GetParam()), /*m=*/16, /*seed=*/7);
}

INSTANTIATE_TEST_SUITE_P(
    AllWeightTypes, SpectrumTensorCore,
    ::testing::ValuesIn(fullWeightSpectrum()),
    [](const auto &info) { return info.param.name(); });

class SpectrumSimt : public ::testing::TestWithParam<DataType>
{};

TEST_P(SpectrumSimt, MatchesReference)
{
    checkConfig(simtConfig(GetParam()), /*m=*/4, /*seed=*/11);
}

INSTANTIATE_TEST_SUITE_P(
    AllWeightTypes, SpectrumSimt,
    ::testing::ValuesIn(fullWeightSpectrum()),
    [](const auto &info) { return info.param.name(); });

// ---------------------------------------------------------------------
// Structural variants.
// ---------------------------------------------------------------------

TEST(Matmul, DenseF16TensorCore)
{
    checkConfig(tensorCoreConfig(tilus::float16()), 16, 3);
}

TEST(Matmul, EdgeTokenCounts)
{
    // M not divisible by BM exercises the bounds predicates.
    for (int64_t m : {1, 5, 16, 23, 33})
        checkConfig(tensorCoreConfig(tilus::uint4()), m, 100 + m);
}

TEST(Matmul, SimtEdgeTokenCounts)
{
    for (int64_t m : {1, 2, 3})
        checkConfig(simtConfig(tilus::int6()), m, 200 + m);
}

TEST(Matmul, PipelineStageSweep)
{
    for (int stages : {1, 2, 4}) {
        MatmulConfig cfg = tensorCoreConfig(tilus::uint4());
        cfg.stages = stages;
        checkConfig(cfg, 16, 300 + stages);
    }
}

TEST(Matmul, PipeliningIsObserved)
{
    // At O0, stages >= 2 must overlap copies with compute and
    // stages == 1 must not (the lowering emits it synchronously).
    runtime::Runtime rt(sim::l40s());
    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    for (int stages : {1, 2}) {
        MatmulConfig cfg = tensorCoreConfig(tilus::uint4());
        cfg.stages = stages;
        PackedBuffer a = randomActivations(16 * cfg.k, 1);
        PackedBuffer b = randomWeights(cfg.wdtype, cfg.k * cfg.n, 2);
        auto run = runMatmul(rt, cfg, 16, a, b, nullptr, o0);
        EXPECT_EQ(run.stats.overlapped, stages >= 2) << cfg.name();
    }
    // The O2 software-pipelining pass (src/opt/) double-buffers the
    // synchronous stages == 1 loop, so by default it overlaps too.
    {
        MatmulConfig cfg = tensorCoreConfig(tilus::uint4());
        cfg.stages = 1;
        PackedBuffer a = randomActivations(16 * cfg.k, 1);
        PackedBuffer b = randomWeights(cfg.wdtype, cfg.k * cfg.n, 2);
        auto run = runMatmul(rt, cfg, 16, a, b, nullptr);
        EXPECT_TRUE(run.stats.overlapped) << cfg.name();
    }
}

TEST(Matmul, GroupedScalesTensorCore)
{
    for (DataType w : {tilus::uint4(), tilus::int6(), tilus::float6e3m2()}) {
        MatmulConfig cfg = tensorCoreConfig(w);
        cfg.group_size = 64;
        checkConfig(cfg, 16, 400 + w.bits());
    }
}

TEST(Matmul, GroupedScalesSimt)
{
    MatmulConfig cfg = simtConfig(tilus::uint4());
    cfg.group_size = 32;
    checkConfig(cfg, 4, 500);
}

TEST(Matmul, UntransformedFallbackPath)
{
    // Section 7.1: bitwise extraction straight from the packed tensor.
    MatmulConfig cfg = tensorCoreConfig(tilus::int5());
    cfg.transform_weights = false;
    checkConfig(cfg, 16, 600);
}

TEST(Matmul, FallbackUsesBitExtraction)
{
    runtime::Runtime rt(sim::l40s());
    MatmulConfig cfg = tensorCoreConfig(tilus::int5());
    cfg.transform_weights = false;
    PackedBuffer a = randomActivations(16 * cfg.k, 1);
    PackedBuffer b = randomWeights(cfg.wdtype, cfg.k * cfg.n, 2);
    auto run = runMatmul(rt, cfg, 16, a, b, nullptr);
    EXPECT_GT(run.stats.bit_extract_ops, 0);

    // The transformed path must not need any bit extraction.
    cfg.transform_weights = true;
    auto fast = runMatmul(rt, cfg, 16, a, b, nullptr);
    EXPECT_EQ(fast.stats.bit_extract_ops, 0);
}

TEST(Matmul, ConvertViaSmemMatchesReference)
{
    // Triton-style conversion round trip is slower but still correct.
    MatmulConfig cfg = tensorCoreConfig(tilus::uint4());
    cfg.convert_via_smem = true;
    checkConfig(cfg, 16, 700);
}

TEST(Matmul, ForbidCpAsyncRemovesOverlap)
{
    // Ladder-style synchronous staging: correct but unpipelined.
    runtime::Runtime rt(sim::l40s());
    MatmulConfig cfg = tensorCoreConfig(tilus::uint4());
    compiler::CompileOptions opts;
    opts.forbid_cp_async = true;
    PackedBuffer a = randomActivations(16 * cfg.k, 5);
    PackedBuffer b = randomWeights(cfg.wdtype, cfg.k * cfg.n, 6);
    auto run = runMatmul(rt, cfg, 16, a, b, nullptr, opts);
    EXPECT_FALSE(run.stats.overlapped);
    auto want = referenceMatmul(cfg, 16, a, b, nullptr);
    EXPECT_LT(maxRelativeError(run.result, want), 2e-2);
}

TEST(Matmul, ScalarCastFallbackMatches)
{
    MatmulConfig cfg = tensorCoreConfig(tilus::float5e2m2());
    compiler::CompileOptions opts;
    opts.force_scalar_cast = true;
    checkConfig(cfg, 16, 800, opts);
}

TEST(Matmul, VectorizationOffStillCorrect)
{
    MatmulConfig cfg = tensorCoreConfig(tilus::uint6());
    compiler::CompileOptions opts;
    opts.enable_vectorize = false;
    opts.enable_ldmatrix = false;
    checkConfig(cfg, 16, 900, opts);
}

TEST(Matmul, MultiWarpM)
{
    MatmulConfig cfg = tensorCoreConfig(tilus::uint4());
    cfg.bm = 32;
    cfg.warp_m = 2;
    cfg.warp_n = 2;
    checkConfig(cfg, 32, 1000);
}

TEST(Matmul, BiggerTiles)
{
    MatmulConfig cfg = tensorCoreConfig(tilus::uint2());
    cfg.bn = 128;
    cfg.bk = 64;
    cfg.warp_n = 4;
    cfg.n = 256;
    cfg.k = 128;
    checkConfig(cfg, 16, 1100);
}

TEST(Matmul, KernelCacheHits)
{
    runtime::Runtime rt(sim::l40s());
    MatmulConfig cfg = tensorCoreConfig(tilus::uint4());
    PackedBuffer a = randomActivations(16 * cfg.k, 1);
    PackedBuffer b = randomWeights(cfg.wdtype, cfg.k * cfg.n, 2);
    runMatmul(rt, cfg, 16, a, b, nullptr);
    int after_first = rt.compileCount();
    runMatmul(rt, cfg, 16, a, b, nullptr);
    EXPECT_EQ(rt.compileCount(), after_first); // cache hit, no recompile
}

TEST(Matmul, InvalidConfigsRejected)
{
    MatmulConfig cfg = tensorCoreConfig(tilus::uint4());
    cfg.bk = 24; // not a multiple of 16
    EXPECT_FALSE(cfg.valid());
    cfg = tensorCoreConfig(tilus::uint4());
    cfg.n = 100; // not divisible by bn
    EXPECT_FALSE(cfg.valid());
    cfg = simtConfig(tilus::uint4());
    cfg.bm = 16; // SIMT path is for small m
    EXPECT_FALSE(cfg.valid());
}

} // namespace
} // namespace tilus
