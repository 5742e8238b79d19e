/**
 * @file
 * Shared helpers for integration tests: two small matmul
 * configurations, host tensor generation with controlled magnitudes, a
 * double-precision reference matmul implementing the kernel's
 * dequantization semantics, and an orchestration helper that
 * builds/compiles/launches a matmul bundle on the simulated GPU.
 */
#pragma once

#include <vector>

#include "dtype/cast.h"
#include "dtype/packing.h"
#include "kernels/matmul.h"
#include "runtime/runtime.h"
#include "support/rng.h"

namespace tilus {
namespace testing {

/** A small two-stage tensor-core matmul: n = k = 128, two warps. */
inline kernels::MatmulConfig
tensorCoreConfig(DataType wdtype)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = wdtype;
    cfg.n = 128;
    cfg.k = 128;
    cfg.bm = 16;
    cfg.bn = 64;
    cfg.bk = 32;
    cfg.warp_m = 1;
    cfg.warp_n = 2;
    cfg.stages = 2;
    cfg.use_tensor_cores = true;
    return cfg;
}

/** A small three-stage SIMT matmul: n = 128, k = 96, two warps. */
inline kernels::MatmulConfig
simtConfig(DataType wdtype)
{
    kernels::MatmulConfig cfg;
    cfg.wdtype = wdtype;
    cfg.n = 128;
    cfg.k = 96;
    cfg.bm = 4;
    cfg.bn = 128;
    cfg.bk = 32;
    cfg.simt_warps = 2;
    cfg.stages = 3;
    cfg.use_tensor_cores = false;
    return cfg;
}

/** Random weights: uniform over the type's full bit-pattern space. */
inline PackedBuffer
randomWeights(const DataType &dtype, int64_t numel, uint64_t seed)
{
    PackedBuffer buf(dtype, numel);
    Rng rng(seed);
    for (int64_t i = 0; i < numel; ++i) {
        if (dtype.isFloat()) {
            // Encode a bounded random value to avoid NaN patterns.
            double v = rng.nextDouble(-4.0, 4.0);
            buf.setRaw(i, encodeValue(dtype, v));
        } else {
            buf.setRaw(i, rng.next() & ((1ULL << dtype.bits()) - 1));
        }
    }
    return buf;
}

/** Random f16 activations with |a| <= 2 (exactly representable). */
inline PackedBuffer
randomActivations(int64_t numel, uint64_t seed)
{
    PackedBuffer buf(tilus::float16(), numel);
    Rng rng(seed);
    for (int64_t i = 0; i < numel; ++i)
        buf.setRaw(i, encodeValue(tilus::float16(),
                                  rng.nextDouble(-2.0, 2.0)));
    return buf;
}

/** Random positive f16 scales around 1. */
inline PackedBuffer
randomScales(int64_t numel, uint64_t seed)
{
    PackedBuffer buf(tilus::float16(), numel);
    Rng rng(seed);
    for (int64_t i = 0; i < numel; ++i)
        buf.setRaw(i, encodeValue(tilus::float16(),
                                  rng.nextDouble(0.25, 1.5)));
    return buf;
}

/** Dequantized weight value under the kernel's semantics. */
inline double
dequant(const kernels::MatmulConfig &cfg, const PackedBuffer &weights,
        const PackedBuffer *scales, int64_t row, int64_t col)
{
    double q = decodeValue(cfg.wdtype, weights.getRaw(row * cfg.n + col));
    // The kernel casts to f16 before scaling; mirror that rounding.
    q = decodeValue(tilus::float16(),
                    encodeValue(tilus::float16(), q));
    if (cfg.group_size > 0) {
        q -= kernels::dequantZero(cfg.wdtype);
        double s = decodeValue(
            tilus::float16(),
            scales->getRaw((row / cfg.group_size) * cfg.n + col));
        q *= s;
        // Scaled value passes through f16 registers again.
        q = decodeValue(tilus::float16(),
                        encodeValue(tilus::float16(), q));
    }
    return q;
}

/** Reference C = A @ dequant(B) in double precision. */
inline std::vector<double>
referenceMatmul(const kernels::MatmulConfig &cfg, int64_t m,
                const PackedBuffer &a, const PackedBuffer &b,
                const PackedBuffer *scales)
{
    std::vector<double> c(m * cfg.n, 0.0);
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < cfg.n; ++j) {
            double acc = 0.0;
            for (int64_t kk = 0; kk < cfg.k; ++kk) {
                double av = decodeValue(tilus::float16(),
                                        a.getRaw(i * cfg.k + kk));
                acc += av * dequant(cfg, b, scales, kk, j);
            }
            c[i * cfg.n + j] = acc;
        }
    }
    return c;
}

/** Result of an end-to-end matmul run on the simulator. */
struct MatmulRun
{
    std::vector<double> result; ///< decoded f16 C values
    sim::SimStats stats;        ///< main-kernel stats
};

/** Build, compile, upload, transform, launch, and download. */
inline MatmulRun
runMatmul(runtime::Runtime &rt, const kernels::MatmulConfig &cfg,
          int64_t m, const PackedBuffer &a_host,
          const PackedBuffer &b_host, const PackedBuffer *scales_host,
          const compiler::CompileOptions &opts = {})
{
    kernels::MatmulBundle bundle = kernels::buildMatmul(cfg);

    auto a_dev = rt.alloc(tilus::float16(), {m, cfg.k});
    rt.upload(a_dev, a_host);
    auto c_dev = rt.alloc(tilus::float16(), {m, cfg.n});

    runtime::DeviceTensor b_dev;
    if (cfg.wdtype.bits() == 16 || !cfg.transform_weights) {
        b_dev = rt.alloc(cfg.wdtype, {cfg.k, cfg.n});
        rt.upload(b_dev, b_host);
    } else {
        auto b_raw = rt.alloc(cfg.wdtype, {cfg.k, cfg.n});
        rt.upload(b_raw, b_host);
        b_dev = rt.alloc(tilus::uint8(),
                         {cfg.k / cfg.bk, cfg.n / cfg.bn,
                          cfg.tileBytes()});
        const lir::Kernel &tk =
            rt.getOrCompile(*bundle.transform_program, opts);
        rt.launch(tk, {{bundle.t_in_ptr, int64_t(b_raw.ptr)},
                       {bundle.t_out_ptr, int64_t(b_dev.ptr)}});
    }

    runtime::DeviceTensor s_dev;
    std::vector<runtime::KernelArg> args = {
        {bundle.m, m},
        {bundle.a_ptr, int64_t(a_dev.ptr)},
        {bundle.b_ptr, int64_t(b_dev.ptr)},
        {bundle.c_ptr, int64_t(c_dev.ptr)},
    };
    if (cfg.group_size > 0) {
        s_dev = rt.alloc(tilus::float16(),
                         {cfg.k / cfg.group_size, cfg.n});
        rt.upload(s_dev, *scales_host);
        args.push_back({bundle.scale_ptr, int64_t(s_dev.ptr)});
    }

    const lir::Kernel &kernel = rt.getOrCompile(bundle.main_program, opts);
    MatmulRun run;
    run.stats = rt.launch(kernel, args);
    PackedBuffer c_host = rt.download(c_dev);
    run.result.resize(m * cfg.n);
    for (int64_t i = 0; i < m * cfg.n; ++i)
        run.result[i] = decodeValue(tilus::float16(), c_host.getRaw(i));
    return run;
}

/** Random unified-representation layout of the given rank. */
inline Layout
randomUnified(Rng &rng, int rank)
{
    // Build per-dim mode lists with small sizes, then deal the modes to
    // the spatial/local order lists in random order.
    std::vector<int64_t> shape(rank, 1);
    std::vector<int64_t> mode_shape;
    std::vector<int> mode_dim;
    for (int d = 0; d < rank; ++d) {
        int parts = static_cast<int>(rng.nextRange(1, 3));
        for (int p = 0; p < parts; ++p) {
            int64_t size = rng.nextRange(1, 4);
            shape[d] *= size;
            mode_shape.push_back(size);
            mode_dim.push_back(d);
        }
    }
    std::vector<int> order(mode_shape.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    // Fisher-Yates shuffle with our deterministic rng.
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    size_t cut = rng.nextBelow(order.size() + 1);
    std::vector<int> spatial(order.begin(), order.begin() + cut);
    std::vector<int> local(order.begin() + cut, order.end());
    return Layout::make(shape, mode_shape, mode_dim, spatial, local);
}

/** Max |a-b| over matching entries, scaled by magnitude. */
inline double
maxRelativeError(const std::vector<double> &got,
                 const std::vector<double> &want)
{
    double worst = 0.0;
    for (size_t i = 0; i < got.size(); ++i) {
        double denom = std::max(1.0, std::abs(want[i]));
        worst = std::max(worst, std::abs(got[i] - want[i]) / denom);
    }
    return worst;
}

} // namespace testing
} // namespace tilus
