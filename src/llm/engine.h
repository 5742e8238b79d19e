/**
 * @file
 * The LLM serving substrate for the end-to-end evaluation (Sections
 * 9.4-9.5): a vLLM-like engine that computes per-step latency by issuing
 * every layer's matmul to the simulated GPU through the chosen system's
 * kernel generator, plus bandwidth-bound attention / normalization terms
 * that are identical across systems. Continuous batching semantics follow
 * the paper: in decode the batch size equals the number of requests (one
 * token each); in prefill it equals the total prompt length.
 *
 * Device-memory footprint (quantized weights + f16 embeddings/LM head +
 * KV-cache reservation) is checked against the GPU's capacity on engine
 * construction, reproducing the OOM entries of Figures 12-13.
 */
#pragma once

#include <map>
#include <tuple>

#include "baselines/baselines.h"
#include "llm/model_config.h"
#include "runtime/runtime.h"

namespace tilus {
namespace llm {

/** Engine configuration: which system serves which weight format. */
struct EngineOptions
{
    baselines::System system = baselines::System::kTilus;
    DataType wdtype = tilus::uint4();
    int64_t group_size = 128;   ///< sub-channel scale group
    int64_t context_tokens = 1024; ///< decode context per request
    int64_t max_batch = 16;     ///< KV reservation assumes this many
    /** LIR pass-pipeline level of every kernel the engine compiles;
        the serving cost paths inherit the optimizer's speedups. */
    compiler::OptLevel opt_level = compiler::OptLevel::O2;
    /** Optional tuning-space override for every matmul sweep (must
        outlive the engine). Demos use a compact space to keep
        cold-cache runs short; nullptr keeps the per-system defaults
        and the paper's tune keys. */
    const autotune::TuneSpace *tune_space = nullptr;
};

/**
 * Abstract per-iteration cost model consumed by the serving layer
 * (src/serving/): everything a continuous-batching scheduler needs to
 * know about the engine, with no per-call footprint re-checks — capacity
 * is established once at construction and exposed as plain numbers.
 * Implemented by ServingEngine (simulated kernels) and by the synthetic
 * models the serving tests use.
 */
class StepCostModel
{
  public:
    virtual ~StepCostModel() = default;

    /** Latency of one decode step serving `batch` requests (ms). */
    virtual double decodeMs(int64_t batch) = 0;

    /**
     * Latency of one prefill step over `tokens` new prompt tokens with
     * `past_tokens` of already-prefilled context (ms). Attention in a
     * chunk attends to everything before it, so chunking a prompt must
     * sum to the one-shot cost: implementations price the attention
     * term as tokens * (2*past + tokens), which telescopes exactly.
     */
    virtual double prefillMs(int64_t tokens, int64_t past_tokens) = 0;

    /** One-shot prefill over a whole prompt. */
    double prefillMs(int64_t tokens) { return prefillMs(tokens, 0); }

    /** KV-cache tokens reserved on the device at construction. */
    virtual int64_t kvCapacityTokens() const = 0;

    /** Concurrent requests the KV reservation assumes. */
    virtual int64_t maxBatch() const = 0;

    /** Per-request context window the decode cost model assumes; a
        request whose prompt + output exceeds this cannot be served. */
    virtual int64_t contextTokens() const = 0;
};

/** A served model instance on one simulated GPU. */
class ServingEngine : public StepCostModel
{
  public:
    /**
     * Reserve the model's footprint on the device; throws
     * OutOfMemoryError when it exceeds capacity (Figures 12-13 "OOM").
     */
    ServingEngine(runtime::Runtime &rt, ModelConfig model,
                  EngineOptions options);

    /**
     * Latency of one decode step serving `batch` requests (ms).
     * Memoized per batch size: the first call tunes and simulates the
     * step's kernels, repeated calls are O(log n) lookups — the serving
     * event loop issues millions of these.
     */
    double decodeMs(int64_t batch) override;

    /** Latency of one prefill chunk (ms), memoized; see StepCostModel. */
    double prefillMs(int64_t tokens, int64_t past_tokens) override;
    using StepCostModel::prefillMs;

    /**
     * Tune and memoize the step costs for the given decode batch sizes
     * and prefill chunk sizes up front, instead of lazily on first
     * lookup. Every matmul tuning goes through the persistent autotune
     * database (cache/tune_db.h): the first process pays the sweeps
     * (candidates estimated in parallel), repeat processes warm up in
     * milliseconds. serving::Simulator::warmUp does the same through
     * the StepCostModel interface for the exact bucket sets its event
     * loop will request.
     */
    void warmUp(const std::vector<int64_t> &decode_batches,
                const std::vector<int64_t> &prefill_chunks);

    int64_t kvCapacityTokens() const override
    {
        return options_.context_tokens * options_.max_batch;
    }

    int64_t maxBatch() const override { return options_.max_batch; }

    int64_t contextTokens() const override
    {
        return options_.context_tokens;
    }

    const ModelConfig &model() const { return model_; }
    const EngineOptions &options() const { return options_; }

  private:
    double stepMs(int64_t tokens, int64_t past_tokens, bool prefill);
    double matmulUs(const LinearShape &shape, int64_t m,
                    bool quantized);

    runtime::Runtime &rt_;
    ModelConfig model_;
    EngineOptions options_;
    std::map<std::string, double> matmul_cache_;
    /** (tokens, past, prefill) -> ms. Distinct `past` values only add
        analytic attention math — the tuned matmul costs are keyed by
        `tokens` alone in matmul_cache_. */
    std::map<std::tuple<int64_t, int64_t, bool>, double> step_cache_;
};

} // namespace llm
} // namespace tilus
