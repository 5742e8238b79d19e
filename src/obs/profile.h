/**
 * @file
 * The simulated-GPU kernel profiler: per-instruction cost attribution
 * over the interpreter's SimStats counters, plus roofline bound
 * classification against the target GpuSpec.
 *
 * Both execution engines (the tree-walk interpreter and the pre-decoded
 * micro-op engine) attribute every additive counter delta (the
 * sim::Counters list in sim/stats.h) to the LIR leaf instruction that
 * produced it: a ProfileCollector hangs off sim::RunOptions, each leaf
 * execution is bracketed by a counter snapshot, and the delta lands on
 * the instruction's row. Because every additive counter update happens
 * inside a leaf execution (the kernel-end cp.async drain only flips the
 * non-additive `overlapped` flag), the per-instruction rows sum
 * *exactly* to the whole-kernel SimStats — a conservation law
 * tests/test_profile.cc enforces across the kernel suite on both
 * engines.
 *
 * On top of the raw rows, ProfileCollector::finish() folds in the
 * analytical model (sim::estimateLatency): each instruction receives a
 * share of every LatencyBreakdown component equal to its share of the
 * work that component prices — it folds timing's exported table
 * (sim::componentWork, sim::kSyncOpUs, sim::waves) rather than copying
 * it — instructions roll up into prologue / main-loop / epilogue
 * regions, and each region — plus the whole kernel — is classified by
 * its dominant component (DRAM-, L2-, tensor-core-, SIMT-, ALU-, smem-
 * or serialization-bound) alongside the arithmetic-intensity-vs-ridge
 * roofline verdict.
 *
 * Arming: programmatically via RunOptions::profile, or process-wide
 * with TILUS_PROFILE=<path> — runtime::Runtime::launch then profiles
 * every launch and the ProfileSink writes a JSON document of the last
 * profile per kernel at process exit (tools/report_profile.py renders
 * it). Disarmed, profiling costs exactly one pointer test per leaf and
 * runs stay byte-identical (same contract as trace.h / fault.h;
 * A/B-gated in bench/bench_interp.cc).
 *
 * Thread safety: a ProfileCollector is NOT thread-safe — use one per
 * run. The ProfileSink is a mutex-guarded process singleton.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/expr.h"
#include "lir/lir.h"
#include "sim/gpu_spec.h"
#include "sim/stats.h"
#include "sim/timing.h"

namespace tilus {
namespace obs {

/** Kernel region an instruction belongs to, relative to the main loop. */
enum class Region : uint8_t
{
    kPrologue = 0, ///< before the main k-loop (or the whole kernel)
    kMainLoop = 1, ///< inside the main k-loop's subtree
    kEpilogue = 2, ///< after the main k-loop
};

constexpr int kNumRegions = 3;

const char *regionName(Region region);

/** Dominant-cost classification of a kernel or region. */
enum class Bound : uint8_t
{
    kDram = 0,
    kL2,
    kTensorCore,
    kSimt,
    kAlu,
    kSmem,
    kSerialization,
};

const char *boundName(Bound bound);

/** Per-instruction / per-region share of the modeled latency (µs).
    Components overlap when the kernel pipelines, so sums can exceed
    LatencyBreakdown::total_us — they explain, they do not re-total. */
struct ComponentUs
{
    double dram_us = 0;
    double l2_us = 0;
    double tc_us = 0;
    double simt_us = 0;
    double alu_us = 0;
    double smem_us = 0;
    double serial_us = 0;

    double
    total() const
    {
        return dram_us + l2_us + tc_us + simt_us + alu_us + smem_us +
               serial_us;
    }

    void
    add(const ComponentUs &other)
    {
        dram_us += other.dram_us;
        l2_us += other.l2_us;
        tc_us += other.tc_us;
        simt_us += other.simt_us;
        alu_us += other.alu_us;
        smem_us += other.smem_us;
        serial_us += other.serial_us;
    }
};

/** Dominant component of @p c (deterministic tie order: DRAM, L2,
    tensor-core, SIMT, ALU, smem, serialization — first strict max). */
Bound classify(const ComponentUs &c);

/** Same classification applied to a whole-kernel LatencyBreakdown
    (launch overhead excluded — it bounds nothing). */
Bound classifyBound(const sim::LatencyBreakdown &breakdown);

/** One attributed LIR leaf instruction. */
struct InstrProfile
{
    int id = 0;            ///< preorder index in the kernel body
    std::string opcode;    ///< printKernel-style mnemonic
    Region region = Region::kPrologue;
    int64_t executions = 0;
    sim::Counters counters;
    ComponentUs components;

    double
    estUs() const
    {
        return components.total();
    }
};

/** Rollup over all instructions of one region. */
struct RegionProfile
{
    Region region = Region::kPrologue;
    int64_t instructions = 0; ///< static instruction count
    int64_t executions = 0;
    sim::Counters counters;
    ComponentUs components;
    Bound bound = Bound::kDram;
};

/** The finished profile of one kernel execution. */
struct KernelProfile
{
    std::string kernel;
    std::string engine; ///< "treewalk" or "microop"
    int64_t blocks_profiled = 0;
    sim::LatencyBreakdown latency;
    double arith_intensity = 0;       ///< flops per global byte (block)
    double ridge_flops_per_byte = 0;  ///< tc peak / DRAM bandwidth
    bool memory_bound = false;        ///< arith_intensity < ridge
    Bound bound = Bound::kDram;       ///< whole-kernel classification
    sim::Counters totals;             ///< == whole-run additive SimStats
    std::array<RegionProfile, kNumRegions> regions;
    std::vector<InstrProfile> instructions;

    const RegionProfile &
    region(Region r) const
    {
        return regions[static_cast<size_t>(r)];
    }

    /** Deterministic JSON object (sorted keys within each level,
        instructions in id order). */
    std::string toJson() const;
};

/**
 * Collects per-instruction counter deltas during one sim::run. Build
 * one per kernel execution, point RunOptions::profile at it, then call
 * finish() with the representative block stats to fold in the model.
 */
class ProfileCollector
{
  public:
    explicit ProfileCollector(const lir::Kernel &kernel);

    ProfileCollector(const ProfileCollector &) = delete;
    ProfileCollector &operator=(const ProfileCollector &) = delete;

    /** Hot path: credit (after - before) to @p op's row. Called by both
        engines around every leaf execution when profiling is armed. */
    void
    attribute(const lir::LOp *op, const sim::Counters &before,
              const sim::Counters &after)
    {
        auto it = index_.find(op);
        if (it == index_.end())
            return; // op not in the walked body (defensive)
        InstrProfile &row = rows_[it->second];
        row.executions += 1;
        row.counters.addDelta(before, after);
    }

    /** Called once per executed thread block. */
    void
    noteBlock()
    {
        blocks_ += 1;
    }

    /// @name Introspection (conservation tests).
    /// @{
    size_t
    numInstructions() const
    {
        return rows_.size();
    }

    const InstrProfile &
    row(size_t i) const
    {
        return rows_[i];
    }

    /** Sum of every row's counters; equals the run's additive SimStats
        whenever the whole run was profiled. */
    sim::Counters attributedTotals() const;
    /// @}

    /**
     * Fold the analytical model over the attributed rows.
     *
     * @param block_stats one representative block's counters (the
     *                    timing model's input, e.g. traceOneBlock)
     * @param args        bound kernel parameters
     * @param spec        target GPU
     * @param traits      structural generator traits
     * @param engine      "treewalk" or "microop"
     */
    KernelProfile finish(const sim::SimStats &block_stats,
                         const ir::Env &args, const sim::GpuSpec &spec,
                         const sim::PerfTraits &traits = {},
                         const std::string &engine = "") const;

  private:
    const lir::Kernel &kernel_;
    std::unordered_map<const lir::LOp *, int> index_;
    std::vector<InstrProfile> rows_;
    int64_t blocks_ = 0;
};

/**
 * Process-wide sink armed by TILUS_PROFILE=<path>: keeps the last
 * KernelProfile per kernel name and writes one JSON document
 * ({"schema": "tilus-profile-v1", build_info, profiles sorted by
 * kernel name}) at process exit through the exit sink obs::Tracer and
 * obs::Registry share (obs/sink.h).
 */
class ProfileSink
{
  public:
    static ProfileSink &instance();

    ProfileSink() = default;

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Start recording; flush() writes the document to @p path. */
    void enable(const std::string &path);

    /** Stop recording and drop buffered profiles (tests). */
    void disable();

    /** Record a profile (keeps the last one per kernel name). */
    void record(KernelProfile profile);

    /** Assemble the profile document. */
    std::string document() const;

    /** Write document() to the enable() path; returns success. */
    bool flush();

    int64_t profileCount() const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_; ///< profiles_/path_
    std::string path_;
    std::map<std::string, KernelProfile> profiles_;
};

} // namespace obs
} // namespace tilus
