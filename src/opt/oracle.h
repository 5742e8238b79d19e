/**
 * @file
 * The differential-testing oracle for LIR passes.
 *
 * Every pass-transformed kernel must be bit-identical to its
 * unoptimized twin in the functional interpreter: the oracle compiles a
 * program twice (reference at O0, candidate at the requested level),
 * runs both on separately constructed but identically seeded simulated
 * devices — the *entire* DRAM is pre-filled with the same pseudo-random
 * bytes, and pointer parameters are bound to the same fixed arenas — and
 * then compares the full device contents byte for byte. Because all of
 * memory is compared, the oracle needs no knowledge of which tensors are
 * outputs, and any stray write (or missing write, e.g. a synchronization
 * the optimizer wrongly removed, surfacing as observable cp.async
 * staleness) is caught wherever it lands.
 */
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "compiler/compiler.h"
#include "ir/program.h"
#include "sim/device.h"
#include "sim/interpreter.h"
#include "sim/stats.h"

namespace tilus {
namespace opt {

/** Inputs of one differential run. */
struct OracleConfig
{
    /** Seed for the device-memory pre-fill. */
    uint64_t seed = 0x7115A110;

    /** Simulated DRAM size; pointer parameters split it evenly (the
        last share is left for the kernel workspace). */
    int64_t device_bytes = 16 << 20;

    /** Scalar parameter bindings by name (e.g. {"m", 16}). Scalar
        parameters not listed are bound to 1. */
    std::vector<std::pair<std::string, int64_t>> scalars;

    /** Execute only the first max_blocks blocks (-1 = all). */
    int64_t max_blocks = -1;
};

/** Outcome of one differential run. */
struct OracleReport
{
    bool identical = false;
    std::string detail; ///< first mismatch (or the thrown error)
    sim::SimStats stats_ref;
    sim::SimStats stats_opt;
    std::string listing_ref; ///< printKernel of the O0 twin
    std::string listing_opt; ///< printKernel of the candidate
};

/**
 * One execution leg of an N-way differential run: a kernel plus the
 * engine that executes it. Legs of one run must agree on parameters
 * (they do when every kernel comes from compiler::compile — or a
 * cache round-trip — of one program).
 */
struct OracleLeg
{
    std::string name; ///< e.g. "O2/microop/roundtrip" (for reports)
    const lir::Kernel *kernel = nullptr;
    sim::Engine engine = sim::Engine::kMicroOps;
};

/** Outcome of an N-way differential run (diffLegs). */
struct NwayReport
{
    /** Every leg's DRAM matched leg 0 byte for byte. */
    bool identical = false;

    /** True when some leg threw instead of finishing. */
    bool crashed = false;

    /** Name of the first leg that diverged or crashed ("" if none). */
    std::string failing_leg;

    /** First mismatching byte, or the thrown error. */
    std::string detail;

    /** Per-leg run statistics, index-aligned with the input legs.
        Legs after a crash are not run and keep default stats. */
    std::vector<sim::SimStats> stats;
};

/**
 * Run N legs of the same program differentially: leg 0 is the
 * reference; every other leg executes on a separately constructed but
 * identically seeded device and the whole DRAM is byte-compared
 * against the reference. Stops at the first crash or divergence.
 * This is the fuzzing harness's oracle (src/fuzz/harness.h); the
 * pairwise flavours below are thin wrappers over it.
 */
NwayReport diffLegs(const std::vector<OracleLeg> &legs,
                    const OracleConfig &config = {});

/**
 * Run two compiled kernels of the *same program* differentially; the
 * kernels must agree on parameters (they do when both come from
 * compiler::compile on one program).
 */
OracleReport diffKernels(const lir::Kernel &reference,
                         const lir::Kernel &candidate,
                         const OracleConfig &config = {});

/**
 * Compile @p program at O0 and at @p options (typically O2) and compare
 * the two kernels differentially.
 */
OracleReport diffProgram(const ir::Program &program,
                         const compiler::CompileOptions &options = {},
                         const OracleConfig &config = {});

/**
 * Run one kernel under two *engines* differentially: the tree-walk
 * interpreter as the reference, the pre-decoded micro-op engine as the
 * candidate, on identically seeded devices with the whole-DRAM byte
 * compare. This is the correctness oracle for sim/microop.cc: every
 * decoded kernel must be observably indistinguishable from the tree
 * walk (tests/test_microop.cc covers the kernel suite with it).
 */
OracleReport diffEngines(const lir::Kernel &kernel,
                         const OracleConfig &config = {});

/**
 * One functional run on a freshly seeded device under a chosen engine
 * (the building block of both diff flavours; bench_interp times it).
 * When @p profile is non-null the run attributes counter deltas to LIR
 * instructions (conservation tests and the profiling A/B bench).
 */
sim::SimStats runSeeded(const lir::Kernel &kernel,
                        const OracleConfig &config, sim::Device &device,
                        sim::Engine engine = sim::Engine::kMicroOps,
                        obs::ProfileCollector *profile = nullptr);

/**
 * Byte-compare two devices; on mismatch writes the first differing
 * offset into @p detail (when non-null) and returns false.
 */
bool devicesIdentical(sim::Device &a, sim::Device &b, int64_t bytes,
                      std::string *detail = nullptr);

} // namespace opt
} // namespace tilus
