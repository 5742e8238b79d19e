/**
 * @file
 * The fuzzing driver: seed chain, budget loop, finding minimization,
 * corpus serialization, and obs metrics.
 *
 * Reproducibility contract: a run is fully determined by (seed, budget).
 * The i-th program's seed is the i-th element of the splitmix64 chain
 * starting at the master seed, so any finding reduces to a one-liner:
 *
 *     ./build/fuzz_smoke --seed 0x<finding seed> --budget 1
 *
 * which regenerates exactly the failing program. FuzzReport::checksum
 * folds every generated kernel's serialized bytes and verdict, so two
 * runs with the same seed are byte-equal end to end (pinned by
 * tests/test_fuzz.cc).
 *
 * Corpus files (tests/corpus/, extension .lirk) are serialized O0
 * kernels in the
 * cache blob format (src/cache/blob_store.h) under the corpus magic
 * "TLFZ"; tools/check_fuzz.py validates the headers offline and the
 * corpus test re-runs every kernel through all six legs.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/harness.h"
#include "fuzz/minimizer.h"
#include "lir/lir.h"

namespace tilus {
namespace fuzz {

/** Blob magic of corpus files ("TLFZ"). */
constexpr uint32_t kCorpusMagic = 0x544c465a;

struct FuzzConfig
{
    uint64_t seed = 0x7115f055; ///< master seed of the splitmix chain
    int budget = 200;           ///< programs to generate and run
    bool minimize = true;       ///< delta-debug findings
    int max_minimized = 4;      ///< findings to minimize per run
    std::string corpus_out_dir; ///< write reduced kernels here when set
    HarnessOptions harness;
};

/** One divergence/crash (or must-reject program that slipped through). */
struct Finding
{
    uint64_t seed = 0; ///< per-program seed (plug into the repro line)
    Verdict verdict = Verdict::kPass;
    std::string bug_class;
    std::string failing_leg;
    std::string detail;
    std::string repro;        ///< one-line reproduction command
    ir::Program reduced;      ///< minimized program (== original when
                              ///< minimization was off or exhausted)
    int reduced_instructions = 0;
    int minimize_steps = 0;
    int minimize_tests = 0;
};

struct FuzzReport
{
    int programs = 0;
    int passes = 0;
    int verifier_rejects = 0;
    int compile_rejects = 0;
    int divergences = 0;
    int crashes = 0;
    int generator_errors = 0;  ///< generator emitted an invalid program
    int unexpected_valid = 0;  ///< adversarial program was NOT rejected
    int microop_fallbacks = 0; ///< runs where a kernel was undecodable
    uint64_t checksum = 0;     ///< reproducibility digest (see file doc)
    std::vector<Finding> findings;

    /** True when the run found nothing alarming. */
    bool
    clean() const
    {
        return divergences == 0 && crashes == 0 && unexpected_valid == 0 &&
               generator_errors == 0;
    }
};

/** Run the full generate -> 6-leg diff -> minimize loop. */
FuzzReport runFuzz(const FuzzConfig &config);

/** The one-line reproduction command for a per-program seed. */
std::string reproCommand(uint64_t seed);

/** Next element of the master seed chain (splitmix64). */
uint64_t nextSeed(uint64_t seed);

/// @name Corpus serialization (cache blob format, magic "TLFZ").
/// @{

/** Atomically write @p kernel as a corpus blob. */
bool writeCorpusKernel(const std::string &path, const lir::Kernel &kernel);

/** Read and decode a corpus blob; throws CacheFormatError on damage. */
lir::Kernel readCorpusKernel(const std::string &path);

/**
 * Re-verify a corpus kernel (serialized at O0) across all six legs:
 * the O2 twin is recovered by running the standard O2 pass pipeline
 * over a copy, then {treewalk, microop} x {direct, re-round-tripped}
 * run under opt::diffLegs.
 */
opt::NwayReport checkCorpusKernel(const lir::Kernel &kernel,
                                  const opt::OracleConfig &config);
/// @}

} // namespace fuzz
} // namespace tilus
