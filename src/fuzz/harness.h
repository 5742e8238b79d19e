/**
 * @file
 * The differential harness: one generated program, six execution legs.
 *
 * A program that passes the verifier is compiled at O0 and O2, each
 * kernel is round-tripped through the cache serializer
 * (src/cache/serialize.h), and the resulting kernels run as six legs of
 * one opt::diffLegs call on identically seeded devices with whole-DRAM
 * byte comparison:
 *
 *   0. O0/treewalk            (the reference semantics)
 *   1. O0/microop
 *   2. O0/roundtrip/treewalk  (serialize -> deserialize -> run)
 *   3. O2/treewalk
 *   4. O2/microop
 *   5. O2/roundtrip/microop
 *
 * The serializer's byte-identity invariant
 * (serializeKernel(deserializeKernel(b)) == b) is asserted as a seventh,
 * memory-free leg. The "microop" legs run under sim::Engine::kMicroOps,
 * so a kernel the micro-op engine cannot decode throws, and the program
 * is a kCrash finding.
 *
 * Verdict taxonomy (the fuzzer's classification contract):
 *   - kVerifierReject: ir::verify threw VerifyError — the program is
 *     invalid; for adversarial generator output this is the *expected*
 *     outcome, for organic output it still is not an engine bug.
 *   - kCompileReject: the compiler rejected a verified program with
 *     CompileError (e.g. no instruction selection for a layout combo).
 *   - kCrash: any other exception anywhere in the stack — panics,
 *     simulator faults (a micro-op decode failure among them), OOM.
 *     Always a finding.
 *   - kDivergence: some leg's DRAM differs from leg 0. Always a finding.
 *   - kPass: all legs byte-identical.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"
#include "opt/oracle.h"

namespace tilus {
namespace fuzz {

/** Outcome class of one harness run (see file comment). */
enum class Verdict
{
    kPass,
    kVerifierReject,
    kCompileReject,
    kDivergence,
    kCrash,
};

/** Printable name of a verdict. */
const char *verdictName(Verdict v);

struct HarnessOptions
{
    /** Device/seed configuration shared by all legs. The default
        shrinks the oracle's DRAM to 1 MiB: big enough for every
        generated arena, small enough to byte-compare six legs of
        hundreds of programs in seconds. */
    opt::OracleConfig oracle;

    /**
     * Plant a known engine bug: flip the first elementwise kAdd in the
     * O2 kernel to kSub after optimization. The fuzzer must then report
     * a divergence on an O2 leg, and the minimizer must reduce the
     * program to a handful of instructions (tests/test_fuzz.cc pins
     * both). This exists to prove end-to-end that the harness can see
     * and shrink real miscompiles.
     */
    bool plant_engine_bug = false;

    HarnessOptions() { oracle.device_bytes = 1 << 20; }
};

/** Outcome of one six-leg differential run. */
struct HarnessResult
{
    Verdict verdict = Verdict::kPass;
    std::string failing_leg; ///< leg name, for kDivergence/kCrash
    std::string detail;      ///< mismatch byte / exception text
    /** splitmix-folded hash of the serialized O0 and O2 kernels (0
        when the program never compiled); equal across runs iff
        generation and compilation are byte-reproducible. */
    uint64_t kernel_hash = 0;
};

/** Run the six legs for @p program. Never throws. */
HarnessResult runHarness(const ir::Program &program,
                         const HarnessOptions &options = {});

/**
 * The six legs (see the file comment) over an O0 kernel, its O2 twin
 * and the cache round trips @p rt0 and @p rt2 of each.
 */
std::vector<opt::OracleLeg> sixLegs(const lir::Kernel &k0,
                                    const lir::Kernel &rt0,
                                    const lir::Kernel &k2,
                                    const lir::Kernel &rt2);

/** splitmix64 finalizer: decorrelates combined hashes and seeds. */
uint64_t mix64(uint64_t x);

} // namespace fuzz
} // namespace tilus
