/**
 * @file
 * Seeded random program generator for the differential fuzzer.
 *
 * Programs are generated through lang::Script, so every emitted pattern
 * is valid by construction: the generator picks random warp counts, tile
 * shapes, layouts (factored from the block's thread count), dtypes
 * (including the sub-byte u1-u7 family), control flow, and memory
 * traffic, but always wires them into type- and layout-consistent
 * compute chains. One weighted pattern emitter exists per bug class of
 * "Characterizing Real-World Bugs in Tile Programs" (see PAPERS.md):
 *
 *   - layout/indexing: exotic register layouts (row/column spatial and
 *     local factor orders, replica broadcast operands), View
 *     reinterpretation chains, strided block-offset stores;
 *   - masking: views whose extents are not tile multiples, so the
 *     lowered global accesses exercise the predicate/zero-fill paths on
 *     edge tiles;
 *   - synchronization: cp.async staging loops (commit/wait/barrier) and
 *     shared-memory layout conversion round trips — the inputs the O2
 *     software pipeliner and sync eliminator rewrite most aggressively;
 *   - dtype conversion: cast chains through f32/f16/ints and sub-byte
 *     types on both the fast and fallback lowering paths;
 *   - control flow: data-dependent scalar state threaded through
 *     for/while/if with break/continue.
 *
 * A small slice of the budget goes to adversarial templates built as raw
 * IR (bypassing Script's checks): programs that violate one verifier
 * rule each. The harness must classify those as kVerifierReject — if one
 * executes, the verifier has a gap.
 *
 * Determinism contract: generateProgram(seed) is a pure function of the
 * seed (variable and tensor ids are fresh per call, taken from counters
 * that only increase; structure, names, shapes, constants, and dtypes
 * are reproducible), so any finding is reproducible from the seed
 * alone. Its compiled kernels are byte-identical across calls because
 * compiler::compile numbers tensors in declaration order and the
 * serializer interns variables by first use.
 */
#pragma once

#include <cstdint>

#include "ir/program.h"

namespace tilus {
namespace fuzz {

/** One generated fuzz program plus its generation metadata. */
struct Generated
{
    ir::Program program;
    const char *bug_class = "";  ///< pattern family that led generation
    bool expect_invalid = false; ///< adversarial: the verifier must reject
};

/** Generate the program for one fuzz iteration (pure in @p seed). */
Generated generateProgram(uint64_t seed);

/** Number of adversarial (must-reject) templates. */
int adversarialTemplateCount();

/**
 * Build adversarial template @p index (in [0, adversarialTemplateCount)),
 * lightly randomized by @p seed. Every template violates exactly one
 * verifier rule; tests/test_fuzz.cc asserts each is rejected.
 */
Generated generateAdversarial(int index, uint64_t seed);

} // namespace fuzz
} // namespace tilus
