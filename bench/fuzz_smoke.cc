/**
 * @file
 * The differential fuzzing smoke driver (also the CI fuzz step).
 *
 * Runs the seeded generate -> 6-leg diff -> minimize loop and exits
 * non-zero when anything alarming happened (divergence, crash,
 * verifier gap, generator bug). Every finding prints a one-line repro:
 *
 *     ./build/fuzz_smoke --seed 0x<seed> --budget 1
 *
 * and a run with --plant-bug prints it with --plant-bug appended.
 *
 * Flags (a malformed number exits 2):
 *     --seed N          master seed (decimal, or hex after 0x)
 *     --budget N        programs to run, at least 1
 *     --plant-bug       flip an op in the O2 kernel (self-test: the
 *                       harness must report a divergence)
 *     --write-corpus D  serialize reduced findings into directory D
 *     --no-minimize     keep findings unreduced
 *     --seed-corpus D   regression-corpus seeding: walk the seed chain
 *                       and write the first clean kernel of every bug
 *                       class, and of each dot path of the layout class,
 *                       into D as <class>_<seed>.lirk, then exit
 */
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "compiler/compiler.h"
#include "fuzz/fuzz.h"
#include "fuzz/generator.h"
#include "opt/lir_rewrite.h"
#include "support/error.h"

using namespace tilus;

namespace {

/** Corpus slot of a clean kernel: its bug class, with the layout class
    split by dot path (none, tensor-core mma, SIMT). */
std::string
corpusSlot(const char *bug_class, const lir::Kernel &kernel)
{
    std::string slot = bug_class;
    if (slot != "layout")
        return slot;
    opt::forEachOp(kernel.body, [&](const lir::LOp &op) {
        if (std::holds_alternative<lir::MmaTile>(op))
            slot = "layout/mma";
        else if (std::holds_alternative<lir::SimtDot>(op))
            slot = "layout/simt";
    });
    return slot;
}

int
seedCorpus(const std::string &dir, const fuzz::FuzzConfig &config)
{
    const char *slots[] = {"layout", "layout/mma", "layout/simt", "masking",
                           "sync",   "dtype",      "control"};
    std::map<std::string, bool> missing;
    for (const char *s : slots)
        missing[s] = true;
    uint64_t chain = config.seed;
    for (int i = 0; i < 4000 && !missing.empty(); ++i) {
        const uint64_t seed = chain;
        chain = fuzz::nextSeed(chain);
        fuzz::Generated gen = fuzz::generateProgram(seed);
        if (gen.expect_invalid)
            continue;
        compiler::CompileOptions o0;
        o0.opt_level = compiler::OptLevel::O0;
        lir::Kernel kernel;
        try {
            kernel = compiler::compile(gen.program, o0);
        } catch (const FatalError &) {
            continue; // compile-reject: nothing to seed
        }
        const std::string slot = corpusSlot(gen.bug_class, kernel);
        if (missing.find(slot) == missing.end() ||
            fuzz::runHarness(gen.program, config.harness).verdict !=
                fuzz::Verdict::kPass)
            continue;
        char path[512];
        std::snprintf(path, sizeof(path), "%s/%s_%llx.lirk", dir.c_str(),
                      gen.bug_class,
                      static_cast<unsigned long long>(seed));
        if (!fuzz::writeCorpusKernel(path, kernel)) {
            std::fprintf(stderr, "cannot write %s\n", path);
            return 1;
        }
        std::printf("corpus: %s (%s)\n", path, slot.c_str());
        missing.erase(slot);
    }
    if (!missing.empty()) {
        std::fprintf(stderr, "could not cover every bug class\n");
        return 1;
    }
    return 0;
}

/** The whole of @p text as a decimal or 0x-prefixed hex number in
    [min, max]; anything else is a usage error and exits 2. */
uint64_t
parseNumber(const char *flag, const char *text, uint64_t min, uint64_t max)
{
    const bool hex = text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
    char *end = nullptr;
    errno = 0;
    const uint64_t v = std::strtoull(text, &end, hex ? 16 : 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
        errno == ERANGE || v < min || v > max) {
        std::fprintf(stderr, "%s needs a number in [%llu, %llu], got '%s'\n",
                     flag, static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max), text);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    fuzz::FuzzConfig config;
    bool expect_findings = false;
    std::string seed_corpus_dir;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(arg, "--seed") == 0) {
            config.seed = parseNumber(arg, value(), 0, UINT64_MAX);
        } else if (std::strcmp(arg, "--budget") == 0) {
            config.budget =
                static_cast<int>(parseNumber(arg, value(), 1, INT_MAX));
        } else if (std::strcmp(arg, "--plant-bug") == 0) {
            config.harness.plant_engine_bug = true;
            expect_findings = true;
        } else if (std::strcmp(arg, "--write-corpus") == 0) {
            config.corpus_out_dir = value();
        } else if (std::strcmp(arg, "--seed-corpus") == 0) {
            seed_corpus_dir = value();
        } else if (std::strcmp(arg, "--no-minimize") == 0) {
            config.minimize = false;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", arg);
            return 2;
        }
    }

    if (!seed_corpus_dir.empty())
        return seedCorpus(seed_corpus_dir, config);

    std::printf("fuzz: seed=0x%llx budget=%d\n",
                static_cast<unsigned long long>(config.seed),
                config.budget);
    fuzz::FuzzReport report = fuzz::runFuzz(config);

    std::printf("fuzz: programs=%d pass=%d verifier-reject=%d "
                "compile-reject=%d divergence=%d crash=%d\n",
                report.programs, report.passes, report.verifier_rejects,
                report.compile_rejects, report.divergences,
                report.crashes);
    std::printf("fuzz: generator-errors=%d unexpected-valid=%d "
                "checksum=0x%llx\n",
                report.generator_errors, report.unexpected_valid,
                static_cast<unsigned long long>(report.checksum));
    for (const fuzz::Finding &f : report.findings) {
        std::printf("finding: %s class=%s leg=%s reduced=%d insts "
                    "(%d shrink steps, %d tests)\n",
                    fuzz::verdictName(f.verdict), f.bug_class.c_str(),
                    f.failing_leg.c_str(), f.reduced_instructions,
                    f.minimize_steps, f.minimize_tests);
        std::printf("  detail: %s\n", f.detail.c_str());
        std::printf("  repro:  %s\n", f.repro.c_str());
    }

    if (expect_findings) {
        // Self-test mode: the planted engine bug MUST surface.
        if (report.divergences == 0) {
            std::printf("fuzz: FAIL - planted bug was not detected\n");
            return 1;
        }
        std::printf("fuzz: planted bug detected, harness works\n");
        return 0;
    }
    if (!report.clean()) {
        std::printf("fuzz: FAIL\n");
        return 1;
    }
    std::printf("fuzz: clean\n");
    return 0;
}
