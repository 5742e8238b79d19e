/**
 * @file
 * The differential fuzzer (src/fuzz/): byte-reproducible runs from one
 * seed, the planted-bug self-test with automatic minimization, the
 * adversarial generator as verifier coverage, the checked-in regression
 * corpus re-verified across all six legs, and the corpus blob format's
 * damage robustness.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "cache/serialize.h"
#include "compiler/compiler.h"
#include "fuzz/fuzz.h"
#include "fuzz/generator.h"
#include "ir/verifier.h"
#include "obs/metrics.h"
#include "support/error.h"

namespace tilus {
namespace {

namespace fs = std::filesystem;

fs::path
corpusDir()
{
    return fs::path(__FILE__).parent_path() / "corpus";
}

/** A unique directory under /tmp, removed on destruction. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        path = fs::temp_directory_path() /
               ("tilus_fuzz_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter()++));
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }

    static int &
    counter()
    {
        static int n = 0;
        return n;
    }
};

TEST(Fuzz, RunsAreByteReproducible)
{
    fuzz::FuzzConfig config;
    config.seed = 0x1234;
    config.budget = 30;
    fuzz::FuzzReport a = fuzz::runFuzz(config);
    fuzz::FuzzReport b = fuzz::runFuzz(config);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.passes, b.passes);
    EXPECT_EQ(a.verifier_rejects, b.verifier_rejects);
    EXPECT_EQ(a.compile_rejects, b.compile_rejects);
    EXPECT_EQ(a.findings.size(), b.findings.size());
    EXPECT_TRUE(a.clean()) << "seed 0x1234 must fuzz clean";

    config.seed = 0x5678;
    fuzz::FuzzReport c = fuzz::runFuzz(config);
    EXPECT_NE(a.checksum, c.checksum);
}

TEST(Fuzz, SeedChainIsSplitmix)
{
    // Fixed chain: the repro one-liner depends on this never changing.
    EXPECT_EQ(fuzz::nextSeed(0), 0xe220a8397b1dcdafULL);
    EXPECT_NE(fuzz::nextSeed(1), fuzz::nextSeed(2));
    EXPECT_EQ(fuzz::reproCommand(0xabc),
              "./build/fuzz_smoke --seed 0xabc --budget 1");
}

TEST(Fuzz, GeneratorIsDeterministic)
{
    int compared = 0;
    for (uint64_t seed : {0x1ULL, 0x77ULL, 0xabcdefULL, 0x42ULL}) {
        fuzz::Generated a = fuzz::generateProgram(seed);
        fuzz::Generated b = fuzz::generateProgram(seed);
        ASSERT_EQ(a.expect_invalid, b.expect_invalid);
        if (a.expect_invalid)
            continue;
        compiler::CompileOptions o0;
        o0.opt_level = compiler::OptLevel::O0;
        try {
            EXPECT_EQ(
                cache::serializeKernel(compiler::compile(a.program, o0)),
                cache::serializeKernel(compiler::compile(b.program, o0)));
            ++compared;
        } catch (const CompileError &) {
            // Unsupported-shape seeds reject cleanly; nothing to compare.
        }
    }
    EXPECT_GT(compared, 0);
}

/**
 * The acceptance self-test: plant a known engine bug (an add/sub flip
 * in the O2 kernel, applied after serialization so the round-trip legs
 * stay clean) and require (a) the harness reports the divergence on an
 * O2 leg and (b) the minimizer reduces some repro to <= 10 leaf
 * instructions.
 */
TEST(Fuzz, PlantedBugIsFoundAndMinimized)
{
    fuzz::FuzzConfig config;
    config.budget = 12;
    config.harness.plant_engine_bug = true;
    fuzz::FuzzReport report = fuzz::runFuzz(config);
    ASSERT_GT(report.divergences, 0) << "planted bug went undetected";
    bool small_repro = false;
    for (const fuzz::Finding &f : report.findings) {
        EXPECT_EQ(f.verdict, fuzz::Verdict::kDivergence);
        EXPECT_EQ(f.failing_leg.rfind("O2/", 0), 0u)
            << "bug planted in the O2 kernel must surface on an O2 leg, "
               "got "
            << f.failing_leg;
        ir::verify(f.reduced); // reduced repro must stay a valid program
        if (f.minimize_tests > 0)
            small_repro |= f.reduced_instructions <= 10;
    }
    EXPECT_TRUE(small_repro)
        << "no minimized finding got down to <= 10 instructions";
}

TEST(Fuzz, MinimizerShrinksUnderTrivialPredicate)
{
    // An always-true predicate turns the minimizer loose: it must reach
    // a small valid program and report its work. Skip past any seeds
    // that roll an adversarial (must-reject) program.
    uint64_t seed = 0x2;
    fuzz::Generated gen = fuzz::generateProgram(seed);
    while (gen.expect_invalid)
        gen = fuzz::generateProgram(++seed);
    const int before = fuzz::countInstructions(gen.program);
    fuzz::MinimizeResult r = fuzz::minimizeProgram(
        gen.program, [](const ir::Program &) { return true; });
    EXPECT_LT(fuzz::countInstructions(r.program), before);
    EXPECT_GT(r.steps, 0);
    EXPECT_NO_THROW(ir::verify(r.program));
}

TEST(Fuzz, AdversarialProgramsAllRejected)
{
    // Every adversarial template violates exactly one verifier rule, so
    // this doubles as the verifier's malformed-program coverage.
    for (int i = 0; i < fuzz::adversarialTemplateCount(); ++i) {
        fuzz::Generated gen = fuzz::generateAdversarial(i, 0x9999 + i);
        ASSERT_TRUE(gen.expect_invalid);
        fuzz::HarnessResult hr = fuzz::runHarness(gen.program);
        EXPECT_EQ(hr.verdict, fuzz::Verdict::kVerifierReject)
            << "adversarial template " << i << " was not rejected ("
            << fuzz::verdictName(hr.verdict) << ": " << hr.detail << ")";
        EXPECT_THROW(ir::verify(gen.program), VerifyError)
            << "template " << i;
    }
}

TEST(Fuzz, CorpusRoundTripsAndRejectsDamage)
{
    TempDir tmp;
    fuzz::Generated gen = fuzz::generateProgram(0x42);
    ASSERT_FALSE(gen.expect_invalid);
    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    lir::Kernel kernel = compiler::compile(gen.program, o0);

    const std::string path = (tmp.path / "k.lirk").string();
    ASSERT_TRUE(fuzz::writeCorpusKernel(path, kernel));
    lir::Kernel back = fuzz::readCorpusKernel(path);
    EXPECT_EQ(cache::serializeKernel(back), cache::serializeKernel(kernel));

    EXPECT_THROW(fuzz::readCorpusKernel((tmp.path / "absent.lirk").string()),
                 cache::CacheFormatError);

    // Flip one payload byte: the header hash must catch it.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(32);
        char c;
        f.seekg(32);
        f.get(c);
        f.seekp(32);
        f.put(static_cast<char>(c ^ 0x40));
    }
    EXPECT_THROW(fuzz::readCorpusKernel(path), cache::CacheFormatError);
}

/**
 * The regression-corpus test: every checked-in kernel re-verifies
 * across all six legs (the O2 twin is recovered by re-running the
 * standard O2 pipeline on the deserialized O0 kernel).
 */
TEST(Fuzz, CheckedInCorpusPassesSixWay)
{
    int checked = 0;
    opt::OracleConfig oracle;
    oracle.device_bytes = 1 << 20;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(corpusDir())) {
        if (entry.path().extension() != ".lirk")
            continue;
        SCOPED_TRACE(entry.path().filename().string());
        lir::Kernel kernel = fuzz::readCorpusKernel(entry.path().string());
        opt::NwayReport report = fuzz::checkCorpusKernel(kernel, oracle);
        EXPECT_TRUE(report.identical)
            << report.failing_leg << ": " << report.detail;
        EXPECT_FALSE(report.crashed);
        ++checked;
    }
    EXPECT_GE(checked, 5) << "regression corpus is missing kernels";
}

TEST(Fuzz, FindingsAreWrittenToCorpusDir)
{
    TempDir tmp;
    fuzz::FuzzConfig config;
    config.budget = 12;
    config.harness.plant_engine_bug = true;
    config.corpus_out_dir = tmp.path.string();
    fuzz::FuzzReport report = fuzz::runFuzz(config);
    ASSERT_GT(report.divergences, 0);
    int written = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(tmp.path)) {
        EXPECT_EQ(entry.path().extension(), ".lirk");
        EXPECT_NO_THROW(fuzz::readCorpusKernel(entry.path().string()));
        ++written;
    }
    EXPECT_GT(written, 0);
}

TEST(Fuzz, StatsLandInObsRegistry)
{
    obs::Registry &reg = obs::Registry::instance();
    const int64_t before = reg.counter("fuzz_programs_total").value();
    fuzz::FuzzConfig config;
    config.budget = 5;
    fuzz::runFuzz(config);
    EXPECT_EQ(reg.counter("fuzz_programs_total").value(), before + 5);
}

} // namespace
} // namespace tilus
