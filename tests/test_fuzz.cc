/**
 * @file
 * The differential fuzzer (src/fuzz/): byte-reproducible runs from one
 * seed, the planted-bug self-test with automatic minimization, the
 * adversarial generator as verifier coverage, the checked-in regression
 * corpus re-verified across all six legs, and the corpus blob format's
 * damage robustness.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "cache/serialize.h"
#include "compiler/compiler.h"
#include "fuzz/fuzz.h"
#include "fuzz/generator.h"
#include "ir/verifier.h"
#include "obs/metrics.h"
#include "opt/lir_rewrite.h"
#include "support/error.h"

namespace tilus {
namespace {

namespace fs = std::filesystem;

fs::path
corpusDir()
{
    return fs::path(__FILE__).parent_path() / "corpus";
}

/** The generator's bug classes: each has a corpus kernel. */
const std::vector<std::string> kBugClasses = {"layout", "masking", "sync",
                                              "dtype", "control"};

/** Is @p name a corpus file name, <bug-class>_<hex seed>.lirk? */
bool
isCorpusName(const std::string &name)
{
    const size_t sep = name.find('_');
    const size_t ext = name.size() - std::string(".lirk").size();
    if (sep == std::string::npos || name.size() < 5 || ext <= sep + 1 ||
        name.compare(ext, std::string::npos, ".lirk") != 0)
        return false;
    const std::string seed = name.substr(sep + 1, ext - sep - 1);
    return std::count(kBugClasses.begin(), kBugClasses.end(),
                      name.substr(0, sep)) > 0 &&
           seed.find_first_not_of("0123456789abcdef") == std::string::npos;
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
 * O2 leg, (b) the minimizer reduces some repro to <= 10 leaf
 * instructions and (c) each printed repro plants the bug again and
 * replays its finding.
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
        // Without --plant-bug the repro's program runs clean.
        std::ostringstream repro;
        repro << "./build/fuzz_smoke --seed 0x" << std::hex << f.seed
              << " --budget 1 --plant-bug";
        EXPECT_EQ(f.repro, repro.str());
    }
    EXPECT_TRUE(small_repro)
        << "no minimized finding got down to <= 10 instructions";

    // What the first repro runs: its seed, one program, the bug planted.
    fuzz::FuzzConfig replay = config;
    replay.seed = report.findings.front().seed;
    replay.budget = 1;
    replay.minimize = false;
    EXPECT_EQ(fuzz::runFuzz(replay).divergences, 1);
}

/**
 * The simulator, the micro-op decoder and the serializer know tid,
 * __workspace and ctaid.* by id, so no program variable may share an
 * id with one of them. The first 200 programs of CI's seed, compiled
 * at O0, are checked variable by variable: parameters, block indices,
 * loop and assigned variables, and every variable an expression reads.
 */
TEST(Fuzz, ProgramVariablesNeverShareSpecialIds)
{
    std::map<int, const ir::ExprNode *> special;
    for (const ir::Var &v : {lir::tidVar(), lir::workspaceVar(),
                             lir::blockIdxVar(0), lir::blockIdxVar(1),
                             lir::blockIdxVar(2)})
        special[v.id()] = v.node().get();

    int compiled = 0;
    uint64_t seed = fuzz::FuzzConfig().seed;
    for (int i = 0; i < 200; ++i, seed = fuzz::nextSeed(seed)) {
        fuzz::Generated gen = fuzz::generateProgram(seed);
        if (gen.expect_invalid)
            continue;
        compiler::CompileOptions o0;
        o0.opt_level = compiler::OptLevel::O0;
        lir::Kernel kernel;
        try {
            kernel = compiler::compile(gen.program, o0);
        } catch (const CompileError &) {
            continue;
        }
        ++compiled;
        auto check = [&](const ir::Expr &expr) {
            ir::mapExpr(expr, [&](const ir::Expr &node) -> ir::Expr {
                if (node->kind() != ir::ExprKind::kVar)
                    return nullptr;
                const auto &var = static_cast<const ir::VarNode &>(*node);
                auto it = special.find(var.id);
                EXPECT_TRUE(it == special.end() || it->second == node.get())
                    << "seed 0x" << std::hex << seed << ": variable '"
                    << var.name << "' has the id of a special variable";
                return nullptr;
            });
        };
        for (const ir::Var &v : kernel.params)
            check(v);
        for (const ir::Var &v : kernel.block_index_vars)
            check(v);
        opt::forEachBodyExpr(kernel.body, check);
        std::function<void(const lir::LBody &)> defs =
            [&](const lir::LBody &body) {
                for (const lir::LNode &node : body) {
                    if (auto *f = std::get_if<lir::LFor>(&node.node)) {
                        check(f->var);
                        defs(*f->body);
                    } else if (auto *a =
                                   std::get_if<lir::LAssign>(&node.node)) {
                        check(a->var);
                    } else if (auto *w =
                                   std::get_if<lir::LWhile>(&node.node)) {
                        defs(*w->body);
                    } else if (auto *b = std::get_if<lir::LIf>(&node.node)) {
                        defs(*b->then_body);
                        if (b->else_body)
                            defs(*b->else_body);
                    }
                }
            };
        defs(kernel.body);
    }
    EXPECT_GE(compiled, 150);
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
 * The regression-corpus test: every checked-in kernel is named
 * <bug-class>_<hex seed>.lirk, reads back through its blob header and
 * checksum, and re-verifies across all six legs (the O2 twin is
 * recovered by re-running the standard O2 pipeline on the deserialized
 * O0 kernel); every generator bug class has a kernel.
 */
TEST(Fuzz, CheckedInCorpusPassesSixWay)
{
    std::set<std::string> classes;
    opt::OracleConfig oracle;
    oracle.device_bytes = 1 << 20;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(corpusDir())) {
        if (entry.path().extension() != ".lirk")
            continue;
        const std::string name = entry.path().filename().string();
        SCOPED_TRACE(name);
        EXPECT_TRUE(isCorpusName(name)) << "not <bug-class>_<hex seed>.lirk";
        classes.insert(name.substr(0, name.find('_')));
        lir::Kernel kernel = fuzz::readCorpusKernel(entry.path().string());
        opt::NwayReport report = fuzz::checkCorpusKernel(kernel, oracle);
        EXPECT_TRUE(report.identical)
            << report.failing_leg << ": " << report.detail;
        EXPECT_FALSE(report.crashed);
    }
    for (const std::string &bug_class : kBugClasses)
        EXPECT_TRUE(classes.count(bug_class))
            << "no corpus kernel of bug class " << bug_class;
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
    // Written as the checked-in corpus is named, so a finding can be
    // copied into tests/corpus/ as it is.
    std::set<std::string> expected;
    for (const fuzz::Finding &f : report.findings) {
        std::ostringstream name;
        name << f.bug_class << "_" << std::hex << f.seed << ".lirk";
        expected.insert(name.str());
    }
    int written = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(tmp.path)) {
        const std::string name = entry.path().filename().string();
        EXPECT_TRUE(isCorpusName(name)) << name;
        EXPECT_TRUE(expected.count(name)) << name << " names no finding";
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
