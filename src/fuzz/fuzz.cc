#include "fuzz/fuzz.h"

#include <sstream>

#include "cache/blob_store.h"
#include "cache/fingerprint.h"
#include "cache/serialize.h"
#include "compiler/compiler.h"
#include "fuzz/generator.h"
#include "obs/metrics.h"
#include "opt/pass_manager.h"
#include "support/error.h"

namespace tilus {
namespace fuzz {

uint64_t
nextSeed(uint64_t seed)
{
    return mix64(seed + 0x9e3779b97f4a7c15ULL);
}

std::string
reproCommand(uint64_t seed)
{
    std::ostringstream oss;
    oss << "./build/fuzz_smoke --seed 0x" << std::hex << seed
        << " --budget 1";
    return oss.str();
}

bool
writeCorpusKernel(const std::string &path, const lir::Kernel &kernel)
{
    return cache::writeBlobAtomic(path, kCorpusMagic,
                                  cache::kCacheFormatVersion,
                                  cache::serializeKernel(kernel));
}

lir::Kernel
readCorpusKernel(const std::string &path)
{
    std::string payload, why;
    switch (cache::readBlobFile(path, kCorpusMagic,
                                cache::kCacheFormatVersion, &payload,
                                &why)) {
      case cache::BlobRead::kHit:
        return cache::deserializeKernel(payload);
      case cache::BlobRead::kMissing:
        throw cache::CacheFormatError("corpus file missing: " + path);
      case cache::BlobRead::kCorrupt:
        break;
    }
    throw cache::CacheFormatError("corpus file corrupt: " + path + " (" +
                                  why + ")");
}

opt::NwayReport
checkCorpusKernel(const lir::Kernel &kernel,
                  const opt::OracleConfig &config)
{
    const std::string bytes = cache::serializeKernel(kernel);
    lir::Kernel rt0 = cache::deserializeKernel(bytes);
    // Deep copy: Kernel bodies are shared_ptrs and the pass pipeline
    // mutates in place, so optimizing a plain copy would corrupt the
    // O0 legs through the shared body.
    lir::Kernel k2 = cache::deserializeKernel(bytes);
    opt::PassManager::standardPipeline(compiler::OptLevel::O2).run(k2);
    lir::Kernel rt2 = cache::deserializeKernel(cache::serializeKernel(k2));
    return opt::diffLegs(sixLegs(kernel, rt0, k2, rt2), config);
}

FuzzReport
runFuzz(const FuzzConfig &config)
{
    FuzzReport report;
    uint64_t chain = config.seed;
    int minimized = 0;

    for (int i = 0; i < config.budget; ++i) {
        const uint64_t seed = chain;
        chain = nextSeed(chain);
        ++report.programs;

        Generated gen;
        try {
            gen = generateProgram(seed);
        } catch (const TilusError &e) {
            // The generator's valid-by-construction contract broke: a
            // generator bug, reported like a finding (repro by seed).
            ++report.generator_errors;
            Finding f;
            f.seed = seed;
            f.verdict = Verdict::kVerifierReject;
            f.bug_class = "generator";
            f.detail = e.what();
            f.repro = reproCommand(seed);
            report.findings.push_back(std::move(f));
            report.checksum = mix64(report.checksum ^ mix64(seed));
            continue;
        }

        HarnessResult hr = runHarness(gen.program, config.harness);
        report.checksum =
            mix64(report.checksum ^ mix64(seed) ^ hr.kernel_hash ^
                  (static_cast<uint64_t>(hr.verdict) + 1));
        if (!hr.microop_decoded && hr.verdict != Verdict::kVerifierReject &&
            hr.verdict != Verdict::kCompileReject)
            ++report.microop_fallbacks;

        if (gen.expect_invalid) {
            if (hr.verdict == Verdict::kVerifierReject) {
                ++report.verifier_rejects;
            } else {
                // A must-reject program slipped through: verifier gap.
                ++report.unexpected_valid;
                Finding f;
                f.seed = seed;
                f.verdict = hr.verdict;
                f.bug_class = gen.bug_class;
                f.failing_leg = hr.failing_leg;
                f.detail = "verifier accepted a must-reject program (" +
                           std::string(verdictName(hr.verdict)) + ": " +
                           hr.detail + ")";
                f.repro = reproCommand(seed);
                f.reduced = gen.program;
                f.reduced_instructions = countInstructions(gen.program);
                report.findings.push_back(std::move(f));
            }
            continue;
        }

        switch (hr.verdict) {
          case Verdict::kPass:
            ++report.passes;
            continue;
          case Verdict::kVerifierReject:
            ++report.verifier_rejects;
            continue;
          case Verdict::kCompileReject:
            ++report.compile_rejects;
            continue;
          case Verdict::kDivergence:
            ++report.divergences;
            break;
          case Verdict::kCrash:
            ++report.crashes;
            break;
        }

        Finding f;
        f.seed = seed;
        f.verdict = hr.verdict;
        f.bug_class = gen.bug_class;
        f.failing_leg = hr.failing_leg;
        f.detail = hr.detail;
        f.repro = reproCommand(seed);
        f.reduced = gen.program;
        if (config.minimize && minimized < config.max_minimized) {
            ++minimized;
            MinimizeResult mr = minimizeProgram(
                gen.program, [&](const ir::Program &candidate) {
                    HarnessResult r =
                        runHarness(candidate, config.harness);
                    return r.verdict == Verdict::kDivergence ||
                           r.verdict == Verdict::kCrash;
                });
            f.reduced = std::move(mr.program);
            f.minimize_steps = mr.steps;
            f.minimize_tests = mr.tests;
        }
        f.reduced_instructions = countInstructions(f.reduced);
        if (!config.corpus_out_dir.empty()) {
            try {
                compiler::CompileOptions o0;
                o0.opt_level = compiler::OptLevel::O0;
                std::ostringstream path;
                path << config.corpus_out_dir << "/fuzz_" << std::hex
                     << seed << ".lirk";
                writeCorpusKernel(path.str(),
                                  compiler::compile(f.reduced, o0));
            } catch (const TilusError &) {
                // A crash-class finding may not recompile; the seed in
                // the repro line still reproduces it.
            }
        }
        report.findings.push_back(std::move(f));
    }

    obs::Registry &reg = obs::Registry::instance();
    reg.counter("fuzz_programs_total").add(report.programs);
    reg.counter("fuzz_passes_total").add(report.passes);
    reg.counter("fuzz_verifier_rejects_total").add(report.verifier_rejects);
    reg.counter("fuzz_compile_rejects_total").add(report.compile_rejects);
    reg.counter("fuzz_divergences_total").add(report.divergences);
    reg.counter("fuzz_crashes_total").add(report.crashes);
    reg.counter("fuzz_microop_fallbacks_total")
        .add(report.microop_fallbacks);
    int64_t steps = 0;
    for (const Finding &f : report.findings)
        steps += f.minimize_steps;
    reg.counter("fuzz_minimize_steps_total").add(steps);
    return report;
}

} // namespace fuzz
} // namespace tilus
