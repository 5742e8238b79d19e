#include "fuzz/harness.h"

#include <algorithm>

#include "cache/blob_store.h"
#include "cache/serialize.h"
#include "compiler/compiler.h"
#include "ir/verifier.h"
#include "support/error.h"

namespace tilus {
namespace fuzz {

namespace {

/** Flip the first elementwise binary op in @p body (kAdd <-> kSub). */
bool
plantBugInBody(lir::LBody &body)
{
    for (lir::LNode &node : body) {
        if (auto *op = std::get_if<lir::LOp>(&node.node)) {
            if (auto *bin = std::get_if<lir::EltwiseBinary>(op)) {
                bin->op =
                    bin->op == static_cast<int>(ir::TensorBinaryOp::kAdd)
                        ? static_cast<int>(ir::TensorBinaryOp::kSub)
                        : static_cast<int>(ir::TensorBinaryOp::kAdd);
                return true;
            }
            continue;
        }
        if (auto *f = std::get_if<lir::LFor>(&node.node)) {
            if (plantBugInBody(*f->body))
                return true;
            continue;
        }
        if (auto *i = std::get_if<lir::LIf>(&node.node)) {
            if (plantBugInBody(*i->then_body))
                return true;
            if (i->else_body && plantBugInBody(*i->else_body))
                return true;
            continue;
        }
        if (auto *w = std::get_if<lir::LWhile>(&node.node)) {
            if (plantBugInBody(*w->body))
                return true;
            continue;
        }
    }
    return false;
}

} // namespace

uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::vector<opt::OracleLeg>
sixLegs(const lir::Kernel &k0, const lir::Kernel &rt0,
        const lir::Kernel &k2, const lir::Kernel &rt2)
{
    const sim::Engine tw = sim::Engine::kTreeWalk;
    const sim::Engine mo = sim::Engine::kAuto;
    return {
        {"O0/treewalk", &k0, tw},
        {"O0/microop", &k0, mo},
        {"O0/roundtrip/treewalk", &rt0, tw},
        {"O2/treewalk", &k2, tw},
        {"O2/microop", &k2, mo},
        {"O2/roundtrip/microop", &rt2, mo},
    };
}

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::kPass: return "pass";
      case Verdict::kVerifierReject: return "verifier-reject";
      case Verdict::kCompileReject: return "compile-reject";
      case Verdict::kDivergence: return "DIVERGENCE";
      case Verdict::kCrash: return "CRASH";
    }
    return "?";
}

HarnessResult
runHarness(const ir::Program &program, const HarnessOptions &options)
{
    HarnessResult result;
    try {
        ir::verify(program);
    } catch (const VerifyError &e) {
        result.verdict = Verdict::kVerifierReject;
        result.detail = e.what();
        return result;
    } catch (const TilusError &e) {
        result.verdict = Verdict::kCrash;
        result.failing_leg = "verify";
        result.detail = e.what();
        return result;
    }

    lir::Kernel k0, k2;
    try {
        compiler::CompileOptions o0;
        o0.opt_level = compiler::OptLevel::O0;
        k0 = compiler::compile(program, o0);
        compiler::CompileOptions o2;
        o2.opt_level = compiler::OptLevel::O2;
        k2 = compiler::compile(program, o2);
    } catch (const CompileError &e) {
        result.verdict = Verdict::kCompileReject;
        result.detail = e.what();
        return result;
    } catch (const TilusError &e) {
        result.verdict = Verdict::kCrash;
        result.failing_leg = "compile";
        result.detail = e.what();
        return result;
    }

    try {
        // Cache round trip, plus the serializer's byte-identity law as a
        // free seventh leg.
        const std::string payload0 = cache::serializeKernel(k0);
        const std::string payload2 = cache::serializeKernel(k2);
        lir::Kernel rt0 = cache::deserializeKernel(payload0);
        lir::Kernel rt2 = cache::deserializeKernel(payload2);
        result.kernel_hash = mix64(cache::payloadHash(payload0)) ^
                             mix64(cache::payloadHash(payload2) + 1);
        if (cache::serializeKernel(rt0) != payload0 ||
            cache::serializeKernel(rt2) != payload2) {
            result.verdict = Verdict::kDivergence;
            result.failing_leg = "serialize/roundtrip";
            result.detail = "re-serialized kernel bytes differ";
            return result;
        }

        if (options.plant_engine_bug)
            plantBugInBody(k2.body);

        opt::NwayReport report =
            opt::diffLegs(sixLegs(k0, rt0, k2, rt2), options.oracle);
        result.microop_decoded = std::none_of(
            report.stats.begin(), report.stats.end(),
            [](const sim::SimStats &s) { return s.microop_fallbacks > 0; });
        if (report.crashed) {
            result.verdict = Verdict::kCrash;
            result.failing_leg = report.failing_leg;
            result.detail = report.detail;
        } else if (!report.identical) {
            result.verdict = Verdict::kDivergence;
            result.failing_leg = report.failing_leg;
            result.detail = report.detail;
        }
    } catch (const std::exception &e) {
        result.verdict = Verdict::kCrash;
        if (result.failing_leg.empty())
            result.failing_leg = "harness";
        result.detail = e.what();
    }
    return result;
}

} // namespace fuzz
} // namespace tilus
