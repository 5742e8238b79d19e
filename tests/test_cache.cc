/**
 * @file
 * The content-addressed kernel cache and persistent autotune database
 * (src/cache/): fingerprint stability across rebuilds, exhaustive
 * byte-identical LIR serialization round trips over the kernel suite,
 * wire-format pins (a hand-built kernel holding every op, the fuzz
 * corpus's checked-in payloads, a fixed tune record's blob digest),
 * whole-DRAM oracle equivalence of deserialized kernels, the on-disk
 * tier's corruption/version robustness (always a miss, never a crash),
 * Runtime integration across simulated process restarts, tune-database
 * determinism, cold sweeps that trace without decoding and keep no
 * kernel, the payload checksum, and thread safety of concurrent tuners
 * and concurrent writers of one blob.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>

#include "autotune/tuner.h"
#include "cache/blob_store.h"
#include "cache/compile_pool.h"
#include "obs/metrics.h"
#include "support/fault.h"
#include "cache/fingerprint.h"
#include "cache/kernel_cache.h"
#include "cache/serialize.h"
#include "cache/tune_db.h"
#include "fuzz/fuzz.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "layout/atoms.h"
#include "opt/oracle.h"
#include "sim/gpu_spec.h"
#include "sim/microop.h"
#include "test_helpers.h"

/** Largest single operator-new request since it was last reset: the
    hostile-count tests check that no decoder sizes an allocation from
    a count its payload cannot back. */
static std::atomic<size_t> g_largest_new{0};

void *
operator new(size_t size)
{
    size_t seen = g_largest_new.load(std::memory_order_relaxed);
    while (size > seen && !g_largest_new.compare_exchange_weak(
                              seen, size, std::memory_order_relaxed)) {
    }
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

// The matching deletes; GCC cannot tell that free() here pairs with
// the malloc() in operator new above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace tilus {
namespace {

using kernels::MatmulConfig;
using testing::simtConfig;
using testing::tensorCoreConfig;

/** A unique directory under /tmp, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "tilus_cache_XXXXXX")
                .string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        EXPECT_NE(mkdtemp(buf.data()), nullptr);
        path = buf.data();
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

/** The whole content of the file at @p path. */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/** Hex digest of @p bytes (the pins below compare these). */
std::string
digestOf(const std::string &bytes)
{
    cache::Hasher h;
    h.str(bytes);
    return h.digest().hex();
}

/** The round-trip suite: matmul main + transform kernels across both
    execution paths, grouped scales, the Triton variant, dense f16, and
    the elementwise kernels — every LIR op the compiler emits. */
std::vector<std::pair<std::string, ir::Program>>
kernelSuite()
{
    std::vector<std::pair<std::string, ir::Program>> suite;
    auto add = [&](const std::string &label, const ir::Program &p) {
        suite.emplace_back(label, p);
    };
    {
        MatmulConfig cfg = tensorCoreConfig(uint4());
        cfg.group_size = 32;
        kernels::MatmulBundle b = kernels::buildMatmul(cfg);
        add("tc_u4_grouped", b.main_program);
        EXPECT_TRUE(b.transform_program.has_value());
        if (b.transform_program)
            add("tc_u4_transform", *b.transform_program);
    }
    {
        kernels::MatmulBundle b =
            kernels::buildMatmul(tensorCoreConfig(float6e3m2()));
        add("tc_f6", b.main_program);
    }
    {
        MatmulConfig cfg = tensorCoreConfig(uint4());
        cfg.convert_via_smem = true;
        add("tc_u4_via_smem",
            kernels::buildMatmul(cfg).main_program);
    }
    {
        MatmulConfig cfg = tensorCoreConfig(uint3());
        cfg.transform_weights = false; // bitwise fallback path
        add("tc_u3_untransformed",
            kernels::buildMatmul(cfg).main_program);
    }
    {
        kernels::MatmulBundle b =
            kernels::buildMatmul(tensorCoreConfig(float16()));
        add("tc_f16_dense", b.main_program);
    }
    {
        kernels::MatmulBundle b =
            kernels::buildMatmul(simtConfig(uint4()));
        add("simt_u4", b.main_program);
    }
    add("vector_add", kernels::buildVectorAdd().program);
    add("axpy", kernels::buildAxpy().program);
    return suite;
}

// --------------------------------------------------------- fingerprints

TEST(Fingerprint, StableAcrossRebuilds)
{
    // Two builds of one configuration carry entirely different
    // process-global variable/tensor ids; the canonicalized fingerprint
    // must not see them.
    MatmulConfig cfg = tensorCoreConfig(uint4());
    ir::Program a = kernels::buildMatmul(cfg).main_program;
    ir::Program b = kernels::buildMatmul(cfg).main_program;
    EXPECT_EQ(cache::fingerprintProgram(a, {}),
              cache::fingerprintProgram(b, {}));
}

TEST(Fingerprint, OptLevelTwinsNeverAlias)
{
    // The oracle in opt/oracle.h depends on O0 and O2 compilations of
    // one program staying distinct kernels.
    ir::Program p =
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program;
    compiler::CompileOptions o0;
    o0.opt_level = compiler::OptLevel::O0;
    compiler::CompileOptions o2;
    EXPECT_NE(cache::fingerprintProgram(p, o0),
              cache::fingerprintProgram(p, o2));

    TempDir dir;
    cache::KernelCache disk(dir.path);
    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(&disk);
    const lir::Kernel &k0 = rt.getOrCompile(p, o0);
    const lir::Kernel &k2 = rt.getOrCompile(p, o2);
    EXPECT_NE(&k0, &k2);
    EXPECT_EQ(rt.compileCount(), 2);
}

TEST(Fingerprint, DistinguishesConfigsAndOptions)
{
    ir::Program base =
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program;
    MatmulConfig other_cfg = tensorCoreConfig(uint4());
    other_cfg.bk = 64;
    ir::Program other =
        kernels::buildMatmul(other_cfg).main_program;
    EXPECT_NE(cache::fingerprintProgram(base, {}),
              cache::fingerprintProgram(other, {}));

    compiler::CompileOptions no_vec;
    no_vec.enable_vectorize = false;
    EXPECT_NE(cache::fingerprintProgram(base, {}),
              cache::fingerprintProgram(base, no_vec));
}

// --------------------------------------------------------- serialization

TEST(Serialize, RoundTripIsByteIdenticalAcrossSuite)
{
    for (const auto &[label, program] : kernelSuite()) {
        for (compiler::OptLevel level :
             {compiler::OptLevel::O0, compiler::OptLevel::O2}) {
            compiler::CompileOptions opts;
            opts.opt_level = level;
            lir::Kernel kernel = compiler::compile(program, opts);
            std::string bytes = cache::serializeKernel(kernel);
            lir::Kernel loaded = cache::deserializeKernel(bytes);
            // Byte-identical re-serialization and identical listings.
            EXPECT_EQ(cache::serializeKernel(loaded), bytes)
                << label << " at O" << static_cast<int>(level);
            EXPECT_EQ(lir::printKernel(loaded), lir::printKernel(kernel))
                << label << " at O" << static_cast<int>(level);
        }
    }
}

TEST(Serialize, DeserializedKernelPassesWholeDramOracle)
{
    // The acceptance bar: a kernel materialized from cache bytes is
    // observably indistinguishable from the freshly compiled one over
    // the entire simulated DRAM.
    MatmulConfig cfg = tensorCoreConfig(uint4());
    cfg.group_size = 32;
    for (const ir::Program &program :
         {kernels::buildMatmul(cfg).main_program,
          kernels::buildMatmul(simtConfig(uint4())).main_program}) {
        lir::Kernel fresh = compiler::compile(program, {});
        lir::Kernel loaded =
            cache::deserializeKernel(cache::serializeKernel(fresh));
        opt::OracleConfig oracle;
        oracle.scalars = {{"m", 8}};
        opt::OracleReport report =
            opt::diffKernels(fresh, loaded, oracle);
        EXPECT_TRUE(report.identical) << report.detail;
    }
}

TEST(Serialize, SpecialVariablesRebindToSingletons)
{
    // tid must stay the process singleton after a round trip — the
    // micro-op decoder classifies addresses by its identity.
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    lir::Kernel loaded =
        cache::deserializeKernel(cache::serializeKernel(kernel));
    opt::OracleConfig oracle;
    oracle.scalars = {{"m", 8}};
    sim::Device device(oracle.device_bytes);
    sim::SimStats stats =
        opt::runSeeded(loaded, oracle, device, sim::Engine::kMicroOps);
    EXPECT_GT(stats.mma_ops, 0);
}

TEST(Serialize, CorruptPayloadThrowsFormatError)
{
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    std::string bytes = cache::serializeKernel(kernel);
    // Truncation at every prefix must throw, never crash.
    for (size_t cut : {size_t(0), size_t(1), bytes.size() / 2,
                       bytes.size() - 1}) {
        EXPECT_THROW(cache::deserializeKernel(bytes.substr(0, cut)),
                     cache::CacheFormatError)
            << "cut=" << cut;
    }
    // Trailing garbage is rejected too.
    EXPECT_THROW(cache::deserializeKernel(bytes + "x"),
                 cache::CacheFormatError);
}

// ------------------------------------------------------ wire-format pins
//
// Round trips alone would pass a format change made the same way on
// both sides; these compare against bytes fixed outside the serializer.

/** A hand-built kernel holding all nineteen leaf ops, every body node,
    a tensor with a composite layout, a global and all three kinds of
    variable reference, each field a distinct value. */
lir::Kernel
everyOpKernel()
{
    ir::Var n = ir::Var::make("n", int32());
    ir::Var ptr = ir::Var::make("ptr", int64());
    ir::Var i = ir::Var::make("i", int32());
    ir::Expr tid = lir::tidVar();
    ir::Expr addr = ir::Expr(ptr) + tid * 16 + ir::Expr(lir::blockIdxVar(0));
    ir::Expr pred = ir::makeSelect(tid < ir::Expr(n), ir::constInt(1),
                                   ir::constInt(0));
    lir::Kernel k;
    k.name = "every_op";
    k.sm_arch = 86;
    k.block_threads = 64;
    k.params = {ptr, n};
    k.grid = {ir::Expr(n) / 4, ir::constInt(3)};
    k.block_index_vars = {lir::blockIdxVar(0)};
    k.main_loop_extent = ir::Expr(n) % 7;
    k.smem_bytes = 4096;
    k.workspace_bytes = 512;
    k.tensors.push_back(
        {5, "frag", float16(), atoms::mmaM16N8K16A(), 2, 128});
    k.globals.push_back(
        {9, "w", uint4(), {ir::Expr(n), ir::constInt(128)}});
    k.num_storages = 3;

    auto body = std::make_shared<lir::LBody>();
    lir::push(*body, lir::LoadGlobalVec{5, 8, addr, 16, pred, 9});
    lir::push(*body, lir::StoreGlobalVec{5, 24, addr + 4, 8, nullptr, 9});
    lir::push(*body, lir::LoadGlobalBits{5, 3, addr * 8, 4, 9});
    lir::push(*body, lir::StoreGlobalBits{5, 7, addr * 8 + 4, 2, -1});
    lir::push(*body, lir::LoadSharedVec{5, 32, tid * 4, 4, true});
    lir::push(*body, lir::StoreSharedVec{5, 40, tid * 2, 2, pred});
    lir::push(*body, lir::CpAsync{tid * 16, addr, 16, pred,
                                  ir::makeUnary(ir::UnaryOp::kNot, pred),
                                  9});
    lir::push(*body, lir::CpAsyncCommit{});
    lir::push(*body, lir::CpAsyncWait{1});
    lir::push(*body, lir::BarSync{});
    lir::push(*body, lir::MmaTile{1, 2, 3, 4, 16, 8, 16, 10, 20, 30, 40});
    lir::push(*body, lir::SimtDot{1, 2, 3, 3, {{0, 1, 2}, {3, 4, 5}}});
    lir::push(*body, lir::EltwiseBinary{3, 1, 2, 2, {0, 0, 1, 1}});
    lir::push(*body,
              lir::EltwiseScalar{3, 3, 1, ir::constFloat(0.5, float16())});
    lir::push(*body, lir::EltwiseUnary{3, 3, 1});
    lir::push(*body, lir::CastTensor{4, 3, true});
    lir::push(*body, lir::InitTensor{3, -1.25});
    lir::push(*body, lir::PrintTensor{3});
    body->push_back(lir::LNode{lir::LAssign{i, ir::Expr(i) + 1}});
    body->push_back(lir::LNode{lir::LBreak{}});
    body->push_back(lir::LNode{lir::LContinue{}});

    auto then_body = std::make_shared<lir::LBody>();
    lir::push(*then_body, lir::ExitOp{});
    auto while_body = std::make_shared<lir::LBody>();
    lir::push(*while_body, lir::BarSync{});
    k.body.push_back(lir::LNode{lir::LFor{i, ir::Expr(n), body}});
    k.body.push_back(lir::LNode{
        lir::LIf{ir::Expr(n) > ir::constInt(2), then_body, nullptr}});
    k.body.push_back(lir::LNode{lir::LIf{
        ir::Expr(n) == ir::constInt(2), then_body, while_body}});
    k.body.push_back(lir::LNode{
        lir::LWhile{ir::Expr(i) < ir::Expr(n), while_body}});
    return k;
}

TEST(WireFormat, EveryOpKernelHasPinnedBytes)
{
    const std::string bytes = cache::serializeKernel(everyOpKernel());
    EXPECT_EQ(bytes.size(), 1949u);
    EXPECT_EQ(digestOf(bytes), "622024a395279f510ce88c98091b7ace");
    EXPECT_EQ(cache::serializeKernel(cache::deserializeKernel(bytes)),
              bytes);
}

TEST(WireFormat, CorpusPayloadsReserializeByteForByte)
{
    // The checked-in fuzz corpus holds payloads written by earlier
    // builds: decoding and re-encoding each must give back its bytes.
    int checked = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::filesystem::path(__FILE__).parent_path() / "corpus")) {
        if (entry.path().extension() != ".lirk")
            continue;
        std::string payload, why;
        ASSERT_EQ(cache::readBlobFile(entry.path().string(),
                                      fuzz::kCorpusMagic,
                                      cache::kCacheFormatVersion, &payload,
                                      &why),
                  cache::BlobRead::kHit)
            << entry.path() << ": " << why;
        EXPECT_EQ(cache::serializeKernel(cache::deserializeKernel(payload)),
                  payload)
            << entry.path();
        ++checked;
    }
    EXPECT_GE(checked, 5);
}

/** A tune record with a distinct value in every field. */
cache::TuneRecord
pinnedTuneRecord()
{
    cache::TuneRecord record;
    record.config = tensorCoreConfig(float6e3m2());
    record.config.group_size = 64;
    record.config.convert_via_smem = true;
    record.latency = {12.5, 3.25, 1.5, 4.0, 0.0, 2.75,
                      0.5,  1.0,  3.0, true, 96, 1.75};
    record.candidates_tried = 3;
    cache::TuneCandidate simt{simtConfig(int6()), record.latency};
    simt.latency.total_us = 40.0;
    simt.latency.pipelined = false;
    simt.config.transform_weights = false;
    record.candidates = {{record.config, record.latency}, simt};
    return record;
}

TEST(WireFormat, TuneRecordBlobHasPinnedDigest)
{
    TempDir dir;
    cache::TuneDb db(dir.path);
    cache::Fingerprint key;
    key.lo = 0x7e57;
    db.store(key, pinnedTuneRecord());
    const std::string blob = readFile(db.entryPath(key));
    EXPECT_EQ(blob.size(), 568u);
    EXPECT_EQ(digestOf(blob), "ea85c658f37717a173b8da19f8e7ffdc");
    // The payload alone, behind the 24-byte header.
    EXPECT_EQ(digestOf(blob.substr(24)), "d1c577b85e2e786f7245d086959483f5");
    std::optional<cache::TuneRecord> loaded = db.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->candidates.size(), 2u);
}

TEST(WireFormat, PayloadChecksumHasPinnedVector)
{
    // XXH64 with seed 0: the reference implementation's published
    // vectors, and one pinned vector over bytes 0-71.
    EXPECT_EQ(cache::payloadHash(""), 0xef46db3751d8e999ull);
    EXPECT_EQ(cache::payloadHash("abc"), 0x44bc2cf5ad770999ull);
    EXPECT_EQ(cache::payloadHash("Nobody inspects the spammish repetition"),
              0xfbcea83c8a378bf1ull);
    std::string bytes;
    for (int i = 0; i < 72; ++i)
        bytes.push_back(static_cast<char>(i));
    EXPECT_EQ(cache::payloadHash(bytes), 0xfb0b1f050cb8f00dull);
}

TEST(WireFormat, PayloadChecksumCatchesBitFlipsAndTruncation)
{
    // Lengths 0-72 cover the byte tail, the 4- and 8-byte steps and
    // two rounds of the four-lane loop: every single-bit flip and a
    // one-byte truncation must move the checksum.
    for (size_t len = 0; len <= 72; ++len) {
        std::string payload;
        for (size_t i = 0; i < len; ++i)
            payload.push_back(static_cast<char>(i * 37 + len));
        const uint64_t sum = cache::payloadHash(payload);
        for (size_t bit = 0; bit < 8 * len; ++bit) {
            std::string flipped = payload;
            flipped[bit / 8] ^= static_cast<char>(1 << (bit % 8));
            EXPECT_NE(cache::payloadHash(flipped), sum)
                << "len " << len << " bit " << bit;
        }
        if (len > 0) {
            EXPECT_NE(cache::payloadHash(payload.substr(0, len - 1)), sum)
                << "len " << len;
        }
    }
}

// --------------------------------------------------------- disk tier

TEST(KernelCache, StoreLoadAcrossInstances)
{
    TempDir dir;
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 0x1234;
    fp.hi = 0x5678;
    {
        cache::KernelCache cache(dir.path);
        cache.store(fp, kernel);
        EXPECT_EQ(cache.stats().stores, 1);
    }
    cache::KernelCache reopened(dir.path); // simulated process restart
    std::unique_ptr<lir::Kernel> loaded = reopened.load(fp);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(cache::serializeKernel(*loaded),
              cache::serializeKernel(kernel));
    EXPECT_EQ(reopened.stats().disk_hits, 1);
    EXPECT_EQ(reopened.load(cache::Fingerprint{}), nullptr); // miss
    EXPECT_EQ(reopened.stats().disk_misses, 1);
}

TEST(KernelCache, VersionBumpForcesMiss)
{
    TempDir dir;
    cache::KernelCache cache(dir.path);
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 1;
    cache.store(fp, kernel, cache::kCacheFormatVersion);
    EXPECT_NE(cache.load(fp, cache::kCacheFormatVersion), nullptr);
    // A format bump invalidates every existing artifact.
    EXPECT_EQ(cache.load(fp, cache::kCacheFormatVersion + 1), nullptr);
    EXPECT_EQ(cache.stats().disk_errors, 1);
}

TEST(KernelCache, TruncatedAndCorruptEntriesDegradeToMiss)
{
    TempDir dir;
    cache::KernelCache cache(dir.path);
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 2;
    cache.store(fp, kernel);
    const std::string path = cache.entryPath(fp);
    const std::string blob = readFile(path);

    // Truncate at several points, including inside the header.
    for (size_t cut : {size_t(3), size_t(20), blob.size() / 2,
                       blob.size() - 1}) {
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << blob.substr(0, cut);
        EXPECT_EQ(cache.load(fp), nullptr) << "cut=" << cut;
    }
    // Flip a payload byte: the payload checksum must catch it.
    std::string corrupt = blob;
    corrupt[corrupt.size() - 10] ^= 0x40;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << corrupt;
    EXPECT_EQ(cache.load(fp), nullptr);
    EXPECT_GE(cache.stats().disk_errors, 5);

    // Restore: it loads again (the store itself was never damaged).
    std::ofstream(path, std::ios::binary | std::ios::trunc) << blob;
    EXPECT_NE(cache.load(fp), nullptr);
}

TEST(KernelCache, DisabledCacheMissesAndSkipsWrites)
{
    TempDir dir;
    cache::KernelCache cache(dir.path, /*enabled=*/false);
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 3;
    cache.store(fp, kernel);
    EXPECT_EQ(cache.load(fp), nullptr);
    EXPECT_EQ(cache.stats().stores, 0);
    EXPECT_FALSE(std::filesystem::exists(cache.entryPath(fp)));
}

// ------------------------------------------- decode-level rejection
//
// Blobs whose header, size and payload checksum are all valid but whose
// payload is malformed: only the decoder can reject them.

/** @p v as 8 little-endian bytes. */
std::string
le64(uint64_t v)
{
    std::string out(8, '\0');
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<char>(v >> (8 * i));
    return out;
}

/**
 * Replace the stored entry at @p path with @p payload behind a valid
 * header, load it through @p load, and expect a miss that counts one
 * disk error: no exception, no hit, and no allocation anywhere near
 * what a hostile count claims.
 */
template <typename Store, typename Load>
void
expectRejected(Store &store, const std::string &path, uint32_t version,
               const std::string &payload, Load load,
               const std::string &what)
{
    uint32_t magic;
    std::memcpy(&magic, readFile(path).data(), 4);
    ASSERT_TRUE(cache::writeBlobAtomic(path, magic, version, payload));
    const cache::CacheStats before = store.stats();
    g_largest_new = 0;
    bool hit = true;
    EXPECT_NO_THROW(hit = load()) << what;
    EXPECT_LT(g_largest_new.load(), size_t(1) << 20) << what;
    EXPECT_FALSE(hit) << what;
    const cache::CacheStats after = store.stats();
    EXPECT_EQ(after.disk_errors, before.disk_errors + 1) << what;
    EXPECT_EQ(after.disk_misses, before.disk_misses) << what;
    EXPECT_EQ(after.disk_hits, before.disk_hits) << what;
}

TEST(KernelCache, MalformedPayloadBehindValidHeaderIsRejected)
{
    TempDir dir;
    cache::KernelCache cache(dir.path);
    cache::Fingerprint fp;
    fp.lo = 4;
    cache.store(fp, everyOpKernel());
    const std::string path = cache.entryPath(fp);
    auto load = [&] { return cache.load(fp) != nullptr; };
    auto reject = [&](const std::string &payload, const std::string &what) {
        expectRejected(cache, path, cache::kCacheFormatVersion, payload,
                       load, what);
    };

    const std::string every = cache::serializeKernel(everyOpKernel());
    for (size_t cut : {size_t(1), every.size() / 3, every.size() / 2,
                       every.size() - 1})
        reject(every.substr(0, cut), "cut at " + std::to_string(cut));
    reject(every + "x", "trailing byte");

    // A kernel whose last bytes are a one-node body {ExitOp}: body count
    // (u32), node tag, op tag; its one parameter's dtype follows the
    // parameter's name.
    lir::Kernel tiny;
    tiny.name = "tiny";
    tiny.params = {ir::Var::make("dtype_probe", int32())};
    lir::push(tiny.body, lir::ExitOp{});
    const std::string bytes = cache::serializeKernel(tiny);
    std::string bad_tag = bytes;
    bad_tag.back() = 0x7e;
    reject(bad_tag, "unknown op tag");
    std::string bad_dtype = bytes;
    bad_dtype[bytes.find("dtype_probe") + 11] = 0x7f;
    reject(bad_dtype, "bad dtype kind");
    std::string hostile = bytes;
    hostile.replace(bytes.size() - 6, 4, "\xff\xff\xff\xff");
    reject(hostile, "body count 2^32-1");

    // The intact payload still loads.
    ASSERT_TRUE(cache::writeBlobAtomic(
        path, 0x544c4b58 /* "TLKX" */, cache::kCacheFormatVersion, bytes));
    EXPECT_NE(cache.load(fp), nullptr);
}

// --------------------------------------------------- runtime integration

TEST(RuntimeCache, DiskTierSurvivesProcessRestart)
{
    TempDir dir;
    MatmulConfig cfg = tensorCoreConfig(uint4());
    std::string first_listing;
    {
        cache::KernelCache disk(dir.path);
        runtime::Runtime rt(sim::l40s());
        rt.setDiskCache(&disk);
        const lir::Kernel &k = rt.getOrCompile(
            kernels::buildMatmul(cfg).main_program, {});
        first_listing = lir::printKernel(k);
        EXPECT_EQ(rt.compileCount(), 1);
        EXPECT_EQ(rt.diskLoadCount(), 0);
    }
    {
        cache::KernelCache disk(dir.path); // simulated restart
        runtime::Runtime rt(sim::l40s());
        rt.setDiskCache(&disk);
        const lir::Kernel &k = rt.getOrCompile(
            kernels::buildMatmul(cfg).main_program, {});
        EXPECT_EQ(rt.compileCount(), 0); // materialized from disk
        EXPECT_EQ(rt.diskLoadCount(), 1);
        EXPECT_EQ(lir::printKernel(k), first_listing);

        // In-memory tier takes over for the rebuilt equivalent bundle.
        const lir::Kernel &again = rt.getOrCompile(
            kernels::buildMatmul(cfg).main_program, {});
        EXPECT_EQ(&again, &k);
        EXPECT_EQ(rt.diskLoadCount(), 1);
    }
}

TEST(RuntimeCache, DiskLoadedKernelComputesCorrectly)
{
    // End to end through a *cache-materialized* kernel: upload, weight
    // transform, launch, download, compare against the double-precision
    // reference.
    TempDir dir;
    MatmulConfig cfg = tensorCoreConfig(uint4());
    const int64_t m = 16;
    PackedBuffer a = testing::randomActivations(m * cfg.k, 11);
    PackedBuffer b = testing::randomWeights(cfg.wdtype, cfg.k * cfg.n, 12);
    std::vector<double> want = testing::referenceMatmul(cfg, m, a, b,
                                                        nullptr);
    cache::KernelCache disk(dir.path);
    {
        runtime::Runtime rt(sim::l40s());
        rt.setDiskCache(&disk);
        testing::runMatmul(rt, cfg, m, a, b, nullptr);
        EXPECT_GT(rt.compileCount(), 0);
    }
    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(&disk);
    testing::MatmulRun run = testing::runMatmul(rt, cfg, m, a, b,
                                                nullptr);
    EXPECT_EQ(rt.compileCount(), 0);
    EXPECT_GT(rt.diskLoadCount(), 0);
    EXPECT_LT(testing::maxRelativeError(run.result, want), 5e-2);
}

// --------------------------------------------------------- tune database

autotune::SweepRequest
smallSweep(int64_t m)
{
    autotune::SweepRequest req;
    req.wdtype = uint4();
    req.n = 256;
    req.k = 256;
    req.m = m;
    req.space.bm_tc = {16, 32};
    req.space.bn = {64, 128};
    req.space.bk = {32};
    req.space.warps_m = {1};
    req.space.warps_n = {2};
    req.space.simt_warps = {2};
    req.space.stages = {2};
    return req;
}

TEST(TuneDb, WarmSweepMatchesColdAndSkipsCompilation)
{
    TempDir dir;
    cache::TuneDb db(dir.path);
    autotune::SweepRequest req = smallSweep(16);

    runtime::Runtime cold_rt(sim::l40s());
    cold_rt.setDiskCache(nullptr);
    autotune::TuneResult cold = autotune::sweepCached(cold_rt, req, &db);
    EXPECT_GT(cold.candidates_tried, 0);
    EXPECT_GT(cold_rt.compileCount(), 0);
    EXPECT_EQ(db.stats().stores, 1);

    runtime::Runtime warm_rt(sim::l40s()); // simulated restart
    warm_rt.setDiskCache(nullptr);
    autotune::TuneResult warm = autotune::sweepCached(warm_rt, req, &db);
    EXPECT_EQ(warm_rt.compileCount(), 0); // sweep skipped entirely
    EXPECT_EQ(warm.config.name(), cold.config.name());
    EXPECT_EQ(warm.candidates_tried, cold.candidates_tried);
    // Bit-exact latency record (doubles round-trip by bit pattern).
    EXPECT_EQ(warm.latency.total_us, cold.latency.total_us);
    EXPECT_EQ(warm.latency.pipelined, cold.latency.pipelined);
}

TEST(TuneDb, ColdSweepTracesOnTheTreeWalkAndDecodesNothing)
{
    // A probe is traced for one block, which costs less on the tree walk
    // than decoding it for the micro-op engine: a cold sweep decodes no
    // kernel, whatever engine the process prefers for launches.
    TempDir dir;
    cache::TuneDb db(dir.path);
    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(nullptr);
    obs::Counter &decodes =
        obs::Registry::instance().counter("sim_microop_decodes_total");
    const int64_t before = decodes.value();
    autotune::TuneResult cold = autotune::sweepCached(rt, smallSweep(16), &db);
    EXPECT_GT(cold.candidates_tried, 0);
    EXPECT_GT(rt.compileCount(), 0);
    EXPECT_EQ(decodes.value(), before);

    // Ghost mode walks the tree even when the micro-op engine is forced
    // and handed a decoded program, and counts what the tree walk counts.
    const lir::Kernel &kernel = rt.getOrCompile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program, {});
    const sim::MicroProgram program = sim::compileMicroProgram(kernel);
    ASSERT_TRUE(program.ok()) << program.failureReason();
    ir::Env env;
    for (const ir::Var &p : kernel.params)
        env.bind(p, p.name() == "m" ? 16 : 0);
    sim::RunOptions options;
    options.mode = sim::MemoryMode::kGhost;
    options.max_blocks = 1;
    options.enable_print = false;
    options.engine = sim::Engine::kMicroOps;
    options.micro_program = &program;
    const sim::SimStats ghost = sim::run(kernel, env, nullptr, options);
    EXPECT_FALSE(ghost.used_microops);
    EXPECT_EQ(sim::Counters(ghost),
              sim::Counters(sim::traceOneBlock(kernel, env)));
}

// ------------------------------------------ priced kernels are not kept

TEST(Retention, SweepKeepsNoKernelAndReusesThemFromDisk)
{
    // A cold sweep prices every candidate with kernels it does not keep:
    // looking up one of its probes afterwards reads the disk tier, where
    // the sweep persisted it, not the memory tier.
    TempDir dir;
    cache::KernelCache disk(dir.path);
    cache::TuneDb db(dir.path);
    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(&disk);
    const autotune::SweepRequest req = smallSweep(16);
    const autotune::TuneResult cold = autotune::sweepCached(rt, req, &db);
    ASSERT_GT(cold.candidates_tried, 0);
    // Two probes and one full-depth instance per candidate, all distinct.
    EXPECT_EQ(rt.compileCount(), 3 * cold.candidates_tried);
    EXPECT_EQ(disk.stats().stores, 3 * cold.candidates_tried);

    MatmulConfig probe = cold.config;
    probe.k = probe.bk * probe.stages; // one outer iteration
    const int compiles = rt.compileCount();
    rt.getOrCompile(kernels::buildMatmul(probe).main_program, req.opts);
    EXPECT_EQ(rt.compileCount(), compiles);
    EXPECT_EQ(rt.diskLoadCount(), 1);
}

TEST(Retention, OverlappingSweepCompilesOnlyProgramsNotYetPriced)
{
    // The m = 32 space holds the m = 16 candidates (m is a launch
    // parameter, not part of the program) plus the bm = 32 ones, so the
    // second sweep reads the shared programs back from the disk tier and
    // compiles only the new ones. With no disk tier it compiles them all.
    for (bool with_disk : {true, false}) {
        TempDir dir;
        cache::KernelCache disk(dir.path);
        cache::TuneDb db(dir.path);
        runtime::Runtime rt(sim::l40s());
        rt.setDiskCache(with_disk ? &disk : nullptr);
        const int first =
            autotune::sweepCached(rt, smallSweep(16), &db).candidates_tried;
        const int compiles = rt.compileCount();
        const int second =
            autotune::sweepCached(rt, smallSweep(32), &db).candidates_tried;
        ASSERT_GT(first, 0);
        ASSERT_GT(second, first);
        EXPECT_EQ(rt.compileCount() - compiles,
                  3 * (with_disk ? second - first : second))
            << "disk " << with_disk;
        EXPECT_EQ(rt.diskLoadCount(), with_disk ? 3 * first : 0)
            << "disk " << with_disk;
    }
}

TEST(TuneDb, KeyCoversSpaceOptionsAndTraits)
{
    const sim::GpuSpec spec = sim::l40s();
    autotune::SweepRequest base = smallSweep(16);
    cache::Fingerprint key = autotune::tuneKey(base, spec);

    autotune::SweepRequest o0 = base;
    o0.opts.opt_level = compiler::OptLevel::O0;
    EXPECT_NE(autotune::tuneKey(o0, spec), key);

    autotune::SweepRequest wider = base;
    wider.space.stages = {2, 3};
    EXPECT_NE(autotune::tuneKey(wider, spec), key);

    autotune::SweepRequest traits = base;
    traits.traits.occupancy_factor = 0.5;
    EXPECT_NE(autotune::tuneKey(traits, spec), key);

    autotune::SweepRequest grouped = base;
    grouped.group_size = 64;
    EXPECT_NE(autotune::tuneKey(grouped, spec), key);

    EXPECT_NE(autotune::tuneKey(base, sim::a100()), key);
}

TEST(TuneDb, CorruptRecordDegradesToMiss)
{
    TempDir dir;
    cache::TuneDb db(dir.path);
    cache::TuneRecord record;
    record.config = tensorCoreConfig(uint4());
    record.latency.total_us = 12.5;
    record.candidates_tried = 7;
    cache::Fingerprint key;
    key.lo = 9;
    db.store(key, record);

    std::optional<cache::TuneRecord> loaded = db.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->config.name(), record.config.name());
    EXPECT_EQ(loaded->latency.total_us, 12.5);
    EXPECT_EQ(loaded->candidates_tried, 7);

    const std::string path = db.entryPath(key);
    const std::string blob = readFile(path);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << blob.substr(0, blob.size() / 2);
    EXPECT_FALSE(db.load(key).has_value());
    std::string corrupt = blob;
    corrupt[corrupt.size() - 4] ^= 0x11;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << corrupt;
    EXPECT_FALSE(db.load(key).has_value());
    EXPECT_EQ(db.stats().disk_errors, 2);
}

TEST(TuneDb, MalformedRecordBehindValidHeaderIsRejected)
{
    TempDir dir;
    cache::TuneDb db(dir.path);
    cache::Fingerprint key;
    key.lo = 10;
    // The candidate count follows the winner and candidates_tried: the
    // last eight bytes of a record with no candidates.
    cache::TuneRecord record = pinnedTuneRecord();
    record.candidates.clear();
    db.store(key, record);
    const size_t count_at = readFile(db.entryPath(key)).size() - 24 - 8;
    db.store(key, pinnedTuneRecord());
    const std::string path = db.entryPath(key);
    const std::string good = readFile(path).substr(24);
    auto load = [&] { return db.load(key).has_value(); };
    auto reject = [&](const std::string &payload, const std::string &what) {
        expectRejected(db, path, cache::kTuneDbVersion, payload, load, what);
    };

    for (size_t cut : {size_t(1), size_t(87), good.size() / 2,
                       good.size() - 1})
        reject(good.substr(0, cut), "cut at " + std::to_string(cut));
    reject(good + "x", "trailing byte");
    std::string bad_dtype = good;
    bad_dtype[0] = 0x7f;
    reject(bad_dtype, "bad dtype kind");
    for (uint64_t count : {uint64_t(1) << 20, (uint64_t(1) << 20) + 1,
                           ~uint64_t(0)}) {
        std::string hostile = good;
        hostile.replace(count_at, 8, le64(count));
        reject(hostile, "candidate count " + std::to_string(count));
    }

    ASSERT_TRUE(cache::writeBlobAtomic(path, 0x544c5458 /* "TLTX" */,
                                       cache::kTuneDbVersion, good));
    EXPECT_TRUE(db.load(key).has_value());
}

// --------------------------------------------------------- concurrency

TEST(CompilePool, ParallelForVisitsEveryIndexAndPropagates)
{
    std::vector<std::atomic<int>> hits(64);
    cache::parallelFor(
        64, [&](int64_t i) { hits[i].fetch_add(1); }, /*threads=*/4);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;

    EXPECT_THROW(cache::parallelFor(
                     16,
                     [&](int64_t i) {
                         if (i == 5)
                             throw SimError("boom");
                     },
                     4),
                 SimError);
}

TEST(CompilePool, LowestIndexExceptionWinsDeterministically)
{
    // Indices are claimed strictly in order (fetch_add), so the lowest
    // failing index is always among the claimed ones and parallelFor
    // must surface exactly it — not whichever thread lost the race.
    for (int trial = 0; trial < 20; ++trial) {
        try {
            cache::parallelFor(
                64,
                [&](int64_t i) {
                    if (i >= 8)
                        throw SimError("boom " + std::to_string(i));
                },
                4);
            FAIL() << "parallelFor swallowed the exception";
        } catch (const SimError &e) {
            EXPECT_STREQ(e.what(), "boom 8") << "trial " << trial;
        }
    }
}

// ------------------------------------------------------ fault injection
//
// Injected disk faults (src/support/fault.h) at the blob-store sites:
// reads and corruption degrade to a miss, transient write/rename
// failures are absorbed by writeBlobAtomic's bounded retry, and every
// failure path cleans up its temp file (satellite: no orphans).

/** Disarms the fault registry when a test scope exits. */
struct FaultGuard
{
    ~FaultGuard() { fault::disarm(); }
};

/** Count on-disk files whose name carries the atomic-write temp infix. */
int64_t
countOrphanTempFiles(const std::string &root)
{
    int64_t n = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() &&
            entry.path().filename().string().find(".tmp.") !=
                std::string::npos)
            ++n;
    }
    return n;
}

TEST(CacheFaults, InjectedReadErrorDegradesToMiss)
{
    FaultGuard guard;
    TempDir dir;
    cache::KernelCache cache(dir.path);
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 0x0ead;
    cache.store(fp, kernel);

    fault::configure("cache.disk.read=n1");
    EXPECT_EQ(cache.load(fp), nullptr); // injected I/O error -> miss
    EXPECT_EQ(cache.stats().disk_errors, 1);
    EXPECT_EQ(fault::injectionCount("cache.disk.read"), 1);
    EXPECT_NE(cache.load(fp), nullptr); // n1 fired; entry is intact
}

TEST(CacheFaults, InjectedCorruptionIsCaughtByContentHash)
{
    FaultGuard guard;
    TempDir dir;
    cache::KernelCache cache(dir.path);
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 0xc0;
    cache.store(fp, kernel);

    fault::configure("cache.disk.corrupt=n1");
    EXPECT_EQ(cache.load(fp), nullptr); // flipped payload bit -> miss
    EXPECT_EQ(cache.stats().disk_errors, 1);
    EXPECT_NE(cache.load(fp), nullptr);
}

TEST(CacheFaults, WriteRetryAbsorbsTransientFault)
{
    FaultGuard guard;
    TempDir dir;
    cache::KernelCache cache(dir.path);
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 0x3117e;

    obs::Counter &retries =
        obs::Registry::instance().counter("cache_blob_write_retries_total");
    const int64_t before = retries.value();
    fault::configure("cache.disk.write=n1"); // first attempt torn
    cache.store(fp, kernel);
    EXPECT_EQ(cache.stats().stores, 1); // retry made the store land
    EXPECT_EQ(retries.value() - before, 1);
    EXPECT_EQ(countOrphanTempFiles(dir.path), 0);
    EXPECT_NE(cache.load(fp), nullptr);
}

TEST(CacheFaults, RenameFailureCleansUpAndFailsStore)
{
    FaultGuard guard;
    TempDir dir;
    cache::KernelCache cache(dir.path);
    lir::Kernel kernel = compiler::compile(
        kernels::buildMatmul(tensorCoreConfig(uint4())).main_program,
        {});
    cache::Fingerprint fp;
    fp.lo = 0x4e4a;

    fault::configure("cache.disk.rename=always"); // exhausts the retry
    cache.store(fp, kernel);
    EXPECT_EQ(cache.stats().stores, 0);
    EXPECT_EQ(countOrphanTempFiles(dir.path), 0); // every tmp unlinked
    fault::disarm();
    EXPECT_EQ(cache.load(fp), nullptr); // nothing half-written
    cache.store(fp, kernel); // healthy disk: same instance recovers
    EXPECT_EQ(cache.stats().stores, 1);
    EXPECT_NE(cache.load(fp), nullptr);
}

TEST(CacheFaults, ConcurrentWritersOfOneKeyPublishWholeBlobs)
{
    // Four threads store one 128 KiB key 100 times each while a reader
    // loops over it, as overlapping sweeps store the programs they share:
    // every write has a temp file of its own, so every store lands, no
    // read sees a torn blob and no temp file is left behind.
    TempDir dir;
    const std::string path = dir.path + "/blob";
    std::string payload(size_t(128) << 10, '\0');
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>(i * 131 + (i >> 9));
    constexpr uint32_t kMagic = 0x7e577e57;
    constexpr int kWriters = 4;
    constexpr int kStores = 100;
    std::atomic<int> stored{0};
    std::atomic<int> writing{kWriters};
    std::atomic<int> hits{0};
    std::atomic<int> corrupt{0};
    std::thread reader([&] {
        while (writing.load() > 0) {
            std::string got, why;
            switch (cache::readBlobFile(path, kMagic, 1, &got, &why)) {
              case cache::BlobRead::kHit:
                ++(got == payload ? hits : corrupt);
                break;
              case cache::BlobRead::kCorrupt:
                ++corrupt;
                break;
              case cache::BlobRead::kMissing:
                break;
            }
        }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&] {
            for (int i = 0; i < kStores; ++i)
                stored += cache::writeBlobAtomic(path, kMagic, 1, payload);
            --writing;
        });
    for (std::thread &t : writers)
        t.join();
    reader.join();
    EXPECT_EQ(stored.load(), kWriters * kStores);
    EXPECT_EQ(corrupt.load(), 0) << hits.load() << " whole reads";
    std::string got, why;
    EXPECT_EQ(cache::readBlobFile(path, kMagic, 1, &got, &why),
              cache::BlobRead::kHit);
    EXPECT_EQ(got, payload);
    EXPECT_EQ(countOrphanTempFiles(dir.path), 0);
}

TEST(CacheFaults, ConcurrentCorruptReadersDegradeToOneRecompile)
{
    // Satellite: N readers race one corrupt disk entry. Every reader
    // must degrade to a miss and end up on the single recompiled
    // kernel — never a crash, never N counted compiles.
    TempDir dir;
    MatmulConfig cfg = tensorCoreConfig(uint4());
    const ir::Program program = kernels::buildMatmul(cfg).main_program;
    const cache::Fingerprint fp = cache::fingerprintProgram(program, {});
    {
        cache::KernelCache disk(dir.path);
        runtime::Runtime rt(sim::l40s());
        rt.setDiskCache(&disk);
        rt.getOrCompile(program, {});
        EXPECT_EQ(rt.compileCount(), 1);
    }

    cache::KernelCache disk(dir.path); // simulated restart
    {
        // Flip a payload byte on disk so every load rejects the entry.
        const std::string path = disk.entryPath(fp);
        std::string blob = readFile(path);
        ASSERT_GT(blob.size(), 10u);
        blob[blob.size() - 10] ^= 0x40;
        std::ofstream(path, std::ios::binary | std::ios::trunc) << blob;
    }

    runtime::Runtime rt(sim::l40s());
    rt.setDiskCache(&disk);
    constexpr int kReaders = 8;
    std::vector<const lir::Kernel *> got(kReaders, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(kReaders);
    for (int i = 0; i < kReaders; ++i)
        threads.emplace_back(
            [&, i] { got[i] = &rt.getOrCompile(program, {}); });
    for (std::thread &t : threads)
        t.join();

    for (int i = 1; i < kReaders; ++i)
        EXPECT_EQ(got[i], got[0]) << i; // one shared materialization
    EXPECT_EQ(rt.compileCount(), 1);
    EXPECT_EQ(rt.diskLoadCount(), 0); // corrupt entry never loaded
    EXPECT_GE(disk.stats().disk_errors, 1);
}

TEST(ConcurrentTuners, ThreadSafeAndDeterministic)
{
    // Four threads tune different problems against one shared Runtime,
    // one shared disk cache, and one shared tune database — exactly the
    // hot path of a multi-threaded serving warm-up. Results must match
    // a serial reference tuned on fresh state.
    TempDir dir;
    const std::vector<int64_t> problems = {8, 16, 32, 64};

    std::vector<std::string> serial(problems.size());
    for (size_t i = 0; i < problems.size(); ++i) {
        cache::TuneDb db(dir.path + "/serial" + std::to_string(i));
        runtime::Runtime rt(sim::l40s());
        rt.setDiskCache(nullptr);
        serial[i] =
            autotune::sweepCached(rt, smallSweep(problems[i]), &db)
                .config.name();
    }

    cache::KernelCache shared_disk(dir.path + "/shared");
    cache::TuneDb shared_db(dir.path + "/shared");
    runtime::Runtime shared_rt(sim::l40s());
    shared_rt.setDiskCache(&shared_disk);
    std::vector<std::string> parallel(problems.size());
    std::vector<std::thread> threads;
    threads.reserve(problems.size());
    for (size_t i = 0; i < problems.size(); ++i) {
        threads.emplace_back([&, i] {
            parallel[i] = autotune::sweepCached(
                              shared_rt, smallSweep(problems[i]),
                              &shared_db)
                              .config.name();
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (size_t i = 0; i < problems.size(); ++i)
        EXPECT_EQ(parallel[i], serial[i]) << "m=" << problems[i];
    EXPECT_EQ(shared_db.stats().stores,
              static_cast<int64_t>(problems.size()));
}

} // namespace
} // namespace tilus
