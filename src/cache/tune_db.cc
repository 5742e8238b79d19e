#include "cache/tune_db.h"

#include "cache/codec.h"

namespace tilus {
namespace cache {

namespace {

const StoreKind kTuneStore = {
    "tune db", "tune", ".tune", 0x544c5458 /* "TLTX" */, "tune-db-load",
    "key", "tune_db_", "warm", "cold", "tune_db_store_total",
};

/** Sane ceiling on the stored candidate list (sweeps are ~200). */
constexpr int64_t kMaxCandidates = 1 << 20;

/**
 * The fields of one estimated (config, latency) pair, in wire order:
 * the record's winner and each candidate are such a pair, and
 * encodeRecord and decodeRecord both walk this one list.
 */
template <typename Config, typename Latency, typename Fn>
void
forEachField(Config &c, Latency &l, Fn &&fn)
{
    auto each = [&fn](auto &...field) { (fn(field), ...); };
    each(c.wdtype, c.n, c.k, c.bm, c.bn, c.bk, c.warp_m, c.warp_n,
         c.simt_warps, c.stages, c.use_tensor_cores, c.transform_weights,
         c.group_size, c.convert_via_smem);
    each(l.total_us, l.dram_us, l.l2_us, l.tc_us, l.simt_us, l.alu_us,
         l.smem_us, l.serial_us, l.launch_us, l.pipelined, l.blocks,
         l.occupancy_blocks_per_sm);
}

std::string
encodeRecord(const TuneRecord &record)
{
    std::string out;
    auto put = [&out](const auto &field) { putField(out, field); };
    forEachField(record.config, record.latency, put);
    put(record.candidates_tried);
    put(static_cast<int64_t>(record.candidates.size()));
    for (const TuneCandidate &cand : record.candidates)
        forEachField(cand.config, cand.latency, put);
    return out;
}

TuneRecord
decodeRecord(const std::string &payload)
{
    ByteReader r(payload, "tune record");
    auto get = [&r](auto &field) { r.field(field); };
    TuneRecord record;
    forEachField(record.config, record.latency, get);
    get(record.candidates_tried);
    const int64_t count = r.i64();
    if (count < 0 || count > kMaxCandidates)
        r.fail("candidate count out of range");
    // Grown as candidates decode, not reserved from the stored count: a
    // corrupted count runs out of bytes before it can size anything.
    for (int64_t i = 0; i < count; ++i) {
        TuneCandidate &cand = record.candidates.emplace_back();
        forEachField(cand.config, cand.latency, get);
    }
    r.expectEnd();
    return record;
}

} // namespace

TuneDb &
TuneDb::instance()
{
    static TuneDb db(defaultCacheDir(), !cacheDisabledByEnv());
    return db;
}

TuneDb::TuneDb(std::string dir, bool enabled)
    : BlobStore(std::move(dir), enabled, kTuneStore)
{}

std::optional<TuneRecord>
TuneDb::load(const Fingerprint &key)
{
    std::optional<TuneRecord> record;
    BlobStore::load(key, kTuneDbVersion, [&](const std::string &payload) {
        record = decodeRecord(payload);
    });
    return record;
}

void
TuneDb::store(const Fingerprint &key, const TuneRecord &record)
{
    if (enabled())
        BlobStore::store(key, kTuneDbVersion, encodeRecord(record));
}

} // namespace cache
} // namespace tilus
