#include "cache/blob_store.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "cache/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/fault.h"
#include "support/logging.h"
#include "support/retry.h"

namespace tilus {
namespace cache {

namespace {

constexpr size_t kHeaderBytes = 24; // magic, version, size, hash

} // namespace

bool
cacheDisabledByEnv()
{
    const char *env = std::getenv("TILUS_CACHE");
    if (!env)
        return false;
    std::string v(env);
    return v == "off" || v == "0" || v == "false" || v == "OFF";
}

std::string
defaultCacheDir()
{
    if (const char *env = std::getenv("TILUS_CACHE_DIR"))
        return env;
    if (const char *home = std::getenv("HOME"))
        return std::string(home) + "/.cache/tilus";
    return "/tmp/tilus-cache";
}

namespace {

// XXH64's primes; payloadHash is XXH64 with seed 0.
constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

uint64_t
rotl(uint64_t v, int s)
{
    return (v << s) | (v >> (64 - s));
}

/** The @p Word at @p p, little-endian: one load (and a byte swap on
    big-endian hosts). */
template <typename Word>
uint64_t
readLE(const unsigned char *p)
{
    Word v;
    std::memcpy(&v, p, sizeof(v));
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    if constexpr (sizeof(v) == 8)
        v = __builtin_bswap64(v);
    else
        v = __builtin_bswap32(v);
#endif
    return v;
}

/** Fold one 8-byte word into a lane. */
uint64_t
lane(uint64_t acc, uint64_t word)
{
    return rotl(acc + word * kPrime2, 31) * kPrime1;
}

/** Fold a finished lane into the hash. */
uint64_t
mergeLane(uint64_t h, uint64_t acc)
{
    return (h ^ lane(0, acc)) * kPrime1 + kPrime4;
}

} // namespace

uint64_t
payloadHash(const std::string &payload)
{
    const unsigned char *p =
        reinterpret_cast<const unsigned char *>(payload.data());
    size_t left = payload.size();
    uint64_t h;
    if (left >= 32) {
        // Four independent lanes over 32-byte stripes.
        uint64_t v1 = kPrime1 + kPrime2, v2 = kPrime2, v3 = 0,
                 v4 = 0 - kPrime1;
        for (; left >= 32; p += 32, left -= 32) {
            v1 = lane(v1, readLE<uint64_t>(p));
            v2 = lane(v2, readLE<uint64_t>(p + 8));
            v3 = lane(v3, readLE<uint64_t>(p + 16));
            v4 = lane(v4, readLE<uint64_t>(p + 24));
        }
        h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
        h = mergeLane(mergeLane(mergeLane(mergeLane(h, v1), v2), v3), v4);
    } else {
        h = kPrime5;
    }
    h += payload.size();
    for (; left >= 8; p += 8, left -= 8)
        h = rotl(h ^ lane(0, readLE<uint64_t>(p)), 27) * kPrime1 + kPrime4;
    if (left >= 4) {
        h = rotl(h ^ readLE<uint32_t>(p) * kPrime1, 23) * kPrime2 + kPrime3;
        p += 4;
        left -= 4;
    }
    for (; left > 0; ++p, --left)
        h = rotl(h ^ *p * kPrime5, 11) * kPrime1;
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    return h ^ (h >> 32);
}

BlobRead
readBlobFile(const std::string &path, uint32_t magic, uint32_t version,
             std::string *payload, std::string *why)
{
    std::string blob;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return BlobRead::kMissing;
        std::ostringstream oss;
        oss << in.rdbuf();
        blob = oss.str();
    }
    auto corrupt = [&](const char *reason) {
        if (why)
            *why = reason;
        return BlobRead::kCorrupt;
    };
    if (fault::maybeFail("cache.disk.read"))
        return corrupt("injected read I/O error");
    // Silent media corruption: flip one bit mid-blob and let the normal
    // verification catch it — exercises the same reject path real
    // damage would.
    if (!blob.empty() && fault::maybeFail("cache.disk.corrupt"))
        blob[blob.size() / 2] ^= 0x01;
    ByteReader header(blob, "blob header");
    if (blob.size() < kHeaderBytes)
        return corrupt("truncated header");
    if (header.u32() != magic)
        return corrupt("bad magic");
    if (header.u32() != version)
        return corrupt("format version mismatch");
    if (header.u64() != blob.size() - kHeaderBytes)
        return corrupt("truncated payload");
    std::string body = blob.substr(kHeaderBytes);
    if (payloadHash(body) != header.u64())
        return corrupt("payload checksum mismatch");
    *payload = std::move(body);
    return BlobRead::kHit;
}

namespace {

/**
 * One write+fsync+rename attempt. Any failure — real or injected —
 * unlinks the temp file before returning, so a failed attempt never
 * leaves an orphan for the retry (or a later process) to trip over.
 */
bool
writeBlobOnce(const std::string &tmp, const std::string &path,
              const std::string &blob)
{
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;

    // An injected write failure stops after half the bytes: the torn
    // temp file is exactly what a full disk or a crash would leave, so
    // the cleanup path gets tested against realistic damage.
    const bool injected = fault::maybeFail("cache.disk.write");
    const size_t limit = injected ? blob.size() / 2 : blob.size();

    bool ok = true;
    size_t off = 0;
    while (off < limit) {
        const ssize_t n = ::write(fd, blob.data() + off, limit - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ok = false;
            break;
        }
        off += static_cast<size_t>(n);
    }
    if (injected)
        ok = false;
    // fsync before rename: without it a power cut after the rename can
    // surface a zero-length or torn entry that only the payload checksum
    // catches; with it the rename only ever publishes durable bytes.
    if (ok && ::fsync(fd) != 0)
        ok = false;
    if (::close(fd) != 0)
        ok = false;
    if (!ok) {
        ::unlink(tmp.c_str());
        return false;
    }

    if (fault::maybeFail("cache.disk.rename")) {
        ::unlink(tmp.c_str());
        return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace

bool
writeBlobAtomic(const std::string &path, uint32_t magic,
                uint32_t version, const std::string &payload)
{
    std::string blob;
    blob.reserve(kHeaderBytes + payload.size());
    putU32(blob, magic);
    putU32(blob, version);
    putU64(blob, payload.size());
    putU64(blob, payloadHash(payload));
    blob += payload;

    // One temp file per write: the pid keeps processes apart and the
    // counter keeps this process's threads apart, so racing writers of
    // one key never truncate each other's half-written file.
    static std::atomic<uint64_t> writes{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
        "." + std::to_string(writes.fetch_add(1, std::memory_order_relaxed));

    // Transient failures (injected or real) get a bounded retry with
    // exponential backoff; persistent ones surface as false and the
    // caller skips the store.
    support::RetryPolicy policy;
    return support::retryWithBackoff(policy, [&](int attempt) {
        if (attempt > 1)
            obs::Registry::instance()
                .counter("cache_blob_write_retries_total")
                .add(1);
        return writeBlobOnce(tmp, path, blob);
    });
}

BlobStore::BlobStore(std::string dir, bool enabled, const StoreKind &kind)
    : kind_(kind), dir_(std::move(dir)), enabled_(enabled)
{
    if (!enabled_)
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_ + "/" + kind_.subdir, ec);
    if (ec) {
        warn(std::string(kind_.label) + " disabled: cannot create " + dir_ +
             ": " + ec.message());
        enabled_ = false;
    }
}

std::string
BlobStore::entryPath(const Fingerprint &key) const
{
    return dir_ + "/" + kind_.subdir + "/" + key.hex() + kind_.extension;
}

bool
BlobStore::load(const Fingerprint &key, uint32_t version,
                const std::function<void(const std::string &)> &decode)
{
    obs::Span span("cache", kind_.load_span);
    if (span.live())
        span.arg(kind_.key_arg, key.hex());
    auto outcome = [&](const char *name, int64_t CacheStats::*stat) {
        obs::Registry::instance()
            .counter(kind_.counter + std::string(name) + "_total")
            .add();
        span.arg("outcome", name);
        std::lock_guard<std::mutex> lock(mutex_);
        ++(stats_.*stat);
    };
    std::string payload, why;
    switch (enabled_ ? readBlobFile(entryPath(key), kind_.magic, version,
                                    &payload, &why)
                     : BlobRead::kMissing) {
      case BlobRead::kMissing:
        outcome(kind_.miss, &CacheStats::disk_misses);
        return false;
      case BlobRead::kCorrupt:
        break; // rejected below
      case BlobRead::kHit:
        try {
            decode(payload);
            outcome(kind_.hit, &CacheStats::disk_hits);
            return true;
        } catch (const TilusError &e) {
            why = e.what();
        }
        break;
    }
    warn(std::string(kind_.label) + " entry " + key.hex() +
         " rejected: " + why);
    outcome("error", &CacheStats::disk_errors);
    return false;
}

void
BlobStore::store(const Fingerprint &key, uint32_t version,
                 const std::string &payload)
{
    if (!enabled_ ||
        !writeBlobAtomic(entryPath(key), kind_.magic, version, payload))
        return;
    obs::Registry::instance().counter(kind_.store_counter).add();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
}

CacheStats
BlobStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace cache
} // namespace tilus
