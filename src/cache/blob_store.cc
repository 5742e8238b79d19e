#include "cache/blob_store.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
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

uint64_t
payloadHash(const std::string &payload)
{
    Hasher h;
    h.bytes(payload.data(), payload.size());
    return h.digest().lo;
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
        return corrupt("payload hash mismatch");
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
    // surface a zero-length or torn entry that only the content hash
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

    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));

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
