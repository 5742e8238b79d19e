/**
 * @file
 * Shared plumbing of the on-disk stores (kernel_cache.h, tune_db.h):
 * environment configuration, the {magic, version, payload size, payload
 * checksum} blob header, verify-before-trust reads, atomic
 * temp-file-plus-rename writes, and the BlobStore front end both stores
 * are thin typed wrappers over. Both tiers must interpret TILUS_CACHE /
 * TILUS_CACHE_DIR identically and reject damage the same way — that
 * contract lives here exactly once.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "cache/fingerprint.h"

namespace tilus {
namespace cache {

/** True when TILUS_CACHE requests the disk tiers off (off/0/false). */
bool cacheDisabledByEnv();

/** TILUS_CACHE_DIR, or ~/.cache/tilus, or /tmp/tilus-cache. */
std::string defaultCacheDir();

/**
 * The checksum in a blob header, guarding the payload against
 * corruption: XXH64 with seed 0, eight bytes per step in four lanes,
 * so verifying a 128 KiB kernel costs microseconds. It is not a
 * fingerprint (keys come from Hasher, fingerprint.h). Blobs with an
 * older checksum carry other magics and are rejected before any
 * hashing.
 */
uint64_t payloadHash(const std::string &payload);

/** Outcome of readBlobFile. */
enum class BlobRead
{
    kHit,     ///< payload verified and returned
    kMissing, ///< no file — a plain miss
    kCorrupt, ///< file exists but failed verification (see *why)
};

/**
 * Read @p path and verify magic, version, payload size, and payload
 * checksum, in that order; on kHit fill @p payload. Never throws:
 * truncation, bit flips, and hostile bytes come back as kCorrupt with a
 * reason in @p why.
 */
BlobRead readBlobFile(const std::string &path, uint32_t magic,
                      uint32_t version, std::string *payload,
                      std::string *why);

/**
 * Write header + payload to a temp file of its own (named by the pid
 * and a process-wide write counter, so no other thread or process
 * writes it), fsync it, and rename it into place: readers never
 * observe partial blobs, a torn write can't be published (the rename
 * only follows a successful fsync), and racing writers of one
 * content-addressed path — threads of one process included — write
 * blobs of one content (one program's kernel, one sweep's record), so
 * last-rename-wins is harmless. Transient failures get a bounded
 * exponential-backoff retry; every failed attempt — including an
 * injected one — unlinks its temp file, so no orphans accumulate.
 * Returns false when the retry budget is exhausted (best-effort
 * callers just skip the store).
 *
 * Fault sites: "cache.disk.read" (read I/O error), "cache.disk.corrupt"
 * (one-bit payload flip), "cache.disk.write" (torn write),
 * "cache.disk.rename" (publish failure). See src/support/fault.h.
 */
bool writeBlobAtomic(const std::string &path, uint32_t magic,
                     uint32_t version, const std::string &payload);

/** Counters exposed for tests, benches, and cache diagnostics. */
struct CacheStats
{
    int64_t disk_hits = 0;   ///< load() returned an entry
    int64_t disk_misses = 0; ///< no entry (or disabled store)
    int64_t disk_errors = 0; ///< entry present but rejected/corrupt
    int64_t stores = 0;      ///< entries written
};

/** What tells one on-disk store from another. */
struct StoreKind
{
    const char *label;     ///< names the store in warnings
    const char *subdir;    ///< entries live in <dir>/<subdir>/
    const char *extension; ///< entry file suffix
    uint32_t magic;        ///< blob header magic
    const char *load_span; ///< span around each load
    const char *key_arg;   ///< span argument holding the key
    const char *counter;   ///< prefix of the load-outcome counters
    const char *hit;       ///< hit outcome: counter infix and span arg
    const char *miss;      ///< miss outcome: counter infix and span arg
    const char *store_counter; ///< counts written entries
};

/**
 * The front end both on-disk stores share: it creates the entry
 * directory (a failure disables the store with a warning), names
 * entries by key, and wraps each load in a span, the outcome counters
 * and CacheStats. A blob that fails verification, or whose payload
 * decoder throws TilusError, is rejected with a warning and counted as
 * an error; the caller sees a miss, never an exception. KernelCache and
 * TuneDb only encode and decode payloads.
 */
class BlobStore
{
  public:
    /** A store rooted at @p dir; @p enabled false turns every load
        into a miss and every store into a no-op (TILUS_CACHE=off). */
    BlobStore(std::string dir, bool enabled, const StoreKind &kind);

    bool enabled() const { return enabled_; }
    const std::string &dir() const { return dir_; }

    /** Entry path for a key (exists or not). */
    std::string entryPath(const Fingerprint &key) const;

    CacheStats stats() const;

  protected:
    /** Hand the verified payload stored under @p key to @p decode;
        true on a hit (see the class comment for misses and errors). */
    bool load(const Fingerprint &key, uint32_t version,
              const std::function<void(const std::string &)> &decode);

    /** Persist @p payload under @p key (best-effort). */
    void store(const Fingerprint &key, uint32_t version,
               const std::string &payload);

  private:
    const StoreKind &kind_;
    std::string dir_;
    bool enabled_;
    mutable std::mutex mutex_;
    CacheStats stats_;
};

} // namespace cache
} // namespace tilus
