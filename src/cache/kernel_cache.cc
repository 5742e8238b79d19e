#include "cache/kernel_cache.h"

#include "cache/serialize.h"

namespace tilus {
namespace cache {

namespace {

const StoreKind kKernelStore = {
    "kernel cache", "kernels", ".lirk", 0x544c4b58 /* "TLKX" */,
    "kernel-cache-load", "fingerprint", "kernel_cache_disk_", "hit", "miss",
    "kernel_cache_store_total",
};

} // namespace

KernelCache &
KernelCache::instance()
{
    static KernelCache cache(defaultCacheDir(), !cacheDisabledByEnv());
    return cache;
}

KernelCache::KernelCache(std::string dir, bool enabled)
    : BlobStore(std::move(dir), enabled, kKernelStore)
{}

std::unique_ptr<lir::Kernel>
KernelCache::load(const Fingerprint &fp, uint32_t version)
{
    std::unique_ptr<lir::Kernel> kernel;
    BlobStore::load(fp, version, [&](const std::string &payload) {
        kernel = std::make_unique<lir::Kernel>(deserializeKernel(payload));
    });
    return kernel;
}

void
KernelCache::store(const Fingerprint &fp, const lir::Kernel &kernel,
                   uint32_t version)
{
    if (enabled())
        BlobStore::store(fp, version, serializeKernel(kernel));
}

} // namespace cache
} // namespace tilus
