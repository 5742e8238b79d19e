/**
 * @file
 * Simulated device (global) memory: a flat byte array with a bump
 * allocator. "Device pointers" are byte offsets into this array, which is
 * what kernel pointer parameters carry. Allocation beyond the configured
 * capacity raises OutOfMemoryError, mirroring CUDA OOM behaviour (the
 * paper's Figures 12-13 rely on OOM being observable). An access outside
 * [0, capacity) raises SimError, as an illegal address faults on
 * hardware.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "support/error.h"

namespace tilus {
namespace sim {

/** Simulated global memory of one GPU. */
class Device
{
  public:
    /** @param capacity_bytes accounting capacity (OOM threshold). */
    explicit Device(int64_t capacity_bytes)
        : capacity_(capacity_bytes)
    {}

    /**
     * Allocate device memory; returns the device pointer (byte offset).
     * Storage is materialized lazily so capacity can exceed host RAM
     * when only footprint accounting is needed.
     */
    uint64_t
    allocate(int64_t bytes, int64_t alignment = 256)
    {
        int64_t base = (next_ + alignment - 1) / alignment * alignment;
        if (base + bytes > capacity_) {
            throw OutOfMemoryError(
                "device OOM: requested " + std::to_string(bytes) +
                " bytes at offset " + std::to_string(base) + ", capacity " +
                std::to_string(capacity_));
        }
        next_ = base + bytes;
        return static_cast<uint64_t>(base);
    }

    /** Bytes currently allocated. */
    int64_t used() const { return next_; }

    int64_t capacity() const { return capacity_; }

    /** Release everything (the sim has no fine-grained free). */
    void
    reset()
    {
        next_ = 0;
        mem_.clear();
    }

    /** Read `n` bytes at device pointer `addr` into `out`. */
    void read(uint64_t addr, void *out, int64_t n) const;

    /** Write `n` bytes at device pointer `addr`. */
    void write(uint64_t addr, const void *data, int64_t n);

    /** Bit-granular accessors for sub-byte fallback paths. */
    uint64_t readBits(int64_t bit_addr, int bits) const;
    void writeBits(int64_t bit_addr, int bits, uint64_t value);

  private:
    /** Check that [addr, addr + n) lies inside the capacity, then
        materialize host storage up to its end. */
    void ensure(uint64_t addr, int64_t n) const;
    void ensureBits(int64_t bit_addr, int bits) const;

    int64_t capacity_ = 0;
    int64_t next_ = 0;
    mutable std::vector<uint8_t> mem_;
};

} // namespace sim
} // namespace tilus
