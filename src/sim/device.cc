#include "sim/device.h"

#include <cstring>
#include <string>

#include "dtype/packing.h"

namespace tilus {
namespace sim {

namespace {

[[noreturn]] void
illegalAccess(int64_t count, const char *unit, int64_t addr,
              int64_t capacity)
{
    throw SimError("an illegal memory access was encountered: " +
                   std::to_string(count) + unit + std::to_string(addr) +
                   ", device capacity " + std::to_string(capacity));
}

} // namespace

void
Device::ensure(uint64_t addr, int64_t n) const
{
    // Unsigned compares: a negative address or size arrives as a huge
    // one. The materialized prefix never exceeds the capacity, so an
    // access inside it needs no further check.
    const uint64_t size = mem_.size();
    if (addr <= size && static_cast<uint64_t>(n) <= size - addr)
        return;
    const uint64_t capacity = static_cast<uint64_t>(capacity_);
    if (n < 0 || addr > capacity ||
        static_cast<uint64_t>(n) > capacity - addr)
        illegalAccess(n, " bytes at address ", static_cast<int64_t>(addr),
                      capacity_);
    mem_.resize(static_cast<size_t>(addr + static_cast<uint64_t>(n)), 0);
}

void
Device::ensureBits(int64_t bit_addr, int bits) const
{
    if (bit_addr < 0)
        illegalAccess(bits, " bits at bit address ", bit_addr, capacity_);
    ensure(static_cast<uint64_t>(bit_addr) >> 3,
           ((bit_addr & 7) + bits + 7) >> 3);
}

void
Device::read(uint64_t addr, void *out, int64_t n) const
{
    ensure(addr, n);
    std::memcpy(out, mem_.data() + addr, static_cast<size_t>(n));
}

void
Device::write(uint64_t addr, const void *data, int64_t n)
{
    ensure(addr, n);
    std::memcpy(mem_.data() + addr, data, static_cast<size_t>(n));
}

uint64_t
Device::readBits(int64_t bit_addr, int bits) const
{
    ensureBits(bit_addr, bits);
    return getBits(mem_.data(), bit_addr, bits);
}

void
Device::writeBits(int64_t bit_addr, int bits, uint64_t value)
{
    ensureBits(bit_addr, bits);
    setBits(mem_.data(), bit_addr, bits, value);
}

} // namespace sim
} // namespace tilus
