/**
 * @file
 * The one little-endian byte codec of src/cache/. Every on-disk
 * encoding in the subsystem — kernel payloads (serialize.cc), tune
 * records (tune_db.cc), and blob headers (blob_store.cc) — goes through
 * these appenders and the one ByteReader, so byte order, bounds checks
 * and field encodings cannot diverge between the tiers.
 *
 * Fields are encoded by their C++ type: int and int64_t as i64, bool as
 * one byte, double as its f64 bits, std::string as a u32 length and its
 * bytes, DataType as {kind, bits, exponent bits, mantissa bits} bytes.
 * A record lists its fields once (lir::forEachField for leaf ops,
 * tune_db.cc for tune records) and both directions walk that list.
 *
 * ByteReader throws CacheFormatError as soon as the bytes cannot be
 * what the reader expects: an overrun, a bad tag, a count the rest of
 * the payload cannot hold, trailing bytes. The stores catch it and
 * degrade the entry to a miss (blob_store.h).
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "dtype/data_type.h"
#include "support/error.h"

namespace tilus {
namespace cache {

/** Raised on any malformed payload; callers degrade it to a cache miss. */
class CacheFormatError : public TilusError
{
  public:
    explicit CacheFormatError(const std::string &msg) : TilusError(msg) {}
};

/// @name Little-endian appenders.
/// @{
inline void
putU8(std::string &out, uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

/** Append the low @p n bytes of @p v, least significant first. */
inline void
putLE(std::string &out, uint64_t v, int n)
{
    char bytes[8];
    for (int i = 0; i < n; ++i)
        bytes[i] = static_cast<char>(v >> (8 * i));
    out.append(bytes, n);
}

inline void putU32(std::string &out, uint32_t v) { putLE(out, v, 4); }
inline void putU64(std::string &out, uint64_t v) { putLE(out, v, 8); }

inline void
putI64(std::string &out, int64_t v)
{
    putU64(out, static_cast<uint64_t>(v));
}

inline void
putF64(std::string &out, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    putU64(out, bits);
}
/// @}

/// @name Field encoders, one per C++ type (see the file comment).
/// @{
inline void putField(std::string &out, int v) { putI64(out, v); }
inline void putField(std::string &out, int64_t v) { putI64(out, v); }
inline void putField(std::string &out, bool v) { putU8(out, v); }
inline void putField(std::string &out, double v) { putF64(out, v); }

inline void
putField(std::string &out, const std::string &s)
{
    putU32(out, static_cast<uint32_t>(s.size()));
    out.append(s);
}

inline void
putField(std::string &out, const DataType &t)
{
    const char bytes[4] = {static_cast<char>(t.kind()),
                           static_cast<char>(t.bits()),
                           static_cast<char>(t.exponentBits()),
                           static_cast<char>(t.mantissaBits())};
    out.append(bytes, 4);
}
/// @}

/** Sequential little-endian reader; throws CacheFormatError. */
class ByteReader
{
  public:
    /** @p what names the record in error messages. */
    ByteReader(const std::string &data, const char *what)
        : data_(data), what_(what)
    {}

    uint8_t
    u8()
    {
        need(1);
        return static_cast<uint8_t>(data_[pos_++]);
    }

    uint32_t u32() { return static_cast<uint32_t>(le(4)); }
    uint64_t u64() { return le(8); }

    int64_t i64() { return static_cast<int64_t>(u64()); }

    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }

    /// @name Field decoders, the inverses of putField.
    /// @{
    void field(int &v) { v = static_cast<int>(i64()); }
    void field(int64_t &v) { v = i64(); }
    void field(bool &v) { v = u8() != 0; }
    void field(double &v) { v = f64(); }

    void
    field(std::string &s)
    {
        uint32_t size = u32();
        need(size);
        s.assign(data_, pos_, size);
        pos_ += size;
    }

    void
    field(DataType &t)
    {
        uint8_t kind = u8();
        int bits = u8();
        int exponent = u8();
        int mantissa = u8();
        try {
            switch (static_cast<TypeKind>(kind)) {
              case TypeKind::kInt:
                t = DataType::makeInt(bits);
                return;
              case TypeKind::kUInt:
                t = DataType::makeUInt(bits);
                return;
              case TypeKind::kFloat:
                t = DataType::makeFloat(bits, exponent, mantissa);
                return;
            }
        } catch (const TilusError &e) {
            fail(std::string("bad data type: ") + e.what());
        }
        fail("bad data-type kind");
    }
    /// @}

    /**
     * @p n, when the rest of the payload can hold @p n elements of at
     * least @p min_bytes each: a corrupted count fails here, before it
     * sizes an allocation.
     */
    size_t
    count(uint64_t n, size_t min_bytes)
    {
        if (n > (data_.size() - pos_) / min_bytes)
            fail("count exceeds payload size");
        return static_cast<size_t>(n);
    }

    /** Reject any bytes after the record. */
    void
    expectEnd() const
    {
        if (pos_ != data_.size())
            fail("trailing bytes");
    }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw CacheFormatError(std::string(what_) + " at byte " +
                               std::to_string(pos_) + ": " + what);
    }

  private:
    /** The next @p n bytes as a little-endian integer. */
    uint64_t
    le(size_t n)
    {
        need(n);
        uint64_t v = 0;
        for (size_t i = 0; i < n; ++i)
            v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
                 << (8 * i);
        pos_ += n;
        return v;
    }

    void
    need(size_t n) const
    {
        if (n > data_.size() - pos_)
            fail("truncated payload");
    }

    const std::string &data_;
    const char *what_;
    size_t pos_ = 0;
};

} // namespace cache
} // namespace tilus
