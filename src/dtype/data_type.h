/**
 * @file
 * The Tilus scalar data-type system (paper Sections 6.1 and 7).
 *
 * Tilus supports standard types (int8..int64, uint8..uint64, float16,
 * bfloat16, tfloat32, float32, float64) and arbitrary low-precision types
 * with bit widths from 1 to 8: uint1..uint8, int2..int8, and floating-point
 * formats floatK with any exponent/mantissa split (e.g. f6e3m2).
 *
 * A DataType is a small value object; equality is structural.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tilus {

/** The three kinds of scalar types supported by Tilus. */
enum class TypeKind : uint8_t {
    kInt,   ///< signed two's-complement integer
    kUInt,  ///< unsigned integer
    kFloat, ///< sign + exponent + mantissa floating point
};

/**
 * A scalar data type: kind, total bit width, and (for floats) the
 * exponent/mantissa field split. Sub-byte types (bits < 8) are stored
 * compactly in memory per Section 7.1.
 */
class DataType
{
  public:
    DataType() = default;

    /** Signed integer with the given total width (2..64 bits). */
    static DataType makeInt(int bits);

    /** Unsigned integer with the given total width (1..64 bits). */
    static DataType makeUInt(int bits);

    /**
     * Floating-point type: 1 sign bit + @p exponent + @p mantissa bits.
     * Total width must equal 1 + exponent + mantissa, except tfloat32
     * whose storage width is 32 while its value width is 19.
     */
    static DataType makeFloat(int bits, int exponent, int mantissa);

    /** Parse a type from its canonical name (e.g. "u4", "i6", "f6e3m2"). */
    static DataType fromName(const std::string &name);

    TypeKind kind() const { return kind_; }

    /** Storage width in bits (what packing consumes). */
    int bits() const { return bits_; }

    int exponentBits() const { return exponent_; }
    int mantissaBits() const { return mantissa_; }

    bool isInt() const { return kind_ == TypeKind::kInt; }
    bool isUInt() const { return kind_ == TypeKind::kUInt; }
    bool isFloat() const { return kind_ == TypeKind::kFloat; }
    bool isInteger() const { return !isFloat(); }

    /** True for types narrower than one byte (the low-precision family). */
    bool isSubByte() const { return bits_ < 8; }

    /**
     * True when this float type follows full IEEE-754 semantics with
     * inf/NaN encodings (f16/bf16/tf32/f32/f64). Low-precision floats use
     * saturating finite semantics, matching OCP FP8-style formats.
     */
    bool hasIeeeSpecials() const;

    /** Canonical name, e.g. "u4", "i6", "f16", "bf16", "f6e3m2". */
    std::string name() const;

    /** Short name used in the paper's figures, e.g. "u4", "f6". */
    std::string shortName() const;

    bool operator==(const DataType &other) const
    {
        return kind_ == other.kind_ && bits_ == other.bits_ &&
               exponent_ == other.exponent_ && mantissa_ == other.mantissa_;
    }
    bool operator!=(const DataType &other) const { return !(*this == other); }

    /** Minimum representable (most negative) value. */
    double minValue() const;

    /** Maximum representable finite value. */
    double maxValue() const;

  private:
    DataType(TypeKind kind, int bits, int exponent, int mantissa)
        : kind_(kind), bits_(static_cast<uint8_t>(bits)),
          exponent_(static_cast<uint8_t>(exponent)),
          mantissa_(static_cast<uint8_t>(mantissa))
    {}

    TypeKind kind_ = TypeKind::kUInt;
    uint8_t bits_ = 8;
    uint8_t exponent_ = 0;
    uint8_t mantissa_ = 0;
};

/// @name Predefined standard types.
/// @{
DataType int8();
DataType int16();
DataType int32();
DataType int64();
DataType uint8();
DataType uint16();
DataType uint32();
DataType uint64();
DataType float16();
DataType bfloat16();
DataType tfloat32();
DataType float32();
DataType float64();
/// @}

/// @name Predefined low-precision types (paper Section 7).
/// @{
DataType uint1();
DataType uint2();
DataType uint3();
DataType uint4();
DataType uint5();
DataType uint6();
DataType uint7();
DataType int2();
DataType int3();
DataType int4();
DataType int5();
DataType int6();
DataType int7();

/** float3..float8 with the representative e/m splits of Section 9.3. */
DataType float8e4m3();
DataType float7e3m3();
DataType float6e3m2();
DataType float5e2m2();
DataType float4e2m1();
DataType float3e1m1();
/// @}

/**
 * The representative low-precision weight spectrum of Figure 11:
 * uint1..uint8, int2..int8, float3..float8 (default e/m splits).
 */
std::vector<DataType> fullWeightSpectrum();

} // namespace tilus
