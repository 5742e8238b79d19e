#include "dtype/data_type.h"

#include <cmath>
#include <sstream>

#include "support/error.h"

namespace tilus {

DataType
DataType::makeInt(int bits)
{
    TILUS_FATAL_IF(bits < 2 || bits > 64,
                   "signed int width must be in [2, 64], got " << bits);
    return DataType(TypeKind::kInt, bits, 0, 0);
}

DataType
DataType::makeUInt(int bits)
{
    TILUS_FATAL_IF(bits < 1 || bits > 64,
                   "unsigned int width must be in [1, 64], got " << bits);
    return DataType(TypeKind::kUInt, bits, 0, 0);
}

DataType
DataType::makeFloat(int bits, int exponent, int mantissa)
{
    TILUS_FATAL_IF(exponent < 1, "float needs at least 1 exponent bit");
    TILUS_FATAL_IF(mantissa < 0, "negative mantissa width");
    bool is_tf32 = (bits == 32 && exponent == 8 && mantissa == 10);
    TILUS_FATAL_IF(!is_tf32 && bits != 1 + exponent + mantissa,
                   "float width " << bits << " != 1 + " << exponent << " + "
                                  << mantissa);
    TILUS_FATAL_IF(bits < 3 || bits > 64,
                   "float width must be in [3, 64], got " << bits);
    return DataType(TypeKind::kFloat, bits, exponent, mantissa);
}

bool
DataType::hasIeeeSpecials() const
{
    return isFloat() && bits_ >= 16;
}

std::string
DataType::name() const
{
    std::ostringstream oss;
    switch (kind_) {
      case TypeKind::kInt:
        oss << "i" << int(bits_);
        return oss.str();
      case TypeKind::kUInt:
        oss << "u" << int(bits_);
        return oss.str();
      case TypeKind::kFloat:
        break;
    }
    if (bits_ == 16 && exponent_ == 5 && mantissa_ == 10)
        return "f16";
    if (bits_ == 16 && exponent_ == 8 && mantissa_ == 7)
        return "bf16";
    if (bits_ == 32 && exponent_ == 8 && mantissa_ == 10)
        return "tf32";
    if (bits_ == 32 && exponent_ == 8 && mantissa_ == 23)
        return "f32";
    if (bits_ == 64 && exponent_ == 11 && mantissa_ == 52)
        return "f64";
    oss << "f" << int(bits_) << "e" << int(exponent_) << "m" << int(mantissa_);
    return oss.str();
}

std::string
DataType::shortName() const
{
    if (isFloat() && isSubByte()) {
        std::ostringstream oss;
        oss << "f" << int(bits_);
        return oss.str();
    }
    return name();
}

DataType
DataType::fromName(const std::string &name)
{
    auto parse_int = [&](size_t pos, size_t len) {
        return std::stoi(name.substr(pos, len));
    };
    TILUS_FATAL_IF(name.size() < 2, "bad dtype name: " << name);
    if (name == "f16")
        return float16();
    if (name == "bf16")
        return bfloat16();
    if (name == "tf32")
        return tfloat32();
    if (name == "f32")
        return float32();
    if (name == "f64")
        return float64();
    if (name[0] == 'i')
        return makeInt(parse_int(1, name.size() - 1));
    if (name[0] == 'u')
        return makeUInt(parse_int(1, name.size() - 1));
    if (name[0] == 'f') {
        // fKeXmY
        size_t e_pos = name.find('e');
        size_t m_pos = name.find('m');
        TILUS_FATAL_IF(e_pos == std::string::npos ||
                           m_pos == std::string::npos || m_pos < e_pos,
                       "bad float dtype name: " << name);
        int bits = parse_int(1, e_pos - 1);
        int exponent = parse_int(e_pos + 1, m_pos - e_pos - 1);
        int mantissa = parse_int(m_pos + 1, name.size() - m_pos - 1);
        return makeFloat(bits, exponent, mantissa);
    }
    TILUS_PANIC("unparseable dtype name: " << name);
}

double
DataType::minValue() const
{
    switch (kind_) {
      case TypeKind::kUInt:
        return 0.0;
      case TypeKind::kInt:
        return -std::ldexp(1.0, bits_ - 1);
      case TypeKind::kFloat:
        return -maxValue();
    }
    return 0.0;
}

double
DataType::maxValue() const
{
    switch (kind_) {
      case TypeKind::kUInt:
        return std::ldexp(1.0, bits_) - 1.0;
      case TypeKind::kInt:
        return std::ldexp(1.0, bits_ - 1) - 1.0;
      case TypeKind::kFloat:
        break;
    }
    int bias = (1 << (exponent_ - 1)) - 1;
    int max_exp;
    double max_frac;
    if (hasIeeeSpecials()) {
        // Top exponent code reserved for inf/NaN.
        max_exp = (1 << exponent_) - 2 - bias;
        max_frac = 2.0 - std::ldexp(1.0, -mantissa_);
    } else {
        // Saturating finite format: all exponent codes are finite.
        max_exp = (1 << exponent_) - 1 - bias;
        max_frac = 2.0 - std::ldexp(1.0, -mantissa_);
    }
    return max_frac * std::ldexp(1.0, max_exp);
}

DataType int8() { return DataType::makeInt(8); }
DataType int16() { return DataType::makeInt(16); }
DataType int32() { return DataType::makeInt(32); }
DataType int64() { return DataType::makeInt(64); }
DataType uint8() { return DataType::makeUInt(8); }
DataType uint16() { return DataType::makeUInt(16); }
DataType uint32() { return DataType::makeUInt(32); }
DataType uint64() { return DataType::makeUInt(64); }
DataType float16() { return DataType::makeFloat(16, 5, 10); }
DataType bfloat16() { return DataType::makeFloat(16, 8, 7); }
DataType tfloat32() { return DataType::makeFloat(32, 8, 10); }
DataType float32() { return DataType::makeFloat(32, 8, 23); }
DataType float64() { return DataType::makeFloat(64, 11, 52); }

DataType uint1() { return DataType::makeUInt(1); }
DataType uint2() { return DataType::makeUInt(2); }
DataType uint3() { return DataType::makeUInt(3); }
DataType uint4() { return DataType::makeUInt(4); }
DataType uint5() { return DataType::makeUInt(5); }
DataType uint6() { return DataType::makeUInt(6); }
DataType uint7() { return DataType::makeUInt(7); }
DataType int2() { return DataType::makeInt(2); }
DataType int3() { return DataType::makeInt(3); }
DataType int4() { return DataType::makeInt(4); }
DataType int5() { return DataType::makeInt(5); }
DataType int6() { return DataType::makeInt(6); }
DataType int7() { return DataType::makeInt(7); }

DataType float8e4m3() { return DataType::makeFloat(8, 4, 3); }
DataType float7e3m3() { return DataType::makeFloat(7, 3, 3); }
DataType float6e3m2() { return DataType::makeFloat(6, 3, 2); }
DataType float5e2m2() { return DataType::makeFloat(5, 2, 2); }
DataType float4e2m1() { return DataType::makeFloat(4, 2, 1); }
DataType float3e1m1() { return DataType::makeFloat(3, 1, 1); }

std::vector<DataType>
fullWeightSpectrum()
{
    std::vector<DataType> types;
    for (int bits = 8; bits >= 1; --bits)
        types.push_back(DataType::makeUInt(bits));
    for (int bits = 8; bits >= 2; --bits)
        types.push_back(DataType::makeInt(bits));
    types.push_back(float8e4m3());
    types.push_back(float7e3m3());
    types.push_back(float6e3m2());
    types.push_back(float5e2m2());
    types.push_back(float4e2m1());
    types.push_back(float3e1m1());
    return types;
}

} // namespace tilus
