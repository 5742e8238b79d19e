#include "support/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace tilus {
namespace json {

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
exact(double v)
{
    if (!std::isfinite(v))
        return "0"; // keep the document valid JSON
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        return std::to_string(static_cast<long long>(v));
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
Object::str() const
{
    // Sized once: "{" + body_ + "}" would reallocate a long document
    // to twice its length for the closing brace.
    std::string out;
    out.reserve(body_.size() + 2);
    out += '{';
    out += body_;
    out += '}';
    return out;
}

Object &
Object::raw(const std::string &key, const std::string &value)
{
    if (!body_.empty())
        body_ += ',';
    body_ += '"';
    body_ += escape(key);
    body_ += "\":";
    body_ += value;
    return *this;
}

Object &
Object::add(const std::string &key, const std::string &value)
{
    return raw(key, '"' + escape(value) + '"');
}

Object &
Object::add(const std::string &key, const char *value)
{
    return add(key, std::string(value));
}

Object &
Object::add(const std::string &key, int64_t value)
{
    return raw(key, std::to_string(value));
}

Object &
Object::add(const std::string &key, uint64_t value)
{
    return raw(key, std::to_string(value));
}

Object &
Object::add(const std::string &key, double value)
{
    return raw(key, num(value));
}

Object &
Object::add(const std::string &key, bool value)
{
    return raw(key, value ? "true" : "false");
}

} // namespace json
} // namespace tilus
