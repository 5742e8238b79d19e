#include "support/string_util.h"

namespace tilus {

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i != 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

namespace {

template <typename T>
std::string
vectorToString(const std::vector<T> &v)
{
    std::ostringstream oss;
    oss << "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i != 0)
            oss << ", ";
        oss << v[i];
    }
    oss << "]";
    return oss.str();
}

} // namespace

std::string
toString(const std::vector<int64_t> &v)
{
    return vectorToString(v);
}

std::string
toString(const std::vector<int> &v)
{
    return vectorToString(v);
}

std::string
repeatStr(const std::string &s, int n)
{
    std::string out;
    for (int i = 0; i < n; ++i)
        out += s;
    return out;
}

} // namespace tilus
