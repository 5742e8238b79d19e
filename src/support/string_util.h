/**
 * @file
 * Small string helpers used by printers and diagnostics.
 */
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace tilus {

/** Join the entries of @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Render an integer vector as "[a, b, c]". */
std::string toString(const std::vector<int64_t> &v);

/** Render an int vector as "[a, b, c]". */
std::string toString(const std::vector<int> &v);

/** Repeat a string @p n times (used for indentation). */
std::string repeatStr(const std::string &s, int n);

} // namespace tilus
