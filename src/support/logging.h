/**
 * @file
 * Warnings for suspicious-but-survivable conditions (a disabled disk
 * cache, a rejected cache entry, an O0 degrade), written to stderr.
 */
#pragma once

#include <string>

namespace tilus {

/** Write "[tilus] warn: <msg>" to stderr as one line. */
void warn(const std::string &msg);

} // namespace tilus
