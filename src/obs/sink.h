/**
 * @file
 * The one exit sink behind TILUS_TRACE, TILUS_METRICS and
 * TILUS_PROFILE. Each document's owner (Tracer, Registry, ProfileSink)
 * is a leaked process singleton that arms itself from its environment
 * variable on first use; its document is written once at process exit,
 * and the leak means that write never races the owner's destruction.
 * The BENCH_*.json writers share writeSink.
 */
#pragma once

#include <string>

namespace tilus {
namespace obs {

/**
 * The path in environment variable @p var, or "" when it is unset or
 * empty. When a path is returned, @p flush has been registered to run
 * at process exit.
 */
std::string armExitSink(const char *var, void (*flush)());

/**
 * Write @p text to @p path, then flush and check the stream. On failure
 * warn "<who>: cannot write <path>" and return false. @p who names the
 * environment variable (or program) the path came from.
 */
bool writeSink(const char *who, const std::string &path,
               const std::string &text);

} // namespace obs
} // namespace tilus
