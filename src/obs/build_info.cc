#include "obs/build_info.h"

#include <sstream>

#include "cache/fingerprint.h"
#include "cache/tune_db.h"
#include "compiler/options.h"
#include "support/json.h"

namespace tilus {
namespace obs {

const char *
gitDescribe()
{
#ifdef TILUS_GIT_DESCRIBE
    return TILUS_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

const char *
compilerVersion()
{
#ifdef __VERSION__
    return "" __VERSION__;
#else
    return "unknown";
#endif
}

const char *
buildType()
{
#ifdef TILUS_BUILD_TYPE
    return TILUS_BUILD_TYPE;
#else
    return "unknown";
#endif
}

std::string
buildInfo()
{
    std::ostringstream oss;
    oss << "tilus " << gitDescribe() << " | " << compilerVersion()
        << " | " << buildType() << " | opt O2 default"
        << " | compiler rev " << compiler::kCompilerRevision
        << " | cache format v" << cache::kCacheFormatVersion
        << " | tune db v" << cache::kTuneDbVersion;
    return oss.str();
}

std::string
buildInfoJson()
{
    return json::Object()
        .add("git", gitDescribe())
        .add("compiler", compilerVersion())
        .add("build_type", buildType())
        .add("default_opt_level", "O2")
        .add("compiler_revision", int64_t{compiler::kCompilerRevision})
        .add("cache_format_version", int64_t{cache::kCacheFormatVersion})
        .add("tune_db_version", int64_t{cache::kTuneDbVersion})
        .str();
}

} // namespace obs
} // namespace tilus
