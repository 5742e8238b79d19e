#include "obs/sink.h"

#include <cstdlib>
#include <fstream>

#include "support/logging.h"

namespace tilus {
namespace obs {

std::string
armExitSink(const char *var, void (*flush)())
{
    const char *path = std::getenv(var);
    if (!path || !*path)
        return "";
    std::atexit(flush);
    return path;
}

bool
writeSink(const char *who, const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    out.flush();
    if (!out) {
        warn(std::string(who) + ": cannot write " + path);
        return false;
    }
    return true;
}

} // namespace obs
} // namespace tilus
