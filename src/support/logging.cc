#include "support/logging.h"

#include <iostream>

namespace tilus {

void
warn(const std::string &msg)
{
    // One write per line: std::cerr is unit-buffered, so streaming the
    // pieces separately lets concurrent compile-pool threads interleave
    // mid-line.
    std::cerr << "[tilus] warn: " + msg + "\n";
}

} // namespace tilus
