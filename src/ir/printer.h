/**
 * @file
 * Pretty printer producing the surface syntax of Figure 2/Figure 7 from a
 * VM program. Used by documentation, debugging, and golden tests.
 */
#pragma once

#include <string>

#include "ir/program.h"

namespace tilus {
namespace ir {

/** Render a whole program as Figure-2-style pseudo code. */
std::string printProgram(const Program &program);

} // namespace ir
} // namespace tilus
