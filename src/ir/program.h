/**
 * @file
 * A Tilus VM program: name, grid shape, parameters, and body
 * (Section 6.2). The grid shape may depend on the parameters, in which
 * case the launch dimensions are resolved at run time.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/expr.h"
#include "ir/stmt.h"

namespace tilus {
namespace ir {

/** A complete thread-block-level program. */
class Program
{
  public:
    std::string name;
    std::vector<Expr> grid; ///< 1-3 grid dimensions
    std::vector<Var> params;
    Stmt body;
    int num_warps = 1;

    /** Threads per block: warps x 32. */
    int blockThreads() const { return num_warps * 32; }
};
using ProgramPtr = std::shared_ptr<const Program>;

} // namespace ir
} // namespace tilus
