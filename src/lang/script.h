/**
 * @file
 * The Tilus DSL: a builder that constructs VM programs with the surface
 * syntax of Figure 2. The paper embeds this DSL in Python; here it is a
 * fluent C++ API producing ir::Program values that the compiler consumes.
 *
 * Example (the paper's FP16 x INT6 matmul skeleton):
 *
 *     lang::Script s("matmul", 1);
 *     auto a_ptr = s.paramPointer("a_ptr", float16());
 *     ...
 *     s.setGrid({constInt(M / BM), constInt(N / BN)});
 *     auto idx = s.blockIndices();
 *     auto ga = s.viewGlobal(a_ptr, float16(), {M, K});
 *     auto acc = s.allocateRegister(float32(),
 *                                   local(2,1)*spatial(8,4)*local(1,2), 0.0);
 *     s.forRange(K / BK, [&](ir::Var bk) { ... });
 *     ir::Program prog = s.finish();
 */
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "ir/program.h"
#include "ir/printer.h"
#include "ir/verifier.h"

namespace tilus {
namespace lang {

/** Program builder with scoped statement collection. */
class Script
{
  public:
    Script(std::string name, int num_warps);

    /// @name Parameters and launch grid.
    /// @{
    ir::Var paramPointer(const std::string &name, DataType pointee);
    ir::Var paramScalar(const std::string &name,
                        DataType dtype = tilus::int32());
    void setGrid(std::vector<ir::Expr> grid);
    /// @}

    /// @name Indexing.
    /// @{
    /** BlockIndices(): one variable per grid dimension. */
    std::vector<ir::Var> blockIndices();
    /// @}

    /// @name Tensor creation.
    /// @{
    ir::GlobalTensor viewGlobal(ir::Expr ptr, DataType dtype,
                                std::vector<ir::Expr> shape,
                                std::string name = "");
    ir::GlobalTensor allocateGlobal(DataType dtype,
                                    std::vector<ir::Expr> shape,
                                    std::string name = "");
    ir::SharedTensor allocateShared(DataType dtype,
                                    std::vector<int64_t> shape,
                                    std::string name = "");
    ir::RegTensor allocateRegister(DataType dtype, Layout layout,
                                   std::optional<double> init = std::nullopt,
                                   std::string name = "");
    /// @}

    /// @name Tensor transfer.
    /// @{
    ir::RegTensor loadGlobal(const ir::GlobalTensor &src, Layout layout,
                             std::vector<ir::Expr> offset,
                             std::string name = "");
    ir::RegTensor loadShared(const ir::SharedTensor &src, Layout layout,
                             std::vector<ir::Expr> offset,
                             std::string name = "");
    void storeGlobal(const ir::RegTensor &src, const ir::GlobalTensor &dst,
                     std::vector<ir::Expr> offset);
    void storeShared(const ir::RegTensor &src, const ir::SharedTensor &dst,
                     std::vector<ir::Expr> offset);
    void copyAsync(const ir::SharedTensor &dst, const ir::GlobalTensor &src,
                   std::vector<ir::Expr> offset);
    void copyAsyncCommitGroup();
    void copyAsyncWaitGroup(int n);
    /// @}

    /// @name Register tensor computation.
    /// @{
    ir::RegTensor cast(const ir::RegTensor &src, DataType dtype,
                       std::string name = "");
    ir::RegTensor view(const ir::RegTensor &src, DataType dtype,
                       Layout layout, std::string name = "");
    ir::RegTensor add(const ir::RegTensor &a, const ir::RegTensor &b,
                      std::string name = "");
    ir::RegTensor sub(const ir::RegTensor &a, const ir::RegTensor &b,
                      std::string name = "");
    ir::RegTensor mul(const ir::RegTensor &a, const ir::RegTensor &b,
                      std::string name = "");
    ir::RegTensor div(const ir::RegTensor &a, const ir::RegTensor &b,
                      std::string name = "");
    ir::RegTensor mulScalar(const ir::RegTensor &a, ir::Expr scalar,
                            std::string name = "");
    ir::RegTensor addScalar(const ir::RegTensor &a, ir::Expr scalar,
                            std::string name = "");
    ir::RegTensor neg(const ir::RegTensor &a, std::string name = "");
    /** acc = dot(a, b) + acc (in-place accumulate). */
    void dot(const ir::RegTensor &a, const ir::RegTensor &b,
             const ir::RegTensor &acc);
    /// @}

    /// @name Control, debug.
    /// @{
    void synchronize();
    void exitBlock();
    void print(const ir::RegTensor &tensor);
    /// @}

    /// @name Structured control flow.
    /// @{
    void forRange(ir::Expr extent, const std::function<void(ir::Var)> &body,
                  const std::string &var_name = "");
    void ifThen(ir::Expr cond, const std::function<void()> &then_body);
    void ifThenElse(ir::Expr cond, const std::function<void()> &then_body,
                    const std::function<void()> &else_body);
    void whileLoop(ir::Expr cond, const std::function<void()> &body);
    void breakLoop();
    void continueLoop();
    void assign(const ir::Var &var, ir::Expr value);
    ir::Var letVar(const std::string &name, ir::Expr value,
                   DataType dtype = tilus::int32());
    /// @}

    /** Finalize: wraps statements, verifies, and returns the program. */
    ir::Program finish();

    /**
     * Finalize and compile in one step. Callers pin the optimization
     * level (and every other lowering switch) through @p options; the
     * default compiles at O2 like compiler::compile.
     */
    lir::Kernel compile(const compiler::CompileOptions &options = {});

  private:
    void push(ir::Stmt stmt);
    std::string freshName(const std::string &hint, const char *prefix);
    ir::RegTensor makeReg(DataType dtype, Layout layout,
                          const std::string &name, const char *prefix);

    std::string name_;
    int num_warps_;
    std::vector<ir::Expr> grid_;
    std::vector<ir::Var> params_;
    std::vector<std::vector<ir::Stmt>> blocks_;
    int next_tensor_id_ = 0;
    int name_counter_ = 0;
    bool finished_ = false;
};

} // namespace lang
} // namespace tilus
