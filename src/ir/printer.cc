#include "ir/printer.h"

#include <sstream>

#include "support/error.h"
#include "support/string_util.h"

namespace tilus {
namespace ir {

namespace {

class Printer
{
  public:
    std::string
    program(const Program &prog)
    {
        std::vector<std::string> grid_parts;
        for (const Expr &g : prog.grid)
            grid_parts.push_back(ir::toString(g));
        std::vector<std::string> param_parts;
        for (const Var &p : prog.params)
            param_parts.push_back(p.dtype().name() + " " + p.name());
        oss_ << "def " << prog.name << "<" << join(grid_parts, ", ") << ">("
             << join(param_parts, ", ") << "):  # warps=" << prog.num_warps
             << "\n";
        stmt(prog.body, 1);
        return oss_.str();
    }

    void
    stmt(const Stmt &s, int indent)
    {
        switch (s->kind()) {
          case StmtKind::kSeq: {
            const auto &node = static_cast<const SeqStmt &>(*s);
            if (node.stmts.empty())
                line(indent, "pass");
            for (const Stmt &sub : node.stmts)
                stmt(sub, indent);
            break;
          }
          case StmtKind::kIf: {
            const auto &node = static_cast<const IfStmt &>(*s);
            line(indent, "if " + ir::toString(node.cond) + ":");
            stmt(node.then_body, indent + 1);
            if (node.else_body) {
                line(indent, "else:");
                stmt(node.else_body, indent + 1);
            }
            break;
          }
          case StmtKind::kFor: {
            const auto &node = static_cast<const ForStmt &>(*s);
            line(indent, "for " + node.var.name() + " in range(" +
                             ir::toString(node.extent) + "):");
            stmt(node.body, indent + 1);
            break;
          }
          case StmtKind::kWhile: {
            const auto &node = static_cast<const WhileStmt &>(*s);
            line(indent, "while " + ir::toString(node.cond) + ":");
            stmt(node.body, indent + 1);
            break;
          }
          case StmtKind::kBreak:
            line(indent, "break");
            break;
          case StmtKind::kContinue:
            line(indent, "continue");
            break;
          case StmtKind::kAssign: {
            const auto &node = static_cast<const AssignStmt &>(*s);
            line(indent,
                 node.var.name() + " = " + ir::toString(node.value));
            break;
          }
          case StmtKind::kInst: {
            const auto &node = static_cast<const InstStmt &>(*s);
            line(indent, instruction(*node.inst));
            break;
          }
        }
    }

  private:
    void
    line(int indent, const std::string &text)
    {
        oss_ << repeatStr("    ", indent) << text << "\n";
    }

    static std::string
    offsets(const std::vector<Expr> &offset)
    {
        std::vector<std::string> parts;
        for (const Expr &e : offset)
            parts.push_back(ir::toString(e) + ":");
        return "[" + join(parts, ", ") + "]";
    }

    static std::string
    shapeExprs(const std::vector<Expr> &shape)
    {
        std::vector<std::string> parts;
        for (const Expr &e : shape)
            parts.push_back(ir::toString(e));
        return "[" + join(parts, ", ") + "]";
    }

    static const char *
    binOpName(TensorBinaryOp op)
    {
        switch (op) {
          case TensorBinaryOp::kAdd: return "Add";
          case TensorBinaryOp::kSub: return "Sub";
          case TensorBinaryOp::kMul: return "Mul";
          case TensorBinaryOp::kDiv: return "Div";
          case TensorBinaryOp::kMod: return "Mod";
        }
        return "?";
    }

    std::string
    instruction(const Instruction &inst)
    {
        std::ostringstream os;
        switch (inst.kind()) {
          case InstKind::kBlockIndices: {
            const auto &node = static_cast<const BlockIndicesInst &>(inst);
            std::vector<std::string> names;
            for (const Var &v : node.outs)
                names.push_back(v.name());
            os << join(names, ", ") << " = BlockIndices()";
            break;
          }
          case InstKind::kViewGlobal: {
            const auto &node = static_cast<const ViewGlobalInst &>(inst);
            os << node.out->name << " = ViewGlobal("
               << ir::toString(node.out->ptr)
               << ", dtype=" << node.out->dtype.name()
               << ", shape=" << shapeExprs(node.out->shape) << ")";
            break;
          }
          case InstKind::kAllocateGlobal: {
            const auto &node = static_cast<const AllocateGlobalInst &>(inst);
            os << node.out->name << " = AllocateGlobal(dtype="
               << node.out->dtype.name()
               << ", shape=" << shapeExprs(node.out->shape) << ")";
            break;
          }
          case InstKind::kAllocateShared: {
            const auto &node = static_cast<const AllocateSharedInst &>(inst);
            os << node.out->name << " = AllocateShared(dtype="
               << node.out->dtype.name()
               << ", shape=" << tilus::toString(node.out->shape) << ")";
            break;
          }
          case InstKind::kAllocateRegister: {
            const auto &node =
                static_cast<const AllocateRegisterInst &>(inst);
            os << node.out->name << " = AllocateRegister(dtype="
               << node.out->dtype.name()
               << ", layout=" << node.out->layout.toString();
            if (node.init)
                os << ", init=" << *node.init;
            os << ")";
            break;
          }
          case InstKind::kLoadGlobal: {
            const auto &node = static_cast<const LoadGlobalInst &>(inst);
            os << node.out->name << " = LoadGlobal(" << node.src->name
               << ", layout=" << node.out->layout.toString()
               << ", offset=" << offsets(node.offset) << ")";
            break;
          }
          case InstKind::kLoadShared: {
            const auto &node = static_cast<const LoadSharedInst &>(inst);
            os << node.out->name << " = LoadShared(" << node.src->name
               << ", layout=" << node.out->layout.toString()
               << ", offset=" << offsets(node.offset) << ")";
            break;
          }
          case InstKind::kStoreGlobal: {
            const auto &node = static_cast<const StoreGlobalInst &>(inst);
            os << "StoreGlobal(" << node.src->name << ", "
               << node.dst->name << ", offset=" << offsets(node.offset)
               << ")";
            break;
          }
          case InstKind::kStoreShared: {
            const auto &node = static_cast<const StoreSharedInst &>(inst);
            os << "StoreShared(" << node.src->name << ", " << node.dst->name
               << ", offset=" << offsets(node.offset) << ")";
            break;
          }
          case InstKind::kCopyAsync: {
            const auto &node = static_cast<const CopyAsyncInst &>(inst);
            os << "CopyAsync(" << node.dst->name << ", " << node.src->name
               << ", offset=" << offsets(node.offset) << ")";
            break;
          }
          case InstKind::kCopyAsyncCommitGroup:
            os << "CopyAsyncCommitGroup()";
            break;
          case InstKind::kCopyAsyncWaitGroup: {
            const auto &node =
                static_cast<const CopyAsyncWaitGroupInst &>(inst);
            os << "CopyAsyncWaitGroup(" << node.n << ")";
            break;
          }
          case InstKind::kCast: {
            const auto &node = static_cast<const CastInst &>(inst);
            os << node.out->name << " = Cast(" << node.src->name
               << ", dtype=" << node.out->dtype.name() << ")";
            break;
          }
          case InstKind::kView: {
            const auto &node = static_cast<const ViewInst &>(inst);
            os << node.out->name << " = View(" << node.src->name
               << ", dtype=" << node.out->dtype.name()
               << ", layout=" << node.out->layout.toString() << ")";
            break;
          }
          case InstKind::kBinary: {
            const auto &node = static_cast<const BinaryInst &>(inst);
            os << node.out->name << " = " << binOpName(node.op) << "("
               << node.a->name << ", " << node.b->name << ")";
            break;
          }
          case InstKind::kBinaryScalar: {
            const auto &node = static_cast<const BinaryScalarInst &>(inst);
            os << node.out->name << " = " << binOpName(node.op) << "("
               << node.a->name << ", " << ir::toString(node.scalar) << ")";
            break;
          }
          case InstKind::kUnary: {
            const auto &node = static_cast<const UnaryInst &>(inst);
            os << node.out->name << " = Neg(" << node.a->name << ")";
            break;
          }
          case InstKind::kDot: {
            const auto &node = static_cast<const DotInst &>(inst);
            os << node.out->name << " = Dot(" << node.a->name << ", "
               << node.b->name << ", " << node.c->name << ")";
            break;
          }
          case InstKind::kSynchronize:
            os << "Synchronize()";
            break;
          case InstKind::kExit:
            os << "Exit()";
            break;
          case InstKind::kPrint: {
            const auto &node = static_cast<const PrintInst &>(inst);
            os << "Print(" << node.tensor->name << ")";
            break;
          }
        }
        return os.str();
    }

    std::ostringstream oss_;
};

} // namespace

std::string
printProgram(const Program &program)
{
    Printer printer;
    return printer.program(program);
}

} // namespace ir
} // namespace tilus
