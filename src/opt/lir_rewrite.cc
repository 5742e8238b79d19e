#include "opt/lir_rewrite.h"

namespace tilus {
namespace opt {

using namespace tilus::lir;

void
forEachOpExpr(LOp &op, const std::function<void(ir::Expr &)> &fn)
{
    forEachField(op, [&](auto &field) {
        if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                     ir::Expr>)
            if (field)
                fn(field);
    });
}

void
forEachOpExpr(const LOp &op,
              const std::function<void(const ir::Expr &)> &fn)
{
    // The mutable traversal never replaces when the callback only reads.
    forEachOpExpr(const_cast<LOp &>(op),
                  [&](ir::Expr &e) { fn(e); });
}

void
forEachBodyExpr(LBody &body, const std::function<void(ir::Expr &)> &fn)
{
    auto visit = [&](ir::Expr &e) {
        if (e)
            fn(e);
    };
    for (LNode &node : body) {
        if (std::holds_alternative<LOp>(node.node)) {
            forEachOpExpr(std::get<LOp>(node.node), fn);
        } else if (std::holds_alternative<LFor>(node.node)) {
            auto &loop = std::get<LFor>(node.node);
            visit(loop.extent);
            forEachBodyExpr(*loop.body, fn);
        } else if (std::holds_alternative<LIf>(node.node)) {
            auto &branch = std::get<LIf>(node.node);
            visit(branch.cond);
            forEachBodyExpr(*branch.then_body, fn);
            if (branch.else_body)
                forEachBodyExpr(*branch.else_body, fn);
        } else if (std::holds_alternative<LWhile>(node.node)) {
            auto &loop = std::get<LWhile>(node.node);
            visit(loop.cond);
            forEachBodyExpr(*loop.body, fn);
        } else if (std::holds_alternative<LAssign>(node.node)) {
            visit(std::get<LAssign>(node.node).value);
        }
    }
}

void
forEachBodyExpr(const LBody &body,
                const std::function<void(const ir::Expr &)> &fn)
{
    forEachBodyExpr(const_cast<LBody &>(body),
                    [&](ir::Expr &e) { fn(e); });
}

void
forEachOpInNode(const LNode &node,
                const std::function<void(const LOp &)> &fn)
{
    if (std::holds_alternative<LOp>(node.node)) {
        fn(std::get<LOp>(node.node));
    } else if (std::holds_alternative<LFor>(node.node)) {
        forEachOp(*std::get<LFor>(node.node).body, fn);
    } else if (std::holds_alternative<LIf>(node.node)) {
        const auto &branch = std::get<LIf>(node.node);
        forEachOp(*branch.then_body, fn);
        if (branch.else_body)
            forEachOp(*branch.else_body, fn);
    } else if (std::holds_alternative<LWhile>(node.node)) {
        forEachOp(*std::get<LWhile>(node.node).body, fn);
    }
}

void
forEachOp(const LBody &body,
          const std::function<void(const LOp &)> &fn)
{
    for (const LNode &node : body)
        forEachOpInNode(node, fn);
}

bool
anyOp(const LBody &body, const std::function<bool(const LOp &)> &pred)
{
    bool found = false;
    forEachOp(body, [&](const LOp &op) {
        if (pred(op))
            found = true;
    });
    return found;
}

LNode
cloneNode(const LNode &node)
{
    if (std::holds_alternative<LFor>(node.node)) {
        const auto &loop = std::get<LFor>(node.node);
        LFor copy;
        copy.var = loop.var;
        copy.extent = loop.extent;
        copy.body = std::make_shared<LBody>(cloneBody(*loop.body));
        return LNode{std::move(copy)};
    }
    if (std::holds_alternative<LIf>(node.node)) {
        const auto &branch = std::get<LIf>(node.node);
        LIf copy;
        copy.cond = branch.cond;
        copy.then_body =
            std::make_shared<LBody>(cloneBody(*branch.then_body));
        if (branch.else_body)
            copy.else_body =
                std::make_shared<LBody>(cloneBody(*branch.else_body));
        return LNode{std::move(copy)};
    }
    if (std::holds_alternative<LWhile>(node.node)) {
        const auto &loop = std::get<LWhile>(node.node);
        LWhile copy;
        copy.cond = loop.cond;
        copy.body = std::make_shared<LBody>(cloneBody(*loop.body));
        return LNode{std::move(copy)};
    }
    return node; // LOp / LAssign / LBreak / LContinue are value types
}

LBody
cloneBody(const LBody &body)
{
    LBody out;
    out.reserve(body.size());
    for (const LNode &node : body)
        out.push_back(cloneNode(node));
    return out;
}

} // namespace opt
} // namespace tilus
