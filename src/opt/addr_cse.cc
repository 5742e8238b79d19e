/**
 * @file
 * Loop-invariant address-expression CSE.
 *
 * Lowered kernels evaluate large shared address trees (global bases,
 * tile offsets, stride products, bounds predicates) once per thread per
 * op per iteration. Many subtrees are invariant across a loop: they
 * reference only kernel parameters, block indices, outer loop variables,
 * and the workspace pointer — never the thread index (a hoisted value
 * becomes a uniform scalar assignment, which is block-wide) and never a
 * variable defined inside the loop.
 *
 * For every loop the pass collects the *topmost* invariant subtrees of
 * each expression site in the loop subtree, then hoists those that are
 * repeated (count >= 2, size >= 2 nodes) or individually expensive
 * (size >= 4 nodes) into `LAssign` temporaries in the loop preheader and
 * rewrites the sites to reference the temporary. Hoisting is pure
 * arithmetic: evaluating an address subtree early cannot fault (LIR
 * divisions are by nonzero constants), so a zero-trip loop stays safe.
 */
#include <unordered_map>

#include "opt/lir_rewrite.h"
#include "opt/pass.h"

namespace tilus {
namespace opt {

namespace {

using namespace tilus::lir;

/** Variable ids that make a subexpression non-hoistable. */
struct Forbidden
{
    std::vector<int> ids;

    bool
    contains(int id) const
    {
        for (int x : ids)
            if (x == id)
                return true;
        return false;
    }
};

/** Ids defined inside the subtree: loop variables and LAssign targets. */
void
collectDefinedVars(const LBody &body, std::vector<int> &out)
{
    for (const LNode &node : body) {
        if (std::holds_alternative<LFor>(node.node)) {
            const auto &loop = std::get<LFor>(node.node);
            out.push_back(loop.var.id());
            collectDefinedVars(*loop.body, out);
        } else if (std::holds_alternative<LIf>(node.node)) {
            const auto &branch = std::get<LIf>(node.node);
            collectDefinedVars(*branch.then_body, out);
            if (branch.else_body)
                collectDefinedVars(*branch.else_body, out);
        } else if (std::holds_alternative<LWhile>(node.node)) {
            collectDefinedVars(*std::get<LWhile>(node.node).body, out);
        } else if (std::holds_alternative<LAssign>(node.node)) {
            out.push_back(std::get<LAssign>(node.node).var.id());
        }
    }
}

bool
isCompound(const ir::Expr &e)
{
    return e->kind() == ir::ExprKind::kUnary ||
           e->kind() == ir::ExprKind::kBinary ||
           e->kind() == ir::ExprKind::kSelect;
}

/**
 * Hoistability of one loop's subexpressions: no forbidden variable
 * below. Memoized per node, so each shared subtree is walked once per
 * loop. Keyed by node address, so it must not outlive the gather: the
 * rewrite frees nodes, and a recycled address would hit a stale entry.
 */
class Hoistability
{
  public:
    explicit Hoistability(const Forbidden &forbidden)
        : forbidden_(forbidden)
    {}

    bool
    operator()(const ir::Expr &e)
    {
        switch (e->kind()) {
          case ir::ExprKind::kConst:
            return true;
          case ir::ExprKind::kVar:
            return !forbidden_.contains(
                static_cast<const ir::VarNode &>(*e).id);
          default:
            break;
        }
        auto it = memo_.find(e.get());
        if (it != memo_.end())
            return it->second;
        bool hoistable = true;
        switch (e->kind()) {
          case ir::ExprKind::kUnary:
            hoistable = (*this)(static_cast<const ir::UnaryNode &>(*e).a);
            break;
          case ir::ExprKind::kBinary: {
            const auto &node = static_cast<const ir::BinaryNode &>(*e);
            hoistable = (*this)(node.a) && (*this)(node.b);
            break;
          }
          case ir::ExprKind::kSelect: {
            const auto &node = static_cast<const ir::SelectNode &>(*e);
            hoistable = (*this)(node.cond) && (*this)(node.on_true) &&
                        (*this)(node.on_false);
            break;
          }
          default:
            break;
        }
        memo_.emplace(e.get(), hoistable);
        return hoistable;
    }

  private:
    const Forbidden &forbidden_;
    std::unordered_map<const ir::ExprNode *, bool> memo_;
};

/** One structurally distinct hoistable subtree of a loop. */
struct HoistCandidate
{
    ir::Expr expr; ///< first occurrence
    int64_t count = 0;
    int64_t nodes = 0;
    ir::Expr temp; ///< the preheader temporary, once selected
};

/**
 * A loop's candidates in first-seen order (the order of the preheader
 * assigns), bucketed by ir::ExprNode::hash();
 * ir::structurallyEqual resolves collisions.
 */
class CandidateTable
{
  public:
    /** The candidate structurally equal to @p e, or null. */
    HoistCandidate *
    find(const ir::Expr &e)
    {
        auto [lo, hi] = index_.equal_range(e->hash());
        for (auto it = lo; it != hi; ++it)
            if (ir::structurallyEqual(entries_[it->second].expr, e))
                return &entries_[it->second];
        return nullptr;
    }

    /** Count one occurrence of @p e, adding it if new. */
    void
    add(const ir::Expr &e)
    {
        HoistCandidate *cand = find(e);
        if (!cand) {
            index_.emplace(e->hash(), entries_.size());
            cand = &entries_.emplace_back();
            cand->expr = e;
            cand->nodes = ir::exprNodeCount(e);
        }
        cand->count += 1;
    }

    std::vector<HoistCandidate> &entries() { return entries_; }

  private:
    std::vector<HoistCandidate> entries_;
    std::unordered_multimap<uint64_t, size_t> index_;
};

class AddressHoist : public Pass
{
  public:
    const char *
    name() const override
    {
        return "addr-hoist";
    }

    bool
    run(Kernel &kernel) override
    {
        Forbidden base;
        base.ids.push_back(tidVar().id());
        next_temp_ = 0;
        return processBody(kernel.body, base);
    }

  private:
    bool
    processBody(LBody &body, const Forbidden &outer_forbidden)
    {
        bool changed = false;
        for (size_t i = 0; i < body.size(); ++i) {
            LNode &node = body[i];
            if (std::holds_alternative<LFor>(node.node)) {
                auto &loop = std::get<LFor>(node.node);
                size_t inserted = hoistLoop(loop, outer_forbidden, body, i);
                changed |= inserted > 0;
                i += inserted; // skip the new preheader assigns
                // `node`/`loop` may be dangling after insertion; re-fetch.
                auto &loop2 = std::get<LFor>(body[i].node);
                changed |= processBody(*loop2.body, outer_forbidden);
            } else if (std::holds_alternative<LIf>(node.node)) {
                auto &branch = std::get<LIf>(node.node);
                changed |= processBody(*branch.then_body, outer_forbidden);
                if (branch.else_body)
                    changed |=
                        processBody(*branch.else_body, outer_forbidden);
            } else if (std::holds_alternative<LWhile>(node.node)) {
                changed |= processBody(*std::get<LWhile>(node.node).body,
                                       outer_forbidden);
            }
        }
        return changed;
    }

    /**
     * Hoist invariant subtrees of `loop` into preheader assigns inserted
     * at `body[index]`; returns the number of inserted nodes.
     */
    size_t
    hoistLoop(LFor &loop, const Forbidden &outer_forbidden, LBody &body,
              size_t index)
    {
        Forbidden forbidden = outer_forbidden;
        forbidden.ids.push_back(loop.var.id());
        collectDefinedVars(*loop.body, forbidden.ids);

        // Gather topmost invariant subtrees over every expression site.
        CandidateTable candidates;
        {
            Hoistability hoistable(forbidden);
            forEachBodyExpr(*loop.body, [&](ir::Expr &e) {
                gather(e, hoistable, candidates);
            });
        }

        // Select in first-seen order and create the temporaries.
        LBody assigns;
        for (HoistCandidate &cand : candidates.entries()) {
            if (!((cand.count >= 2 && cand.nodes >= 2) || cand.nodes >= 4))
                continue;
            ir::Var temp = ir::Var::make(
                "inv" + std::to_string(next_temp_++), cand.expr->dtype());
            assigns.push_back(LNode{LAssign{temp, cand.expr}});
            cand.temp = temp;
        }
        if (assigns.empty())
            return 0;

        // Replace every selected subtree with its temporary, top-down.
        forEachBodyExpr(*loop.body, [&](ir::Expr &e) {
            e = ir::mapExpr(e, [&](const ir::Expr &sub) -> ir::Expr {
                if (!isCompound(sub))
                    return nullptr;
                const HoistCandidate *cand = candidates.find(sub);
                return cand ? cand->temp : nullptr;
            });
        });

        const size_t n = assigns.size();
        body.insert(body.begin() + static_cast<long>(index),
                    std::make_move_iterator(assigns.begin()),
                    std::make_move_iterator(assigns.end()));
        return n;
    }

    /** Record the topmost hoistable subtrees of `e`. */
    static void
    gather(const ir::Expr &e, Hoistability &hoistable,
           CandidateTable &candidates)
    {
        if (!isCompound(e))
            return;
        if (hoistable(e)) {
            candidates.add(e);
            return; // topmost only: do not descend
        }
        switch (e->kind()) {
          case ir::ExprKind::kUnary:
            gather(static_cast<const ir::UnaryNode &>(*e).a, hoistable,
                   candidates);
            break;
          case ir::ExprKind::kBinary: {
            const auto &node = static_cast<const ir::BinaryNode &>(*e);
            gather(node.a, hoistable, candidates);
            gather(node.b, hoistable, candidates);
            break;
          }
          case ir::ExprKind::kSelect: {
            const auto &node = static_cast<const ir::SelectNode &>(*e);
            gather(node.cond, hoistable, candidates);
            gather(node.on_true, hoistable, candidates);
            gather(node.on_false, hoistable, candidates);
            break;
          }
          default:
            break;
        }
    }

    int next_temp_ = 0;
};

} // namespace

std::unique_ptr<Pass>
createAddressHoistPass()
{
    return std::make_unique<AddressHoist>();
}

} // namespace opt
} // namespace tilus
