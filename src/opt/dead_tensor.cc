/**
 * @file
 * Dead tensor/storage elimination with view aliasing.
 *
 * Register tensors are per-thread byte storages; a View aliases the
 * storage of its source under a new dtype/layout. Liveness is therefore
 * a property of the *storage*, not the tensor id: a tensor loaded as
 * bytes and consumed through a reinterpreting view is live even though
 * the original id is never read.
 *
 * The pass mark-and-sweeps storage liveness from the side-effecting
 * roots (stores to global/shared memory, prints): a register-writing
 * operation demands its source storages only once something demands its
 * destination, so whole dead chains — including self-accumulating
 * mma/dot sequences whose result is never stored — collapse at once.
 * Operations whose only effect is writing a dead storage (loads, inits,
 * casts, elementwise, mma/dot) are removed; finally unreferenced tensor
 * declarations are pruned and the physical storage indices compacted,
 * shrinking the interpreter's per-thread footprint.
 *
 * Removing a dead global load changes traffic statistics (that is the
 * point) but never the bytes any remaining operation observes, so the
 * differential oracle stays bit-identical.
 */
#include <map>
#include <set>

#include "opt/lir_rewrite.h"
#include "opt/pass.h"

namespace tilus {
namespace opt {

namespace {

using namespace tilus::lir;

class DeadTensorElimination : public Pass
{
  public:
    const char *
    name() const override
    {
        return "dead-tensor";
    }

    bool
    run(Kernel &kernel) override
    {
        bool changed = false;
        while (removeDeadWrites(kernel))
            changed = true;
        changed |= pruneDeclarations(kernel);
        return changed;
    }

  private:
    static int
    storageOf(const Kernel &kernel, int tensor_id)
    {
        return kernel.tensor(tensor_id).storage;
    }

    /** (register destination or -1, register sources). An op that
        writes no register tensor (a store, a print) is a side-effecting
        root; one without tensors at all demands nothing. */
    struct OpUse
    {
        int dst = -1;
        std::vector<int> reads;
    };

    static OpUse
    opUse(const LOp &op)
    {
        OpUse use;
        forEachTensorRef(op, [&](int id, bool written) {
            if (written)
                use.dst = id;
            else
                use.reads.push_back(id);
        });
        return use;
    }

    /**
     * Storages transitively demanded by side-effecting operations.
     * Mark-and-sweep from the roots (global/shared stores, prints): a
     * register-writing op demands its sources only once something
     * demands its destination, so a self-accumulating mma chain
     * (c == d) whose result is never stored does not keep itself alive
     * through its own accumulator read.
     */
    static std::set<int>
    liveStorages(const Kernel &kernel)
    {
        std::set<int> live;
        bool grew = true;
        while (grew) {
            grew = false;
            forEachOp(kernel.body, [&](const LOp &op) {
                OpUse use = opUse(op);
                const bool demanded =
                    use.dst < 0 ||
                    live.count(storageOf(kernel, use.dst)) > 0;
                if (!demanded)
                    return;
                for (int tensor : use.reads)
                    if (live.insert(storageOf(kernel, tensor)).second)
                        grew = true;
            });
        }
        return live;
    }

    /** Is this op a pure register write into a dead storage? */
    static bool
    isDeadWrite(const Kernel &kernel, const LOp &op,
                const std::set<int> &live)
    {
        const int dst = opUse(op).dst;
        return dst >= 0 && live.count(storageOf(kernel, dst)) == 0;
    }

    static bool
    filterBody(LBody &body, const Kernel &kernel,
               const std::set<int> &live)
    {
        bool changed = false;
        LBody out;
        out.reserve(body.size());
        for (LNode &node : body) {
            if (std::holds_alternative<LOp>(node.node)) {
                if (isDeadWrite(kernel, std::get<LOp>(node.node),
                                live)) {
                    changed = true;
                    continue;
                }
            } else if (std::holds_alternative<LFor>(node.node)) {
                changed |= filterBody(*std::get<LFor>(node.node).body,
                                      kernel, live);
            } else if (std::holds_alternative<LIf>(node.node)) {
                auto &branch = std::get<LIf>(node.node);
                changed |= filterBody(*branch.then_body, kernel, live);
                if (branch.else_body)
                    changed |=
                        filterBody(*branch.else_body, kernel, live);
            } else if (std::holds_alternative<LWhile>(node.node)) {
                changed |= filterBody(*std::get<LWhile>(node.node).body,
                                      kernel, live);
            }
            out.push_back(std::move(node));
        }
        body = std::move(out);
        return changed;
    }

    static bool
    removeDeadWrites(Kernel &kernel)
    {
        std::set<int> live = liveStorages(kernel);
        return filterBody(kernel.body, kernel, live);
    }

    /** Drop unreferenced declarations; compact storage indices. */
    static bool
    pruneDeclarations(Kernel &kernel)
    {
        std::set<int> referenced;
        forEachOp(kernel.body, [&](const LOp &op) {
            forEachTensorRef(op, [&](int id, bool) { referenced.insert(id); });
        });

        std::vector<TensorDecl> kept;
        kept.reserve(kernel.tensors.size());
        for (TensorDecl &decl : kernel.tensors)
            if (referenced.count(decl.id))
                kept.push_back(std::move(decl));
        const bool changed = kept.size() != kernel.tensors.size();
        kernel.tensors = std::move(kept);

        // Compact storage indices (preserving relative order).
        std::map<int, int> remap;
        for (const TensorDecl &decl : kernel.tensors)
            remap.emplace(decl.storage,
                          static_cast<int>(remap.size()));
        for (TensorDecl &decl : kernel.tensors)
            decl.storage = remap.at(decl.storage);
        const int new_count = static_cast<int>(remap.size());
        const bool compacted = new_count != kernel.num_storages;
        kernel.num_storages = new_count;
        return changed || compacted;
    }
};

} // namespace

std::unique_ptr<Pass>
createDeadTensorPass()
{
    return std::make_unique<DeadTensorElimination>();
}

} // namespace opt
} // namespace tilus
