#include "layout/layout.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "support/error.h"
#include "support/math_util.h"
#include "support/string_util.h"

namespace tilus {

namespace {

std::string
primitiveLabel(const char *name, const std::vector<int64_t> &shape)
{
    std::vector<std::string> parts;
    parts.reserve(shape.size());
    for (int64_t n : shape)
        parts.push_back(std::to_string(n));
    return std::string(name) + "(" + join(parts, ", ") + ")";
}

/** Mixed-radix table over the modes of @p order (most-significant
    first): entry n is the sum of digit_k(n) * weight[order[k]]. */
std::vector<int64_t>
ravelTable(const std::vector<int64_t> &mode_shape,
           const std::vector<int> &order, const std::vector<int64_t> &weight)
{
    std::vector<int64_t> table = {0};
    for (int m : order) {
        std::vector<int64_t> next;
        next.reserve(table.size() * mode_shape[m]);
        for (int64_t base : table)
            for (int64_t digit = 0; digit < mode_shape[m]; ++digit)
                next.push_back(base + digit * weight[m]);
        table = std::move(next);
    }
    return table;
}

} // namespace

Layout
Layout::make(std::vector<int64_t> shape, std::vector<int64_t> mode_shape,
             std::vector<int> mode_dim, std::vector<int> spatial_modes,
             std::vector<int> local_modes, std::string label)
{
    Layout layout;
    layout.shape_ = std::move(shape);
    layout.mode_shape_ = std::move(mode_shape);
    layout.mode_dim_ = std::move(mode_dim);
    layout.spatial_modes_ = std::move(spatial_modes);
    layout.local_modes_ = std::move(local_modes);
    layout.label_ = std::move(label);
    layout.validate();
    return layout;
}

void
Layout::validate() const
{
    const int num_modes = static_cast<int>(mode_shape_.size());
    TILUS_CHECK_MSG(mode_dim_.size() == mode_shape_.size(),
                    "mode_dim/mode_shape size mismatch");
    // Per-dimension products must reproduce the shape; dims non-decreasing.
    // Replica modes (mode_dim == -1) belong to no dimension.
    std::vector<int64_t> dim_product(shape_.size(), 1);
    int prev_dim = 0;
    for (int m = 0; m < num_modes; ++m) {
        TILUS_CHECK_MSG(mode_shape_[m] >= 1, "non-positive mode size");
        int d = mode_dim_[m];
        if (d < 0)
            continue;
        TILUS_CHECK_MSG(d < rank(), "mode dim out of range");
        TILUS_CHECK_MSG(d >= prev_dim, "mode dims must be non-decreasing");
        prev_dim = d;
        dim_product[d] *= mode_shape_[m];
    }
    for (int d = 0; d < rank(); ++d) {
        TILUS_CHECK_MSG(dim_product[d] == shape_[d],
                        "modes of dim " << d << " multiply to "
                                        << dim_product[d] << ", expected "
                                        << shape_[d]);
    }
    // Every mode appears exactly once across the two order lists.
    std::vector<int> seen(num_modes, 0);
    for (int m : spatial_modes_) {
        TILUS_CHECK_MSG(m >= 0 && m < num_modes, "bad spatial mode index");
        ++seen[m];
    }
    for (int m : local_modes_) {
        TILUS_CHECK_MSG(m >= 0 && m < num_modes, "bad local mode index");
        TILUS_CHECK_MSG(mode_dim_[m] >= 0,
                        "replica modes cannot be local modes");
        ++seen[m];
    }
    for (int m = 0; m < num_modes; ++m) {
        TILUS_CHECK_MSG(seen[m] == 1,
                        "mode " << m << " assigned " << seen[m]
                                << " times (must be exactly once)");
    }
}

Layout
Layout::makeLocal(const std::vector<int64_t> &shape)
{
    const int r = static_cast<int>(shape.size());
    std::vector<int> dims(r), order(r);
    std::iota(dims.begin(), dims.end(), 0);
    std::iota(order.begin(), order.end(), 0);
    return make(shape, shape, dims, {}, order,
                primitiveLabel("local", shape));
}

Layout
Layout::makeSpatial(const std::vector<int64_t> &shape)
{
    const int r = static_cast<int>(shape.size());
    std::vector<int> dims(r), order(r);
    std::iota(dims.begin(), dims.end(), 0);
    std::iota(order.begin(), order.end(), 0);
    return make(shape, shape, dims, order, {},
                primitiveLabel("spatial", shape));
}

Layout
Layout::makeColumnLocal(const std::vector<int64_t> &shape)
{
    const int r = static_cast<int>(shape.size());
    std::vector<int> dims(r), order(r);
    std::iota(dims.begin(), dims.end(), 0);
    for (int i = 0; i < r; ++i)
        order[i] = r - 1 - i;
    return make(shape, shape, dims, {}, order,
                primitiveLabel("column_local", shape));
}

Layout
Layout::makeColumnSpatial(const std::vector<int64_t> &shape)
{
    const int r = static_cast<int>(shape.size());
    std::vector<int> dims(r), order(r);
    std::iota(dims.begin(), dims.end(), 0);
    for (int i = 0; i < r; ++i)
        order[i] = r - 1 - i;
    return make(shape, shape, dims, order, {},
                primitiveLabel("column_spatial", shape));
}

Layout
Layout::makeReplica(int rank, int64_t copies)
{
    std::vector<int64_t> shape(rank, 1);
    return make(shape, {copies}, {-1}, {0}, {},
                "replica(" + std::to_string(copies) + ")");
}

int64_t
Layout::replication() const
{
    int64_t r = 1;
    for (size_t m = 0; m < mode_shape_.size(); ++m)
        if (mode_dim_[m] < 0)
            r *= mode_shape_[m];
    return r;
}

int64_t
Layout::numThreads() const
{
    int64_t n = 1;
    for (int m : spatial_modes_)
        n *= mode_shape_[m];
    return n;
}

int64_t
Layout::localsPerThread() const
{
    int64_t n = 1;
    for (int m : local_modes_)
        n *= mode_shape_[m];
    return n;
}

int64_t
Layout::numel() const
{
    return ::tilus::product(shape_);
}

std::pair<int64_t, int64_t>
Layout::threadLocalOf(const std::vector<int64_t> &index) const
{
    TILUS_CHECK_MSG(static_cast<int>(index.size()) == rank(),
                    "index rank mismatch");
    const int num_modes = static_cast<int>(mode_shape_.size());
    // Step 1 (Figure 6): split each dimension index into its mode indices.
    // Replica modes carry no position; their digit stays 0, so the
    // holder reported is the replica-free thread.
    std::vector<int64_t> mode_index(num_modes, 0);
    std::vector<int64_t> rest = index;
    for (int m = num_modes - 1; m >= 0; --m) {
        const int d = mode_dim_[m];
        if (d < 0)
            continue;
        mode_index[m] = rest[d] % mode_shape_[m];
        rest[d] /= mode_shape_[m];
    }
    for (int d = rank() - 1; d >= 0; --d)
        TILUS_CHECK_MSG(rest[d] == 0, "index out of range in dim " << d);
    // Steps 2+3: distribute mode indices, then ravel each group.
    int64_t thread = 0;
    for (int m : spatial_modes_)
        thread = thread * mode_shape_[m] + mode_index[m];
    int64_t local = 0;
    for (int m : local_modes_)
        local = local * mode_shape_[m] + mode_index[m];
    return {thread, local};
}

std::vector<int64_t>
Layout::logicalIndexOf(int64_t thread, int64_t local) const
{
    const int num_modes = static_cast<int>(mode_shape_.size());
    std::vector<int64_t> mode_index(num_modes, 0);
    for (int k = static_cast<int>(spatial_modes_.size()) - 1; k >= 0; --k) {
        int m = spatial_modes_[k];
        mode_index[m] = thread % mode_shape_[m];
        thread /= mode_shape_[m];
    }
    TILUS_CHECK_MSG(thread == 0, "thread index out of range");
    for (int k = static_cast<int>(local_modes_.size()) - 1; k >= 0; --k) {
        int m = local_modes_[k];
        mode_index[m] = local % mode_shape_[m];
        local /= mode_shape_[m];
    }
    TILUS_CHECK_MSG(local == 0, "local index out of range");
    std::vector<int64_t> index(rank(), 0);
    for (int m = 0; m < num_modes; ++m) {
        if (mode_dim_[m] < 0)
            continue; // replica modes carry no logical position
        index[mode_dim_[m]] = index[mode_dim_[m]] * mode_shape_[m] +
                              mode_index[m];
    }
    return index;
}

std::vector<int64_t>
Layout::positionWeights(const std::vector<int64_t> &strides) const
{
    TILUS_CHECK_MSG(static_cast<int>(strides.size()) == rank(),
                    "stride rank mismatch");
    // Within a dimension, later modes are less significant (the Horner
    // order of logicalIndexOf).
    std::vector<int64_t> weight(mode_shape_.size(), 0);
    std::vector<int64_t> place(rank(), 1);
    for (int m = static_cast<int>(mode_shape_.size()) - 1; m >= 0; --m) {
        const int d = mode_dim_[m];
        if (d < 0)
            continue;
        weight[m] = place[d] * strides[d];
        place[d] *= mode_shape_[m];
    }
    return weight;
}

std::vector<int64_t>
Layout::threadOffsets(const std::vector<int64_t> &strides) const
{
    return ravelTable(mode_shape_, spatial_modes_, positionWeights(strides));
}

std::vector<int64_t>
Layout::localOffsets(const std::vector<int64_t> &strides) const
{
    return ravelTable(mode_shape_, local_modes_, positionWeights(strides));
}

std::vector<int64_t>
Layout::replicaFreeThreads() const
{
    std::vector<int64_t> weight(mode_shape_.size(), 0);
    int64_t place = 1;
    for (int k = static_cast<int>(spatial_modes_.size()) - 1; k >= 0; --k) {
        const int m = spatial_modes_[k];
        if (mode_dim_[m] >= 0)
            weight[m] = place;
        place *= mode_shape_[m];
    }
    return ravelTable(mode_shape_, spatial_modes_, weight);
}

Layout
Layout::product(const Layout &other) const
{
    TILUS_FATAL_IF(rank() != other.rank(),
                   "layout product requires equal rank: "
                       << rank() << " vs " << other.rank());
    const Layout &f = *this;
    const Layout &g = other;
    const int r = rank();

    std::vector<int64_t> shape(r);
    for (int d = 0; d < r; ++d)
        shape[d] = f.shape_[d] * g.shape_[d];

    // New mode list: per dimension, f's modes followed by g's modes.
    std::vector<int64_t> mode_shape;
    std::vector<int> mode_dim;
    std::vector<int> f_new_index(f.mode_shape_.size());
    std::vector<int> g_new_index(g.mode_shape_.size());
    for (int d = 0; d < r; ++d) {
        for (size_t m = 0; m < f.mode_shape_.size(); ++m) {
            if (f.mode_dim_[m] == d) {
                f_new_index[m] = static_cast<int>(mode_shape.size());
                mode_shape.push_back(f.mode_shape_[m]);
                mode_dim.push_back(d);
            }
        }
        for (size_t m = 0; m < g.mode_shape_.size(); ++m) {
            if (g.mode_dim_[m] == d) {
                g_new_index[m] = static_cast<int>(mode_shape.size());
                mode_shape.push_back(g.mode_shape_[m]);
                mode_dim.push_back(d);
            }
        }
    }
    // Replica modes belong to no dimension; append them after all dims.
    for (size_t m = 0; m < f.mode_shape_.size(); ++m) {
        if (f.mode_dim_[m] < 0) {
            f_new_index[m] = static_cast<int>(mode_shape.size());
            mode_shape.push_back(f.mode_shape_[m]);
            mode_dim.push_back(-1);
        }
    }
    for (size_t m = 0; m < g.mode_shape_.size(); ++m) {
        if (g.mode_dim_[m] < 0) {
            g_new_index[m] = static_cast<int>(mode_shape.size());
            mode_shape.push_back(g.mode_shape_[m]);
            mode_dim.push_back(-1);
        }
    }

    // thread = f_thread * T_g + g_thread: f's spatial modes are the
    // most-significant part of the raveled thread index; same for locals.
    std::vector<int> spatial_modes, local_modes;
    for (int m : f.spatial_modes_)
        spatial_modes.push_back(f_new_index[m]);
    for (int m : g.spatial_modes_)
        spatial_modes.push_back(g_new_index[m]);
    for (int m : f.local_modes_)
        local_modes.push_back(f_new_index[m]);
    for (int m : g.local_modes_)
        local_modes.push_back(g_new_index[m]);

    std::string label;
    if (!f.label_.empty() && !g.label_.empty())
        label = f.label_ + "." + g.label_;

    return make(std::move(shape), std::move(mode_shape), std::move(mode_dim),
                std::move(spatial_modes), std::move(local_modes),
                std::move(label));
}

Layout
Layout::canonicalized() const
{
    std::vector<int64_t> mode_shape = mode_shape_;
    std::vector<int> mode_dim = mode_dim_;
    std::vector<int> spatial = spatial_modes_;
    std::vector<int> local = local_modes_;

    auto remove_mode = [&](int victim) {
        mode_shape.erase(mode_shape.begin() + victim);
        mode_dim.erase(mode_dim.begin() + victim);
        auto drop = [&](std::vector<int> &order) {
            order.erase(std::remove(order.begin(), order.end(), victim),
                        order.end());
            for (int &m : order)
                if (m > victim)
                    --m;
        };
        drop(spatial);
        drop(local);
    };

    bool changed = true;
    while (changed) {
        changed = false;
        // Drop unit modes.
        for (size_t m = 0; m < mode_shape.size(); ++m) {
            if (mode_shape[m] == 1) {
                remove_mode(static_cast<int>(m));
                changed = true;
                break;
            }
        }
        if (changed)
            continue;
        // Merge mode pairs adjacent in both the dimension split and one of
        // the order lists: (a, a+1) of the same dim with a+1 directly after
        // a in the spatial or local order represents a single sub-dim.
        auto try_merge = [&](std::vector<int> &order) {
            for (size_t k = 0; k + 1 < order.size(); ++k) {
                int a = order[k], b = order[k + 1];
                bool both_replica = mode_dim[a] < 0 && mode_dim[b] < 0;
                bool same_subdim = b == a + 1 && mode_dim[a] == mode_dim[b];
                if (both_replica || same_subdim) {
                    mode_shape[a] *= mode_shape[b];
                    remove_mode(b);
                    return true;
                }
            }
            return false;
        };
        if (try_merge(spatial) || try_merge(local)) {
            changed = true;
        }
    }
    return make(shape_, std::move(mode_shape), std::move(mode_dim),
                std::move(spatial), std::move(local), label_);
}

bool
Layout::equivalent(const Layout &other) const
{
    if (shape_ != other.shape_)
        return false;
    if (numThreads() != other.numThreads() ||
        localsPerThread() != other.localsPerThread())
        return false;
    // Fast path: canonical structural equality implies equivalence.
    if (*this == other)
        return true;
    const int64_t threads = numThreads();
    const int64_t locals = localsPerThread();
    for (int64_t t = 0; t < threads; ++t)
        for (int64_t i = 0; i < locals; ++i)
            if (logicalIndexOf(t, i) != other.logicalIndexOf(t, i))
                return false;
    return true;
}

bool
Layout::operator==(const Layout &other) const
{
    Layout a = canonicalized();
    Layout b = other.canonicalized();
    return a.shape_ == b.shape_ && a.mode_shape_ == b.mode_shape_ &&
           a.mode_dim_ == b.mode_dim_ && a.spatial_modes_ == b.spatial_modes_ &&
           a.local_modes_ == b.local_modes_;
}

namespace {

/** A fragment of an original mode produced during division matching. */
struct Part
{
    int64_t size;
    int consumer; ///< index into divisor's mode list, or -1 if free
};

} // namespace

std::optional<Layout>
Layout::dividedBy(const Layout &other) const
{
    if (rank() != other.rank())
        return std::nullopt;
    Layout h = canonicalized();
    Layout g = other.canonicalized();
    if (g.replication() != 1)
        return std::nullopt; // divisors (hardware atoms) are bijective
    const int r = rank();
    for (int d = 0; d < r; ++d) {
        if (g.shape_[d] == 0 || h.shape_[d] % g.shape_[d] != 0)
            return std::nullopt;
    }

    const int h_modes = static_cast<int>(h.mode_shape_.size());
    // Parts of each h mode, most-significant first.
    std::vector<std::vector<Part>> parts(h_modes);
    // Replica modes of h are never matched by g; they stay free.
    for (int m = 0; m < h_modes; ++m) {
        if (h.mode_dim_[m] < 0)
            parts[m] = {Part{h.mode_shape_[m], -1}};
    }

    // Per dimension: match g's modes against the suffix of h's modes,
    // splitting h modes where needed.
    for (int d = 0; d < r; ++d) {
        std::vector<int> h_list, g_list;
        for (int m = 0; m < h_modes; ++m)
            if (h.mode_dim_[m] == d)
                h_list.push_back(m);
        for (size_t m = 0; m < g.mode_shape_.size(); ++m)
            if (g.mode_dim_[m] == d)
                g_list.push_back(static_cast<int>(m));

        std::vector<int64_t> h_remaining;
        for (int m : h_list)
            h_remaining.push_back(h.mode_shape_[m]);

        int i = static_cast<int>(h_list.size()) - 1;
        int j = static_cast<int>(g_list.size()) - 1;
        while (j >= 0) {
            if (i < 0)
                return std::nullopt;
            int64_t hsz = h_remaining[i];
            int64_t gsz = g.mode_shape_[g_list[j]];
            if (hsz == gsz) {
                parts[h_list[i]].insert(parts[h_list[i]].begin(),
                                        Part{gsz, g_list[j]});
                h_remaining[i] = 1;
                --i;
                --j;
            } else if (hsz > gsz && hsz % gsz == 0) {
                parts[h_list[i]].insert(parts[h_list[i]].begin(),
                                        Part{gsz, g_list[j]});
                h_remaining[i] = hsz / gsz;
                --j;
            } else {
                return std::nullopt;
            }
        }
        // Prepend any unconsumed remainder as a free part.
        for (size_t k = 0; k < h_list.size(); ++k) {
            int m = h_list[k];
            if (h_remaining[k] > 1 || parts[m].empty()) {
                parts[m].insert(parts[m].begin(), Part{h_remaining[k], -1});
            }
        }
    }

    // Expand the order lists over parts and check that the consumed parts
    // form exactly the suffix, in the divisor's order.
    auto check_order = [&](const std::vector<int> &h_order,
                           const std::vector<int> &g_order,
                           std::vector<Part> &free_prefix) -> bool {
        std::vector<Part> expanded;
        for (int m : h_order)
            for (const Part &p : parts[m])
                expanded.push_back(p);
        size_t want = g_order.size();
        if (expanded.size() < want)
            return false;
        size_t prefix_len = expanded.size() - want;
        for (size_t k = 0; k < prefix_len; ++k) {
            if (expanded[k].consumer != -1)
                return false;
            free_prefix.push_back(expanded[k]);
        }
        for (size_t k = 0; k < want; ++k) {
            if (expanded[prefix_len + k].consumer != g_order[k])
                return false;
        }
        return true;
    };

    // Identify free parts in per-dim order to build the quotient's modes.
    // Assign each free part an id keyed by its address within `parts`.
    std::vector<int64_t> f_mode_shape;
    std::vector<int> f_mode_dim;
    std::vector<std::vector<int>> part_id(h_modes);
    auto assign_part_ids = [&](int m, int d) {
        part_id[m].assign(parts[m].size(), -1);
        for (size_t k = 0; k < parts[m].size(); ++k) {
            if (parts[m][k].consumer == -1) {
                part_id[m][k] = static_cast<int>(f_mode_shape.size());
                f_mode_shape.push_back(parts[m][k].size);
                f_mode_dim.push_back(d);
            }
        }
    };
    for (int d = 0; d < r; ++d)
        for (int m = 0; m < h_modes; ++m)
            if (h.mode_dim_[m] == d)
                assign_part_ids(m, d);
    for (int m = 0; m < h_modes; ++m)
        if (h.mode_dim_[m] < 0)
            assign_part_ids(m, -1);

    auto build_order = [&](const std::vector<int> &h_order,
                           const std::vector<int> &g_order,
                           std::vector<int> &f_order) -> bool {
        std::vector<Part> free_prefix;
        if (!check_order(h_order, g_order, free_prefix))
            return false;
        // Re-walk to map free parts (prefix) to quotient mode ids.
        size_t emitted = 0;
        for (int m : h_order) {
            for (size_t k = 0; k < parts[m].size(); ++k) {
                if (emitted >= free_prefix.size())
                    return true;
                if (parts[m][k].consumer == -1) {
                    f_order.push_back(part_id[m][k]);
                } else {
                    return false; // consumed part inside the free prefix
                }
                ++emitted;
            }
        }
        return true;
    };

    std::vector<int> f_spatial, f_local;
    if (!build_order(h.spatial_modes_, g.spatial_modes_, f_spatial))
        return std::nullopt;
    if (!build_order(h.local_modes_, g.local_modes_, f_local))
        return std::nullopt;

    std::vector<int64_t> f_shape(r);
    for (int d = 0; d < r; ++d)
        f_shape[d] = h.shape_[d] / g.shape_[d];
    return make(std::move(f_shape), std::move(f_mode_shape),
                std::move(f_mode_dim), std::move(f_spatial),
                std::move(f_local))
        .canonicalized();
}

bool
Layout::divisibleBy(const Layout &other) const
{
    return dividedBy(other).has_value();
}

std::string
Layout::toString() const
{
    if (!label_.empty())
        return label_;
    return unifiedString();
}

std::string
Layout::unifiedString() const
{
    std::ostringstream oss;
    oss << "Layout(shape=" << tilus::toString(shape_)
        << ", mode_shape=" << tilus::toString(mode_shape_)
        << ", spatial_modes=" << tilus::toString(spatial_modes_)
        << ", local_modes=" << tilus::toString(local_modes_) << ")";
    return oss.str();
}

} // namespace tilus
