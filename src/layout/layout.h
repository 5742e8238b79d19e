/**
 * @file
 * The algebraic layout system of Tilus (paper Sections 4 and 5).
 *
 * A layout describes how the elements of a register tile are distributed
 * across the threads of a thread block: it is a function f(t, i) mapping a
 * thread index t and a thread-local element index i to the logical index of
 * the tile element held there.
 *
 * Layouts use the unified representation of Section 5: each tile dimension
 * is split into sub-dimensions ("modes"); each mode is assigned either to
 * the spatial (thread) axis or to the local (per-thread storage) axis; the
 * ravel order of the spatial and local mode lists fixes the function.
 *
 * The two primitive layouts are local(n1,...,nk) — all elements in one
 * thread — and spatial(n1,...,nk) — one element per thread (Section 4.1).
 * Complex layouts are built with the Kronecker product (Section 4.2),
 * written here as operator*:
 *
 *     auto mma_c = local(2, 1) * spatial(8, 4) * local(1, 2);
 *
 * The product is associative but not commutative, and unified-representation
 * layouts are closed under it. Division (the inverse of the product) is used
 * by instruction selection to test whether a layout can be tiled by a
 * hardware atom (e.g. ldmatrix, mma fragments).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tilus {

/** A distributed register-tile layout in the unified representation. */
class Layout
{
  public:
    /** The empty (rank-0, single-thread, single-element) layout. */
    Layout() = default;

    /**
     * Construct from the unified representation.
     *
     * @param shape          logical tile shape
     * @param mode_shape     concatenated sub-dimension sizes, dimension by
     *                       dimension (most-significant sub-dim first)
     * @param mode_dim       owning dimension of each mode (non-decreasing)
     * @param spatial_modes  mode indices raveled into the thread index
     *                       (most-significant first)
     * @param local_modes    mode indices raveled into the local index
     */
    static Layout make(std::vector<int64_t> shape,
                       std::vector<int64_t> mode_shape,
                       std::vector<int> mode_dim,
                       std::vector<int> spatial_modes,
                       std::vector<int> local_modes,
                       std::string label = "");

    /// @name Primitive layouts (Section 4.1).
    /// @{
    /** All shape elements stored in a single thread, row-major order. */
    static Layout makeLocal(const std::vector<int64_t> &shape);
    /** One element per thread, threads in row-major order. */
    static Layout makeSpatial(const std::vector<int64_t> &shape);
    /** Column-major counterpart of makeLocal. */
    static Layout makeColumnLocal(const std::vector<int64_t> &shape);
    /** Column-major counterpart of makeSpatial. */
    static Layout makeColumnSpatial(const std::vector<int64_t> &shape);

    /**
     * Replicated-thread layout: @p copies threads all hold the same data.
     * A replica mode contributes to the thread index but to no logical
     * dimension (mode_dim == -1); it is the stride-0 concept needed for
     * multi-warp operand sharing and sub-channel scale broadcast. The
     * resulting layout has shape all-ones of the given rank.
     */
    static Layout makeReplica(int rank, int64_t copies);
    /// @}

    /// @name Unified representation accessors (Section 5).
    /// @{
    const std::vector<int64_t> &shape() const { return shape_; }
    const std::vector<int64_t> &modeShape() const { return mode_shape_; }
    const std::vector<int> &modeDim() const { return mode_dim_; }
    const std::vector<int> &spatialModes() const { return spatial_modes_; }
    const std::vector<int> &localModes() const { return local_modes_; }
    /** Provenance label ("" when built directly from make); display
        only, but serialized so a cached kernel prints identically. */
    const std::string &label() const { return label_; }
    /// @}

    int rank() const { return static_cast<int>(shape_.size()); }

    /** Replication factor: how many threads hold each element (>= 1). */
    int64_t replication() const;

    /** True when the layout has no replica modes. */
    bool isBijective() const { return replication() == 1; }

    /** Number of threads the tile is distributed over. */
    int64_t numThreads() const;

    /** Number of elements stored by each thread. */
    int64_t localsPerThread() const;

    /** Total number of tile elements. */
    int64_t numel() const;

    /**
     * Forward map: logical index -> (thread, local).
     * Inverse of logicalIndexOf. With replica modes the thread is the
     * replica-free holder (replica digits 0); see replicaFreeThreads.
     */
    std::pair<int64_t, int64_t>
    threadLocalOf(const std::vector<int64_t> &index) const;

    /** Layout function f(t, i): logical index held by (thread, local). */
    std::vector<int64_t> logicalIndexOf(int64_t thread, int64_t local) const;

    /**
     * Flat offset tables of the layout function. A logical index is a
     * sum of mode-digit contributions, and every mode belongs to the
     * thread or to the local index, so for any per-dimension strides s
     *
     *     dot(f(t, i), s) == threadOffsets(s)[t] + localOffsets(s)[i].
     *
     * Replica modes contribute nothing. Checks that visit every
     * (thread, local) pair index these tables instead of calling
     * logicalIndexOf.
     */
    std::vector<int64_t>
    threadOffsets(const std::vector<int64_t> &strides) const;
    std::vector<int64_t>
    localOffsets(const std::vector<int64_t> &strides) const;

    /**
     * Each thread with its replica digits zeroed: the holder that
     * threadLocalOf reports. Thread t holds element e, at local
     * threadLocalOf(e).second, iff
     * replicaFreeThreads()[t] == threadLocalOf(e).first.
     */
    std::vector<int64_t> replicaFreeThreads() const;

    /**
     * Kronecker product (Section 4.2): each element of *this becomes a tile
     * with layout @p other. Associative; not commutative.
     */
    Layout product(const Layout &other) const;

    /**
     * Division: if *this == f (x) other for some layout f, return f.
     * Returns nullopt when no such quotient exists.
     */
    std::optional<Layout> dividedBy(const Layout &other) const;

    /** True when dividedBy(@p other) succeeds. */
    bool divisibleBy(const Layout &other) const;

    /**
     * Canonical form: unit modes dropped and adjacent mergeable modes
     * fused. Canonicalization preserves the layout function.
     */
    Layout canonicalized() const;

    /**
     * Functional equivalence: same shape and identical layout function
     * (checked by enumeration over all (thread, local) pairs).
     */
    bool equivalent(const Layout &other) const;

    /** Structural equality of canonical forms. */
    bool operator==(const Layout &other) const;
    bool operator!=(const Layout &other) const { return !(*this == other); }

    /**
     * Provenance string when built from primitives/products, e.g.
     * "local(2, 1).spatial(8, 4).local(1, 2)"; falls back to the unified
     * representation.
     */
    std::string toString() const;

    /** The unified-representation string of Section 5 (Figure 6). */
    std::string unifiedString() const;

  private:
    void validate() const;
    std::vector<int64_t>
    positionWeights(const std::vector<int64_t> &strides) const;

    std::vector<int64_t> shape_;
    std::vector<int64_t> mode_shape_;
    std::vector<int> mode_dim_;
    std::vector<int> spatial_modes_;
    std::vector<int> local_modes_;
    std::string label_;
};

/** Kronecker product, paper notation f.g ("layout composition"). */
inline Layout
operator*(const Layout &a, const Layout &b)
{
    return a.product(b);
}

/// @name Variadic primitive constructors matching the paper's syntax.
/// @{
template <typename... Ints>
Layout
local(Ints... ns)
{
    return Layout::makeLocal({static_cast<int64_t>(ns)...});
}

template <typename... Ints>
Layout
spatial(Ints... ns)
{
    return Layout::makeSpatial({static_cast<int64_t>(ns)...});
}

template <typename... Ints>
Layout
columnLocal(Ints... ns)
{
    return Layout::makeColumnLocal({static_cast<int64_t>(ns)...});
}

template <typename... Ints>
Layout
columnSpatial(Ints... ns)
{
    return Layout::makeColumnSpatial({static_cast<int64_t>(ns)...});
}

/** The paper also calls local "repeat" in instruction-selection contexts. */
template <typename... Ints>
Layout
repeat(Ints... ns)
{
    return Layout::makeLocal({static_cast<int64_t>(ns)...});
}

/** Rank-@p rank layout replicating its tile over @p copies threads. */
inline Layout
replicaSpatial(int rank, int64_t copies)
{
    return Layout::makeReplica(rank, copies);
}
/// @}

} // namespace tilus
