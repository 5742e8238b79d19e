/**
 * @file
 * Tests for the algebraic layout system (paper Sections 4 and 5): the
 * primitive layouts and worked examples of Figures 3-6, Kronecker-product
 * algebra (associativity, non-commutativity, closure), division, the
 * unified representation, canonicalization, replication, and the hardware
 * atom layouts used by instruction selection.
 */
#include <set>

#include <gtest/gtest.h>

#include "layout/atoms.h"
#include "layout/layout.h"
#include "support/error.h"
#include "support/rng.h"

namespace tilus {
namespace {

TEST(LayoutPrimitive, LocalMatchesFigure4)
{
    Layout l = local(2, 3);
    EXPECT_EQ(l.numThreads(), 1);
    EXPECT_EQ(l.localsPerThread(), 6);
    // f(t, i) = (i / 3, i % 3)
    for (int64_t i = 0; i < 6; ++i) {
        auto idx = l.logicalIndexOf(0, i);
        EXPECT_EQ(idx[0], i / 3);
        EXPECT_EQ(idx[1], i % 3);
    }
}

TEST(LayoutPrimitive, SpatialMatchesFigure4)
{
    Layout s = spatial(2, 3);
    EXPECT_EQ(s.numThreads(), 6);
    EXPECT_EQ(s.localsPerThread(), 1);
    // f(t, i) = (t / 3, t % 3)
    for (int64_t t = 0; t < 6; ++t) {
        auto idx = s.logicalIndexOf(t, 0);
        EXPECT_EQ(idx[0], t / 3);
        EXPECT_EQ(idx[1], t % 3);
    }
}

TEST(LayoutPrimitive, ColumnVariantsReverseOrder)
{
    Layout cl = columnLocal(2, 2);
    // Column-major local: i -> (i % 2, i / 2).
    EXPECT_EQ(cl.logicalIndexOf(0, 0), (std::vector<int64_t>{0, 0}));
    EXPECT_EQ(cl.logicalIndexOf(0, 1), (std::vector<int64_t>{1, 0}));
    EXPECT_EQ(cl.logicalIndexOf(0, 2), (std::vector<int64_t>{0, 1}));
    EXPECT_EQ(cl.logicalIndexOf(0, 3), (std::vector<int64_t>{1, 1}));

    Layout cs = columnSpatial(4, 8);
    for (int64_t t = 0; t < 32; ++t) {
        auto idx = cs.logicalIndexOf(t, 0);
        EXPECT_EQ(idx[0], t % 4);
        EXPECT_EQ(idx[1], t / 4);
    }
}

TEST(LayoutPrimitive, PaperExampleColumnLocalIsProductOfLocals)
{
    // Figure 5 (e): local(1,2).local(2,1) == column_local(2,2).
    Layout e = local(1, 2) * local(2, 1);
    EXPECT_TRUE(e.equivalent(columnLocal(2, 2)));
    EXPECT_TRUE(e == columnLocal(2, 2));
}

TEST(LayoutProduct, Figure5LayoutC)
{
    // c = local(2,1).spatial(2,3).local(1,2), shape (4, 6).
    Layout a = local(2, 1);
    Layout b = spatial(2, 3) * local(1, 2);
    Layout c = a * b;
    EXPECT_EQ(c.shape(), (std::vector<int64_t>{4, 6}));
    EXPECT_EQ(c.numThreads(), 6);
    EXPECT_EQ(c.localsPerThread(), 4);
    // c(t, i) = a(t/6, i/2) * (2, 6) + b(t%6, i%2)
    for (int64_t t = 0; t < 6; ++t) {
        for (int64_t i = 0; i < 4; ++i) {
            auto idx = c.logicalIndexOf(t, i);
            auto ai = a.logicalIndexOf(t / 6, i / 2);
            auto bi = b.logicalIndexOf(t % 6, i % 2);
            EXPECT_EQ(idx[0], ai[0] * 2 + bi[0]);
            EXPECT_EQ(idx[1], ai[1] * 6 + bi[1]);
        }
    }
}

TEST(LayoutProduct, Figure3TensorCoreLayout)
{
    // local(2,1).spatial(8,4).local(1,2): the mma C-operand layout with
    // f(t, i) = (t/4 + i/2*8, t%4*2 + i%2).
    Layout layout = local(2, 1) * spatial(8, 4) * local(1, 2);
    EXPECT_EQ(layout.shape(), (std::vector<int64_t>{16, 8}));
    EXPECT_EQ(layout.numThreads(), 32);
    EXPECT_EQ(layout.localsPerThread(), 4);
    for (int64_t t = 0; t < 32; ++t) {
        for (int64_t i = 0; i < 4; ++i) {
            auto idx = layout.logicalIndexOf(t, i);
            EXPECT_EQ(idx[0], t / 4 + (i / 2) * 8);
            EXPECT_EQ(idx[1], (t % 4) * 2 + i % 2);
        }
    }
}

TEST(LayoutProduct, ProductIsAssociative)
{
    Rng rng(42);
    auto random_primitive = [&]() {
        int64_t n1 = rng.nextRange(1, 3);
        int64_t n2 = rng.nextRange(1, 3);
        switch (rng.nextBelow(4)) {
          case 0: return local(n1, n2);
          case 1: return spatial(n1, n2);
          case 2: return columnLocal(n1, n2);
          default: return columnSpatial(n1, n2);
        }
    };
    for (int trial = 0; trial < 50; ++trial) {
        Layout f = random_primitive();
        Layout g = random_primitive();
        Layout h = random_primitive();
        Layout left = (f * g) * h;
        Layout right = f * (g * h);
        ASSERT_TRUE(left.equivalent(right))
            << left.toString() << " vs " << right.toString();
        ASSERT_TRUE(left == right);
    }
}

TEST(LayoutProduct, ProductIsNotCommutative)
{
    Layout f = local(2, 1);
    Layout g = spatial(2, 3);
    EXPECT_FALSE((f * g).equivalent(g * f));
}

TEST(LayoutProduct, ShapesMultiplyElementwise)
{
    Layout p = spatial(2, 4) * local(3, 5);
    EXPECT_EQ(p.shape(), (std::vector<int64_t>{6, 20}));
    EXPECT_EQ(p.numThreads(), 8);
    EXPECT_EQ(p.localsPerThread(), 15);
}

TEST(LayoutForwardInverse, BijectionOnRandomProducts)
{
    Rng rng(7);
    for (int trial = 0; trial < 30; ++trial) {
        Layout layout = spatial(rng.nextRange(1, 4), rng.nextRange(1, 4));
        for (int k = 0; k < 2; ++k) {
            switch (rng.nextBelow(4)) {
              case 0:
                layout = layout * local(rng.nextRange(1, 3),
                                        rng.nextRange(1, 3));
                break;
              case 1:
                layout = layout * spatial(rng.nextRange(1, 3),
                                          rng.nextRange(1, 3));
                break;
              case 2:
                layout = layout * columnLocal(rng.nextRange(1, 3),
                                              rng.nextRange(1, 3));
                break;
              default:
                layout = layout * columnSpatial(rng.nextRange(1, 3),
                                                rng.nextRange(1, 3));
                break;
            }
        }
        // Every (t, i) maps to a unique logical index and back.
        std::set<std::vector<int64_t>> seen;
        for (int64_t t = 0; t < layout.numThreads(); ++t) {
            for (int64_t i = 0; i < layout.localsPerThread(); ++i) {
                auto idx = layout.logicalIndexOf(t, i);
                ASSERT_TRUE(seen.insert(idx).second)
                    << "duplicate logical index in " << layout.toString();
                auto [t2, i2] = layout.threadLocalOf(idx);
                ASSERT_EQ(t2, t);
                ASSERT_EQ(i2, i);
            }
        }
        ASSERT_EQ(static_cast<int64_t>(seen.size()), layout.numel());
    }
}

TEST(LayoutUnified, Figure6Example)
{
    // Layout(shape=[64,64], mode_shape=[4,2,8,8,4,2], spatial_modes=[2,4],
    //        local_modes=[0,3,1,5])
    Layout layout = Layout::make({64, 64}, {4, 2, 8, 8, 4, 2},
                                 {0, 0, 0, 1, 1, 1}, {2, 4}, {0, 3, 1, 5});
    EXPECT_EQ(layout.numThreads(), 32);
    EXPECT_EQ(layout.localsPerThread(), 128);
    // Follow the figure's three steps for a sample logical index [i, j]:
    // i0,i1,i2 = unravel(i, [4,2,8]); j0,j1,j2 = unravel(j, [8,4,2]);
    // thread = ravel([i2, j1], [8, 4]); local = ravel([i0,j0,i1,j2], ...).
    for (int64_t i : {0, 1, 7, 13, 63}) {
        for (int64_t j : {0, 2, 9, 33, 63}) {
            int64_t i0 = i / 16, i1 = (i / 8) % 2, i2 = i % 8;
            int64_t j0 = j / 8, j1 = (j / 2) % 4, j2 = j % 2;
            int64_t thread = i2 * 4 + j1;
            int64_t local_index = ((i0 * 8 + j0) * 2 + i1) * 2 + j2;
            auto [t, l] = layout.threadLocalOf({i, j});
            EXPECT_EQ(t, thread) << "i=" << i << " j=" << j;
            EXPECT_EQ(l, local_index) << "i=" << i << " j=" << j;
        }
    }
}

TEST(LayoutUnified, ClosureUnderProduct)
{
    // The product of unified layouts is again a unified layout with
    // consistent attributes; verified by validating + round-tripping.
    Layout f = Layout::make({4, 2}, {2, 2, 2}, {0, 0, 1}, {0}, {1, 2});
    Layout g = spatial(2, 2);
    Layout h = f * g;
    EXPECT_EQ(h.shape(), (std::vector<int64_t>{8, 4}));
    for (int64_t t = 0; t < h.numThreads(); ++t)
        for (int64_t i = 0; i < h.localsPerThread(); ++i)
            (void)h.logicalIndexOf(t, i);
}

TEST(LayoutDivision, PaperExampleLocalDivision)
{
    // Section 4.2: local(2,4) / local(1,2) = local(2,2).
    auto quotient = local(2, 4).dividedBy(local(1, 2));
    ASSERT_TRUE(quotient.has_value());
    EXPECT_TRUE(*quotient == local(2, 2));
}

TEST(LayoutDivision, ProductThenDivideRecoversFactor)
{
    Rng rng(11);
    auto random_primitive = [&]() {
        int64_t n1 = rng.nextRange(1, 3);
        int64_t n2 = rng.nextRange(1, 4);
        switch (rng.nextBelow(3)) {
          case 0: return local(n1, n2);
          case 1: return spatial(n1, n2);
          default: return columnSpatial(n1, n2);
        }
    };
    for (int trial = 0; trial < 60; ++trial) {
        Layout f = random_primitive() * random_primitive();
        Layout g = random_primitive();
        Layout h = f * g;
        auto quotient = h.dividedBy(g);
        ASSERT_TRUE(quotient.has_value())
            << "h=" << h.unifiedString() << " g=" << g.unifiedString();
        ASSERT_TRUE(quotient->equivalent(f.canonicalized()))
            << "trial " << trial << ": quotient "
            << quotient->unifiedString() << " expected "
            << f.unifiedString();
    }
}

TEST(LayoutDivision, DivisionVerifiesFunctionally)
{
    // When h = f*g, the defining identity of the Kronecker product holds:
    // h(t, i) = f(t/Tg, i/Ng) * Sg + g(t%Tg, i%Ng).
    Layout f = local(2, 1) * spatial(2, 2);
    Layout g = spatial(2, 1) * local(1, 2);
    Layout h = f * g;
    const int64_t tg = g.numThreads(), ng = g.localsPerThread();
    for (int64_t t = 0; t < h.numThreads(); ++t) {
        for (int64_t i = 0; i < h.localsPerThread(); ++i) {
            auto hi = h.logicalIndexOf(t, i);
            auto fi = f.logicalIndexOf(t / tg, i / ng);
            auto gi = g.logicalIndexOf(t % tg, i % ng);
            for (int d = 0; d < 2; ++d)
                ASSERT_EQ(hi[d], fi[d] * g.shape()[d] + gi[d]);
        }
    }
}

TEST(LayoutDivision, IndivisibleCases)
{
    EXPECT_FALSE(local(2, 3).divisibleBy(local(2, 2)));
    EXPECT_FALSE(spatial(4, 4).divisibleBy(local(2, 2)));
    EXPECT_FALSE(local(4, 4).divisibleBy(spatial(2, 2)));
    // Order mismatch: row-major cannot be divided by column-major tail.
    EXPECT_FALSE(spatial(4, 4).divisibleBy(columnSpatial(2, 2)));
}

TEST(LayoutDivision, SplitsLargeModes)
{
    // spatial(8, 1) = spatial(4, 1) (x) spatial(2, 1): needs splitting.
    auto q = spatial(8, 1).dividedBy(spatial(2, 1));
    ASSERT_TRUE(q.has_value());
    EXPECT_TRUE(*q == spatial(4, 1));
}

TEST(LayoutCanonical, UnitModesVanish)
{
    Layout a = local(2, 1) * local(1, 2);
    EXPECT_TRUE(a == local(2, 2));
    Layout b = spatial(1, 1) * spatial(2, 2);
    EXPECT_TRUE(b == spatial(2, 2));
}

TEST(LayoutCanonical, AdjacentModesMerge)
{
    // Same-dimension sub-modes adjacent in the order list fuse.
    Layout a = local(2, 2) * local(1, 2);
    EXPECT_TRUE(a == local(2, 4));
    Layout b = spatial(2, 1) * spatial(2, 1) * spatial(2, 1);
    EXPECT_TRUE(b == spatial(8, 1));
    // Interleaved products do NOT collapse: local(2,2)^2 mixes bits of the
    // two dimensions and differs from local(4,4).
    Layout c = local(2, 2) * local(2, 2);
    EXPECT_FALSE(c.equivalent(local(4, 4)));
}

TEST(LayoutCanonical, CanonicalizationPreservesFunction)
{
    Layout layout = local(2, 1) * spatial(8, 4) * local(1, 2);
    EXPECT_TRUE(layout.equivalent(layout.canonicalized()));
}

TEST(LayoutReplica, BasicReplication)
{
    Layout r = spatial(1, 8) * replicaSpatial(2, 4);
    EXPECT_EQ(r.numThreads(), 32);
    EXPECT_EQ(r.replication(), 4);
    EXPECT_EQ(r.localsPerThread(), 1);
    EXPECT_FALSE(r.isBijective());
    // Threads t and t^1 (same n, different replica) hold the same element.
    for (int64_t t = 0; t < 32; ++t) {
        auto idx = r.logicalIndexOf(t, 0);
        EXPECT_EQ(idx[0], 0);
        EXPECT_EQ(idx[1], t / 4);
    }
}

TEST(LayoutReplica, LocalSlotLookup)
{
    Layout r = spatial(1, 8) * replicaSpatial(2, 4) * local(1, 2);
    EXPECT_EQ(r.localsPerThread(), 2);
    // Thread 5 -> n = 5/4 = 1; holds columns 2 and 3, as does its
    // replica-free form, thread 4, which threadLocalOf names as holder.
    const std::vector<int64_t> holder = r.replicaFreeThreads();
    EXPECT_EQ(holder[5], 4);
    using Placement = std::pair<int64_t, int64_t>;
    EXPECT_EQ(r.threadLocalOf({0, 2}), Placement(4, 0));
    EXPECT_EQ(r.threadLocalOf({0, 3}), Placement(4, 1));
    EXPECT_NE(r.threadLocalOf({0, 4}).first, holder[5]);
}

TEST(LayoutReplica, ReplicaProductThreadsMultiply)
{
    // Warp-level GEMM sharing: 2 warps along M, each A fragment shared by
    // 2 N-warps via replication.
    Layout a_layout = spatial(2, 1) * replicaSpatial(2, 2) *
                      (local(2, 1) * spatial(8, 4) * local(1, 2));
    EXPECT_EQ(a_layout.numThreads(), 2 * 2 * 32);
    EXPECT_EQ(a_layout.replication(), 2);
    EXPECT_EQ(a_layout.shape(), (std::vector<int64_t>{32, 8}));
}

TEST(LayoutAtoms, MmaFragmentShapes)
{
    EXPECT_EQ(atoms::mmaM16N8K16A().shape(),
              (std::vector<int64_t>{16, 16}));
    EXPECT_EQ(atoms::mmaM16N8K16B().shape(), (std::vector<int64_t>{16, 8}));
    EXPECT_EQ(atoms::mmaM16N8K16C().shape(), (std::vector<int64_t>{16, 8}));
    for (const Layout &l :
         {atoms::mmaM16N8K16A(), atoms::mmaM16N8K16B(),
          atoms::mmaM16N8K16C(), atoms::mmaM16N8K8A(),
          atoms::mmaM16N8K8B(), atoms::mmaM16N8K8C()}) {
        EXPECT_EQ(l.numThreads(), 32) << l.toString();
        EXPECT_EQ(l.numel() / 32, l.localsPerThread()) << l.toString();
    }
}

TEST(LayoutAtoms, TiledOperandsDivideByAtoms)
{
    // A 32x16 accumulator tiled as 2x2 fragments of the C atom.
    Layout acc = local(2, 2) * atoms::mmaM16N8K16C();
    auto quotient = acc.dividedBy(atoms::mmaM16N8K16C());
    ASSERT_TRUE(quotient.has_value());
    EXPECT_TRUE(*quotient == local(2, 2));
    // ldmatrix eligibility from the paper: divisible by
    // spatial(8,4).repeat(1,4).
    Layout reg = local(2, 1) * atoms::ldmatrixAtom();
    EXPECT_TRUE(reg.divisibleBy(atoms::ldmatrixAtom()));
    EXPECT_FALSE(spatial(4, 8).divisibleBy(atoms::ldmatrixAtom()));
}

TEST(LayoutAtoms, PaperWeightLoadingReinterpretation)
{
    // Figure 2(c): u8[96] tensor with local(3).spatial(32) holds 24 bits
    // per thread; i6[16,8] with local(2,1).column_spatial(4,8).local(2,1)
    // also holds 24 bits per thread across the same 32 threads.
    Layout u8_layout = local(3) * spatial(32);
    Layout i6_layout = local(2, 1) * columnSpatial(4, 8) * local(2, 1);
    EXPECT_EQ(u8_layout.numThreads(), 32);
    EXPECT_EQ(i6_layout.numThreads(), 32);
    EXPECT_EQ(u8_layout.localsPerThread() * 8, 24);
    EXPECT_EQ(i6_layout.localsPerThread() * 6, 24);
}

TEST(LayoutString, LabelsShowProvenance)
{
    Layout layout = local(2, 1) * spatial(8, 4) * local(1, 2);
    EXPECT_EQ(layout.toString(), "local(2, 1).spatial(8, 4).local(1, 2)");
    EXPECT_EQ(columnLocal(2, 2).toString(), "column_local(2, 2)");
}

TEST(LayoutValidation, RejectsIllFormedAttributes)
{
    // Mode product does not match the shape.
    EXPECT_THROW(Layout::make({4}, {2}, {0}, {0}, {}), PanicError);
    // Mode assigned twice.
    EXPECT_THROW(Layout::make({2}, {2}, {0}, {0}, {0}), PanicError);
    // Mode unassigned.
    EXPECT_THROW(Layout::make({4}, {2, 2}, {0, 0}, {0}, {}), PanicError);
}

} // namespace
} // namespace tilus
