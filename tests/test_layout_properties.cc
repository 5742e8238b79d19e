/**
 * @file
 * Property-based tests of the layout algebra over randomly generated
 * layouts, including ones built directly in the unified representation
 * (not just primitive products): forward/inverse bijection, product
 * definition identity, associativity with three random factors,
 * canonicalization soundness and idempotence, division as the inverse of
 * the product (including replicated factors on the dividend side), and
 * closure of the unified representation.
 */
#include <set>

#include <gtest/gtest.h>

#include "layout/layout.h"
#include "support/math_util.h"
#include "support/rng.h"
#include "test_helpers.h"

namespace tilus {
namespace {

using testing::randomUnified;

TEST(LayoutProperty, UnifiedForwardInverseBijection)
{
    Rng rng(101);
    for (int trial = 0; trial < 100; ++trial) {
        Layout layout = randomUnified(rng, 2);
        std::set<std::pair<int64_t, int64_t>> seen;
        for (int64_t i0 = 0; i0 < layout.shape()[0]; ++i0) {
            for (int64_t i1 = 0; i1 < layout.shape()[1]; ++i1) {
                auto [t, l] = layout.threadLocalOf({i0, i1});
                ASSERT_TRUE(seen.insert({t, l}).second)
                    << layout.unifiedString();
                auto idx = layout.logicalIndexOf(t, l);
                ASSERT_EQ(idx[0], i0);
                ASSERT_EQ(idx[1], i1);
            }
        }
    }
}

TEST(LayoutProperty, ProductDefinitionIdentity)
{
    // h = f*g must satisfy h(t, i) = f(t/Tg, i/Ng) * Sg + g(t%Tg, i%Ng)
    // for all random unified f, g.
    Rng rng(202);
    for (int trial = 0; trial < 60; ++trial) {
        Layout f = randomUnified(rng, 2);
        Layout g = randomUnified(rng, 2);
        if (!f.isBijective() || !g.isBijective())
            continue;
        Layout h = f * g;
        const int64_t tg = g.numThreads(), ng = g.localsPerThread();
        for (int64_t t = 0; t < h.numThreads(); ++t) {
            for (int64_t i = 0; i < h.localsPerThread(); ++i) {
                auto hi = h.logicalIndexOf(t, i);
                auto fi = f.logicalIndexOf(t / tg, i / ng);
                auto gi = g.logicalIndexOf(t % tg, i % ng);
                for (int d = 0; d < 2; ++d)
                    ASSERT_EQ(hi[d], fi[d] * g.shape()[d] + gi[d])
                        << f.unifiedString() << " x " << g.unifiedString();
            }
        }
    }
}

TEST(LayoutProperty, AssociativityOverUnifiedLayouts)
{
    Rng rng(303);
    for (int trial = 0; trial < 60; ++trial) {
        Layout f = randomUnified(rng, 2);
        Layout g = randomUnified(rng, 2);
        Layout h = randomUnified(rng, 2);
        ASSERT_TRUE(((f * g) * h).equivalent(f * (g * h)));
    }
}

TEST(LayoutProperty, CanonicalizationIsSoundAndIdempotent)
{
    Rng rng(404);
    for (int trial = 0; trial < 100; ++trial) {
        Layout layout = randomUnified(rng, 2);
        Layout canon = layout.canonicalized();
        ASSERT_TRUE(layout.equivalent(canon)) << layout.unifiedString();
        Layout twice = canon.canonicalized();
        ASSERT_EQ(canon.modeShape(), twice.modeShape());
        ASSERT_EQ(canon.spatialModes(), twice.spatialModes());
        ASSERT_EQ(canon.localModes(), twice.localModes());
    }
}

TEST(LayoutProperty, DivisionInvertsProduct)
{
    Rng rng(505);
    int succeeded = 0;
    for (int trial = 0; trial < 120; ++trial) {
        Layout f = randomUnified(rng, 2);
        Layout g = randomUnified(rng, 2);
        if (!g.isBijective())
            continue;
        Layout h = f * g;
        auto quotient = h.dividedBy(g);
        ASSERT_TRUE(quotient.has_value())
            << "h=" << h.unifiedString() << " g=" << g.unifiedString();
        ASSERT_TRUE(quotient->equivalent(f.canonicalized()));
        ++succeeded;
    }
    EXPECT_GT(succeeded, 60);
}

TEST(LayoutProperty, DivisionWithReplicatedDividend)
{
    // Multi-warp operand layouts divide by warp-level atoms with the
    // replica factor surviving into the quotient.
    Rng rng(606);
    for (int trial = 0; trial < 40; ++trial) {
        Layout f = randomUnified(rng, 2);
        Layout rep = replicaSpatial(2, rng.nextRange(2, 4));
        Layout g = randomUnified(rng, 2);
        if (!g.isBijective())
            continue;
        Layout h = (f * rep) * g;
        auto quotient = h.dividedBy(g);
        ASSERT_TRUE(quotient.has_value());
        ASSERT_EQ(quotient->replication(), rep.replication());
        ASSERT_EQ(quotient->numThreads(),
                  f.numThreads() * rep.replication());
    }
}

TEST(LayoutProperty, ReplicatedThreadsAgree)
{
    // All replicas of a thread hold exactly the same logical elements.
    Rng rng(707);
    for (int trial = 0; trial < 40; ++trial) {
        Layout base = randomUnified(rng, 2);
        if (!base.isBijective())
            continue;
        int64_t copies = rng.nextRange(2, 4);
        Layout layout = base * replicaSpatial(2, copies);
        for (int64_t t = 0; t < base.numThreads(); ++t) {
            for (int64_t r = 1; r < copies; ++r) {
                for (int64_t i = 0; i < layout.localsPerThread(); ++i) {
                    ASSERT_EQ(layout.logicalIndexOf(t * copies, i),
                              layout.logicalIndexOf(t * copies + r, i));
                }
            }
        }
    }
}

TEST(LayoutProperty, ThreadsTimesLocalsEqualsNumelTimesReplication)
{
    Rng rng(808);
    for (int trial = 0; trial < 60; ++trial) {
        Layout base = randomUnified(rng, 2);
        Layout layout = rng.nextBelow(2)
                            ? base * replicaSpatial(2, rng.nextRange(2, 3))
                            : base;
        ASSERT_EQ(layout.numThreads() * layout.localsPerThread(),
                  layout.numel() * layout.replication());
    }
}

TEST(LayoutProperty, OffsetTablesSplitTheLayoutFunction)
{
    // dot(f(t, i), s) == threadOffsets(s)[t] + localOffsets(s)[i], and
    // the replica-free thread is the holder threadLocalOf reports.
    Rng rng(1010);
    for (int trial = 0; trial < 60; ++trial) {
        Layout base = randomUnified(rng, 2);
        Layout rep = replicaSpatial(2, rng.nextRange(1, 3));
        Layout layout = rng.nextBelow(2) ? base * rep : rep * base;
        const std::vector<int64_t> strides = {rng.nextRange(0, 9),
                                              rng.nextRange(0, 9)};
        const auto thread_pos = layout.threadOffsets(strides);
        const auto local_pos = layout.localOffsets(strides);
        const auto holder = layout.replicaFreeThreads();
        ASSERT_EQ(static_cast<int64_t>(thread_pos.size()),
                  layout.numThreads());
        ASSERT_EQ(static_cast<int64_t>(local_pos.size()),
                  layout.localsPerThread());
        for (int64_t t = 0; t < layout.numThreads(); ++t) {
            for (int64_t i = 0; i < layout.localsPerThread(); ++i) {
                auto idx = layout.logicalIndexOf(t, i);
                ASSERT_EQ(idx[0] * strides[0] + idx[1] * strides[1],
                          thread_pos[t] + local_pos[i])
                    << layout.unifiedString();
                auto [owner, slot] = layout.threadLocalOf(idx);
                ASSERT_EQ(holder[t], owner) << layout.unifiedString();
                ASSERT_EQ(slot, i);
            }
        }
    }
}

TEST(LayoutProperty, RankThreeLayoutsWork)
{
    Rng rng(909);
    for (int trial = 0; trial < 40; ++trial) {
        Layout f = randomUnified(rng, 3);
        Layout g = randomUnified(rng, 3);
        Layout h = f * g;
        ASSERT_EQ(h.rank(), 3);
        for (int64_t t = 0; t < h.numThreads(); ++t)
            for (int64_t i = 0; i < h.localsPerThread(); ++i) {
                auto idx = h.logicalIndexOf(t, i);
                if (h.isBijective()) {
                    auto [t2, i2] = h.threadLocalOf(idx);
                    ASSERT_EQ(t2, t);
                    ASSERT_EQ(i2, i);
                }
            }
    }
}

} // namespace
} // namespace tilus
