#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "kv/kv_cache.h"
#include "kv/kv_span.h"
#include "kv/paged_kv_cache.h"

/**
 * @file
 * The paged-pool machinery behind continuous batching:
 * reserve/write/commit, refcounted prefix sharing with copy-on-write,
 * admission failure, and the span-validity regression after reset()
 * (on the lockstep KvCache too).
 */

namespace cpullm {
namespace kv {
namespace {

float
val(std::int64_t pos, std::int64_t i, float tag)
{
    return tag + static_cast<float>(pos) * 0.5f +
           static_cast<float>(i) * 0.125f;
}

/** Append @p count tokens to @p seq with position-tagged values. */
void
appendTokens(PagedKvCache& c, std::int64_t seq, std::int64_t count,
             float tag)
{
    const std::int64_t start = c.seqLen(seq);
    std::vector<float> k(
        static_cast<std::size_t>(c.layers() * c.dKv()));
    std::vector<float> v(k.size());
    for (std::int64_t t = 0; t < count; ++t) {
        const std::int64_t pos = start + t;
        for (std::int64_t l = 0; l < c.layers(); ++l) {
            for (std::int64_t i = 0; i < c.dKv(); ++i) {
                const auto idx =
                    static_cast<std::size_t>(l * c.dKv() + i);
                k[idx] = val(pos, i, tag + static_cast<float>(l) * 64);
                v[idx] = -val(pos, i, tag + static_cast<float>(l) * 64);
            }
        }
        ASSERT_TRUE(c.appendToken(seq, k.data(), v.data()));
    }
}

/** Every position of @p seq reads back its position-tagged values. */
void
expectTokens(const PagedKvCache& c, std::int64_t seq,
             std::int64_t count, float tag)
{
    std::vector<float> out(static_cast<std::size_t>(c.dKv()));
    for (std::int64_t pos = 0; pos < count; ++pos) {
        for (std::int64_t l = 0; l < c.layers(); ++l) {
            c.readK(seq, l, pos, out.data());
            for (std::int64_t i = 0; i < c.dKv(); ++i)
                ASSERT_EQ(out[static_cast<std::size_t>(i)],
                          val(pos, i, tag + static_cast<float>(l) * 64))
                    << "seq=" << seq << " l=" << l << " pos=" << pos
                    << " i=" << i;
        }
    }
}

TEST(KvCacheRagged, LockstepSetSeqLenStillCoversAllSequences)
{
    KvCache c(1, 2, 4, 8, DType::F32);
    c.setSeqLen(3);
    EXPECT_EQ(c.kSpan(0, 0).len, 3);
    EXPECT_EQ(c.kSpan(0, 1).len, 3);
    c.reset();
    EXPECT_EQ(c.seqLen(), 0);
    EXPECT_EQ(c.kSpan(0, 1).len, 0);
}

// The reset() regression: a refill after reset() must hand out span
// views that alias the same storage and match element reads. The
// contiguous store now refills in lockstep; the paged pool's ragged
// refill is ResetReturnsAllBlocksAndSpansStayValid below.
TEST(KvCacheRagged, ResetThenRaggedAppendKeepsSpansValid)
{
    KvCache c(1, 2, 4, 8, DType::BF16);
    std::vector<float> k(4, 1.0f), v(4, 2.0f);
    c.write(0, 0, 0, k.data(), v.data());
    c.setSeqLen(1);
    const KvSpan before = c.kSpan(0, 0);
    c.reset();
    ASSERT_EQ(c.kSpan(0, 0).len, 0);
    // Refill both sequences with 3 tokens of distinct values.
    for (std::int64_t b = 0; b < 2; ++b) {
        for (std::int64_t p = 0; p < 3; ++p) {
            for (std::int64_t i = 0; i < 4; ++i)
                k[static_cast<std::size_t>(i)] =
                    val(p, i, static_cast<float>(b));
            c.write(0, b, p, k.data(), v.data());
        }
    }
    c.setSeqLen(3);
    EXPECT_EQ(c.kSpan(0, 0).data, before.data); // same storage
    std::vector<float> ref(4);
    for (std::int64_t b = 0; b < 2; ++b) {
        const KvSpan s = c.kSpan(0, b);
        ASSERT_EQ(s.len, 3);
        for (std::int64_t p = 0; p < 3; ++p) {
            c.readK(0, b, p, ref.data());
            for (std::int64_t i = 0; i < 4; ++i)
                EXPECT_EQ(s.at(p, i),
                          ref[static_cast<std::size_t>(i)]);
        }
    }
}

TEST(PagedRagged, ReserveWriteCommitMatchesAppendToken)
{
    PagedKvCache a(2, 4, 4, 8, DType::F32);
    PagedKvCache b(2, 4, 4, 8, DType::F32);
    const std::int64_t sa = a.addSequence();
    const std::int64_t sb = b.addSequence();
    appendTokens(a, sa, 6, 0.0f);

    // Same data through the layer-at-a-time path, in two steps.
    std::vector<float> k(4), v(4);
    for (const std::int64_t m : {4, 2}) {
        const std::int64_t pos0 = b.reserve(sb, m);
        ASSERT_GE(pos0, 0);
        for (std::int64_t l = 0; l < 2; ++l) {
            for (std::int64_t t = 0; t < m; ++t) {
                const std::int64_t pos = pos0 + t;
                for (std::int64_t i = 0; i < 4; ++i) {
                    k[static_cast<std::size_t>(i)] =
                        val(pos, i, static_cast<float>(l) * 64);
                    v[static_cast<std::size_t>(i)] =
                        -val(pos, i, static_cast<float>(l) * 64);
                }
                b.writeToken(sb, l, pos, k.data(), v.data());
            }
        }
        // Mid-step: default-length spans stop at the committed rows,
        // explicit-length spans already cover the reserved ones.
        std::int64_t committed = 0;
        for (const KvSpan& sp : b.kSpans(sb, 0))
            committed += sp.len;
        EXPECT_EQ(committed, b.seqLen(sb));
        std::int64_t covered = 0;
        for (const KvSpan& sp : b.kSpans(sb, 0, pos0 + m))
            covered += sp.len;
        EXPECT_EQ(covered, pos0 + m);
        b.commit(sb, m);
    }
    ASSERT_EQ(a.seqLen(sa), b.seqLen(sb));
    expectTokens(b, sb, 6, 0.0f);

    // Chunk lists agree span for span.
    for (std::int64_t l = 0; l < 2; ++l) {
        const auto ka = a.kSpans(sa, l);
        const auto kb = b.kSpans(sb, l);
        ASSERT_EQ(ka.size(), kb.size());
        for (std::size_t ci = 0; ci < ka.size(); ++ci) {
            ASSERT_EQ(ka[ci].len, kb[ci].len);
            for (std::int64_t r = 0; r < ka[ci].len; ++r)
                for (std::int64_t i = 0; i < 4; ++i)
                    EXPECT_EQ(ka[ci].at(r, i),
                              kb[ci].at(r, i));
        }
    }
}

TEST(PagedRagged, PrefixShareFullBlocksRefcountsAndReleases)
{
    PagedKvCache c(1, 2, 4, 6, DType::F32);
    const std::int64_t donor = c.addSequence();
    appendTokens(c, donor, 8, 0.0f); // 2 full blocks
    const std::int64_t used_before = 6 - c.freeBlocks();
    ASSERT_EQ(used_before, 2);

    const std::int64_t clone = c.addSequenceWithPrefix(donor, 8);
    EXPECT_EQ(c.seqLen(clone), 8);
    EXPECT_EQ(c.freeBlocks(), 4); // shared, no new blocks
    expectTokens(c, clone, 8, 0.0f);
    EXPECT_EQ(c.stats().prefixSharedBlocks, 2);

    // Diverge: appends go to fresh blocks, donor data untouched.
    appendTokens(c, clone, 2, 100.0f);
    expectTokens(c, donor, 8, 0.0f);
    EXPECT_EQ(c.stats().cowCopies, 0); // boundary share, no CoW

    // Blocks only return to the pool with the last reference.
    c.releaseSequence(donor);
    EXPECT_EQ(c.freeBlocks(), 3); // shared 2 still held by clone
    expectTokens(c, clone, 8, 0.0f);
    c.releaseSequence(clone);
    EXPECT_EQ(c.freeBlocks(), 6);
}

TEST(PagedRagged, PartialPrefixTailCopiesOnWrite)
{
    PagedKvCache c(1, 2, 4, 8, DType::F32);
    const std::int64_t donor = c.addSequence();
    appendTokens(c, donor, 6, 0.0f); // block 0 full, block 1 half
    const std::int64_t clone = c.addSequenceWithPrefix(donor, 6);
    EXPECT_EQ(c.seqLen(clone), 6);
    ASSERT_EQ(c.freeBlocks(), 6);

    // The clone's next append lands inside the shared tail block and
    // must trigger a copy-on-write clone of it.
    appendTokens(c, clone, 1, 0.0f); // keep donor tagging for pos 6
    EXPECT_EQ(c.stats().cowCopies, 1);
    EXPECT_EQ(c.freeBlocks(), 5);

    // Donor continues into its own (now private) tail; histories
    // stay independent.
    appendTokens(c, donor, 1, 50.0f);
    expectTokens(c, clone, 7, 0.0f);
    std::vector<float> out(2);
    c.readK(donor, 0, 6, out.data());
    EXPECT_EQ(out[0], val(6, 0, 50.0f));
}

TEST(PagedRagged, CanAppendAccountsForCowBlock)
{
    // Pool of exactly 2 blocks: donor fills one and a half.
    PagedKvCache c(1, 2, 4, 2, DType::F32);
    const std::int64_t donor = c.addSequence();
    appendTokens(c, donor, 6, 0.0f);
    const std::int64_t clone = c.addSequenceWithPrefix(donor, 6);
    ASSERT_EQ(c.freeBlocks(), 0);
    // Tail has room for 2 more tokens, but the block is shared and
    // no free block exists for the clone.
    EXPECT_FALSE(c.canAppend(clone));
    std::vector<float> k(2, 1.0f), v(2, 2.0f);
    EXPECT_EQ(c.reserve(clone, 1), -1);
    EXPECT_FALSE(c.appendToken(clone, k.data(), v.data()));
    EXPECT_EQ(c.seqLen(clone), 6); // admission failure changed nothing

    // Preempt-and-requeue: releasing the donor frees nothing shared
    // but keeps the clone's view alive... donor's tail ref drops.
    c.releaseSequence(donor);
    EXPECT_TRUE(c.canAppend(clone)); // tail now private
    EXPECT_TRUE(c.appendToken(clone, k.data(), v.data()));
    EXPECT_EQ(c.seqLen(clone), 7);
    EXPECT_EQ(c.stats().cowCopies, 0); // privatized by release
}

TEST(PagedRagged, ResetReturnsAllBlocksAndSpansStayValid)
{
    PagedKvCache c(2, 4, 4, 8, DType::BF16);
    const std::int64_t s0 = c.addSequence();
    appendTokens(c, s0, 5, 0.0f);
    const std::int64_t shared = c.addSequenceWithPrefix(s0, 5);
    appendTokens(c, shared, 3, 7.0f);

    c.reset();
    EXPECT_EQ(c.freeBlocks(), 8);

    // Ragged refill after reset: two sequences, different lengths.
    const std::int64_t a = c.addSequence();
    const std::int64_t b = c.addSequence();
    appendTokens(c, a, 7, 1.0f);
    appendTokens(c, b, 2, 2.0f);
    EXPECT_EQ(c.seqLen(a), 7);
    EXPECT_EQ(c.seqLen(b), 2);
    // Spans over the reused pool blocks match element reads.
    const auto ka = c.kSpans(a, 1);
    std::int64_t covered = 0;
    std::vector<float> ref(4);
    for (const KvSpan& sp : ka) {
        for (std::int64_t r = 0; r < sp.len; ++r) {
            c.readK(a, 1, covered + r, ref.data());
            for (std::int64_t i = 0; i < 4; ++i)
                EXPECT_EQ(sp.at(r, i),
                          ref[static_cast<std::size_t>(i)]);
        }
        covered += sp.len;
    }
    EXPECT_EQ(covered, 7);
}

TEST(PagedRagged, WatermarkTracksPoolPressure)
{
    PagedKvCache c(1, 2, 4, 4, DType::F32);
    EXPECT_EQ(c.stats().minFreeBlocks, 4);
    const std::int64_t s = c.addSequence();
    appendTokens(c, s, 12, 0.0f); // 3 blocks
    EXPECT_EQ(c.stats().minFreeBlocks, 1);
    c.releaseSequence(s);
    EXPECT_EQ(c.freeBlocks(), 4);
    EXPECT_EQ(c.stats().minFreeBlocks, 1); // lifetime low stays
    EXPECT_EQ(c.stats().blockAllocs, 3);
    EXPECT_EQ(c.stats().blockFrees, 3);
}

} // namespace
} // namespace kv
} // namespace cpullm
