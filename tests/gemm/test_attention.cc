#include "gemm/attention.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "numerics/bf16.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace cpullm {
namespace gemm {
namespace {

/** One attention problem with self-owned storage. */
struct Problem
{
    AttnShape shape;
    std::int64_t m = 0;
    std::int64_t pos0 = 0;
    std::vector<float> q;
    std::vector<float> out;
    std::vector<float> kF32, vF32;
    std::vector<BFloat16> kBf16, vBf16;
    std::vector<kv::KvSpan> kChunks, vChunks;

    AttnSeqView
    view()
    {
        AttnSeqView s;
        s.q = q.data();
        s.out = out.data();
        s.k = kChunks.data();
        s.v = vChunks.data();
        s.chunks = kChunks.size();
        return s;
    }
};

/** O(1)-scaled inputs, the regime kAttnTolerance is documented for. */
Problem
makeProblem(AttnShape shape, std::int64_t m, std::int64_t pos0,
            DType kv_dtype, std::int64_t chunk_rows = 0,
            std::uint64_t seed = 42)
{
    Problem p;
    p.shape = shape;
    p.m = m;
    p.pos0 = pos0;
    Rng rng(seed);
    const std::int64_t width = shape.heads * shape.headDim;
    const std::int64_t d_kv = shape.kvHeads * shape.headDim;
    const std::int64_t span = pos0 + m;
    p.q.resize(static_cast<std::size_t>(m * width));
    p.out.assign(static_cast<std::size_t>(m * width), -1.0f);
    for (auto& x : p.q)
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
    p.kF32.resize(static_cast<std::size_t>(span * d_kv));
    p.vF32.resize(static_cast<std::size_t>(span * d_kv));
    for (auto& x : p.kF32)
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& x : p.vF32)
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
    if (kv_dtype == DType::BF16) {
        p.kBf16.reserve(p.kF32.size());
        p.vBf16.reserve(p.vF32.size());
        for (const float x : p.kF32)
            p.kBf16.push_back(BFloat16(x));
        for (const float x : p.vF32)
            p.vBf16.push_back(BFloat16(x));
    }
    // Cover the span with chunks of chunk_rows rows (0 = one chunk),
    // the paged-cache geometry.
    const std::int64_t step = chunk_rows > 0 ? chunk_rows : span;
    for (std::int64_t row = 0; row < span; row += step) {
        const std::int64_t len = std::min(step, span - row);
        kv::KvSpan k, v;
        k.dtype = v.dtype = kv_dtype;
        k.len = v.len = len;
        k.rowElems = v.rowElems = d_kv;
        k.stride = v.stride = d_kv;
        if (kv_dtype == DType::BF16) {
            k.data = p.kBf16.data() + row * d_kv;
            v.data = p.vBf16.data() + row * d_kv;
        } else {
            k.data = p.kF32.data() + row * d_kv;
            v.data = p.vF32.data() + row * d_kv;
        }
        p.kChunks.push_back(k);
        p.vChunks.push_back(v);
    }
    return p;
}

float
maxAbsDiff(const std::vector<float>& a, const std::vector<float>& b)
{
    float worst = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

struct Case
{
    const char* name;
    AttnShape shape;
    std::int64_t m;
    std::int64_t pos0;
    DType dtype;
};

class FusedAttention : public ::testing::TestWithParam<Case>
{
};

void
expectMatchesReference(const Case& c)
{
    Problem fused = makeProblem(c.shape, c.m, c.pos0, c.dtype);
    Problem ref = makeProblem(c.shape, c.m, c.pos0, c.dtype);
    AttnSeqView fv = fused.view();
    AttnSeqView rv = ref.view();
    attnFused(c.shape, c.m, c.pos0, &fv, 1);
    attnRef(c.shape, c.m, c.pos0, &rv, 1);
    EXPECT_LE(maxAbsDiff(fused.out, ref.out), kAttnTolerance);
}

TEST_P(FusedAttention, MatchesReferenceWithinTolerance)
{
    expectMatchesReference(GetParam());
}

// MHA mirrors OPT-style geometry, GQA LLaMA-style grouped kv heads;
// decode is m == 1 over a populated span, prefill m > 1 from empty,
// chained the mid-generation mixed case.
INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedAttention,
    ::testing::Values(
        Case{"MhaDecodeBf16", {8, 8, 16}, 1, 63, DType::BF16},
        Case{"MhaDecodeF32", {8, 8, 16}, 1, 63, DType::F32},
        Case{"GqaDecodeBf16", {8, 2, 16}, 1, 63, DType::BF16},
        Case{"GqaDecodeF32", {8, 2, 16}, 1, 63, DType::F32},
        Case{"MhaPrefillBf16", {8, 8, 16}, 24, 0, DType::BF16},
        Case{"GqaPrefillBf16", {8, 2, 16}, 24, 0, DType::BF16},
        Case{"GqaPrefillF32", {8, 2, 16}, 24, 0, DType::F32},
        Case{"GqaMidSpanPrefill", {4, 2, 16}, 7, 9, DType::BF16}),
    [](const auto& info) { return std::string(info.param.name); });

// The two edge shapes run as plain tests, so their ctest names are
// fixed: ctest names a Shapes case after gtest's byte dump of its
// Case, and the dump starts with the address of the name literal,
// which ASLR moves from run to run.
TEST(FusedAttention, OddHeadDimMatchesReferenceWithinTolerance)
{
    expectMatchesReference({"OddHeadDim", {4, 4, 20}, 1, 31, DType::BF16});
}

TEST(FusedAttention, SingleRowMatchesReferenceWithinTolerance)
{
    expectMatchesReference({"SingleRow", {2, 2, 8}, 1, 0, DType::F32});
}

TEST(FusedAttention, BatchedSequencesMatchPerSequenceCalls)
{
    const AttnShape shape{4, 2, 16};
    Problem a = makeProblem(shape, 1, 40, DType::BF16, 0, 1);
    Problem b = makeProblem(shape, 1, 40, DType::BF16, 0, 2);
    Problem a2 = makeProblem(shape, 1, 40, DType::BF16, 0, 1);
    Problem b2 = makeProblem(shape, 1, 40, DType::BF16, 0, 2);

    std::vector<AttnSeqView> batch{a.view(), b.view()};
    attnFused(shape, 1, 40, batch.data(), batch.size());
    AttnSeqView va = a2.view(), vb = b2.view();
    attnFused(shape, 1, 40, &va, 1);
    attnFused(shape, 1, 40, &vb, 1);
    EXPECT_EQ(a.out, a2.out);
    EXPECT_EQ(b.out, b2.out);
}

TEST(FusedAttention, BitwiseInvariantToThreadCount)
{
    const AttnShape shape{8, 4, 16};
    Problem p1 = makeProblem(shape, 4, 29, DType::BF16);
    Problem p4 = makeProblem(shape, 4, 29, DType::BF16);
    AttnSeqView v1 = p1.view(), v4 = p4.view();

    setMaxThreads(1);
    attnFused(shape, 4, 29, &v1, 1);
    setMaxThreads(4);
    attnFused(shape, 4, 29, &v4, 1);
    setMaxThreads(0); // restore default

    ASSERT_EQ(p1.out.size(), p4.out.size());
    for (std::size_t i = 0; i < p1.out.size(); ++i)
        ASSERT_EQ(p1.out[i], p4.out[i]) << "lane " << i;
}

TEST(FusedAttention, PagedChunkingIsBitwiseIrrelevant)
{
    const AttnShape shape{4, 2, 16};
    // Same data seen through one contiguous span vs 16-row paged
    // blocks vs a deliberately ragged 5-row chunking.
    Problem whole = makeProblem(shape, 1, 47, DType::BF16, 0);
    Problem paged = makeProblem(shape, 1, 47, DType::BF16, 16);
    Problem ragged = makeProblem(shape, 1, 47, DType::BF16, 5);
    ASSERT_EQ(whole.kChunks.size(), 1u);
    ASSERT_EQ(paged.kChunks.size(), 3u);
    AttnSeqView vw = whole.view(), vp = paged.view(),
                vr = ragged.view();
    attnFused(shape, 1, 47, &vw, 1);
    attnFused(shape, 1, 47, &vp, 1);
    attnFused(shape, 1, 47, &vr, 1);
    EXPECT_EQ(whole.out, paged.out);
    EXPECT_EQ(whole.out, ragged.out);
}

TEST(FusedAttention, DecodeEqualsPrefillLastRow)
{
    // The causal mask inside a prefill span must make its last query
    // row identical to a decode step at the same position.
    const AttnShape shape{4, 2, 16};
    const std::int64_t m = 6;
    Problem pre = makeProblem(shape, m, 0, DType::F32);
    Problem dec = makeProblem(shape, m, 0, DType::F32);
    AttnSeqView pv = pre.view();
    attnFused(shape, m, 0, &pv, 1);

    // Decode view: the last query row only, span m - 1 + 1 rows.
    const std::int64_t width = shape.heads * shape.headDim;
    AttnSeqView dv = dec.view();
    dv.q = dec.q.data() + (m - 1) * width;
    dv.out = dec.out.data() + (m - 1) * width;
    attnFused(shape, 1, m - 1, &dv, 1);
    for (std::int64_t i = 0; i < width; ++i)
        EXPECT_EQ(pre.out[static_cast<std::size_t>((m - 1) * width +
                                                   i)],
                  dec.out[static_cast<std::size_t>((m - 1) * width +
                                                   i)]);
}

TEST(FusedAttention, ScratchStopsGrowingInSteadyState)
{
    const AttnShape shape{4, 2, 16};
    setMaxThreads(1); // keep the kernel on this thread's scratch
    Problem warm = makeProblem(shape, 1, 63, DType::BF16);
    AttnSeqView wv = warm.view();
    attnFused(shape, 1, 63, &wv, 1);

    const std::uint64_t after_warmup = attnStats().scratchAllocs;
    for (int rep = 0; rep < 8; ++rep) {
        Problem p = makeProblem(shape, 1, 63, DType::BF16);
        AttnSeqView v = p.view();
        attnFused(shape, 1, 63, &v, 1);
    }
    EXPECT_EQ(attnStats().scratchAllocs, after_warmup)
        << "steady-state decode must not grow kernel scratch";
    setMaxThreads(0);
}

TEST(FusedAttention, StatsCountCallsAndRows)
{
    const AttnShape shape{4, 2, 8};
    const AttnStats before = attnStats();
    Problem dec = makeProblem(shape, 1, 15, DType::F32);
    Problem pre = makeProblem(shape, 4, 0, DType::F32);
    AttnSeqView dv = dec.view(), pv = pre.view();
    attnFused(shape, 1, 15, &dv, 1);
    attnFused(shape, 4, 0, &pv, 1);
    const AttnStats after = attnStats();
    EXPECT_EQ(after.decodeCalls - before.decodeCalls, 1u);
    EXPECT_EQ(after.prefillCalls - before.prefillCalls, 1u);
    // One sequence x two kv heads per call.
    EXPECT_EQ(after.tasks - before.tasks, 4u);
    EXPECT_EQ(after.spanRows - before.spanRows,
              2u * 16u + 2u * 4u);
}

TEST(RaggedAttention, MatchesPerSequenceFusedBitwise)
{
    // Four in-flight sequences at mutually unrelated positions — the
    // shape of one continuous-batching iteration. Paged 16-row
    // chunking like the block pool produces.
    const AttnShape shape{8, 2, 16};
    const std::int64_t pos[] = {0, 7, 40, 63};
    const std::int64_t ms[] = {1, 1, 3, 1};
    std::vector<Problem> ragged, solo;
    for (int s = 0; s < 4; ++s) {
        ragged.push_back(makeProblem(shape, ms[s], pos[s],
                                     DType::BF16, 16,
                                     static_cast<std::uint64_t>(s)));
        solo.push_back(makeProblem(shape, ms[s], pos[s], DType::BF16,
                                   16,
                                   static_cast<std::uint64_t>(s)));
    }
    std::vector<AttnRaggedSeq> slots(4);
    for (int s = 0; s < 4; ++s) {
        slots[static_cast<std::size_t>(s)].view =
            ragged[static_cast<std::size_t>(s)].view();
        slots[static_cast<std::size_t>(s)].pos0 = pos[s];
        slots[static_cast<std::size_t>(s)].m = ms[s];
    }
    attnFusedRagged(shape, slots.data(), slots.size());
    for (int s = 0; s < 4; ++s) {
        AttnSeqView v = solo[static_cast<std::size_t>(s)].view();
        attnFused(shape, ms[s], pos[s], &v, 1);
        EXPECT_EQ(ragged[static_cast<std::size_t>(s)].out,
                  solo[static_cast<std::size_t>(s)].out)
            << "sequence " << s;
    }
}

TEST(RaggedAttention, BitwiseInvariantToThreadCount)
{
    const AttnShape shape{8, 4, 16};
    const std::int64_t pos[] = {3, 29, 50};
    std::vector<Problem> p1, p4;
    for (int s = 0; s < 3; ++s) {
        p1.push_back(makeProblem(shape, 1, pos[s], DType::BF16, 0,
                                 static_cast<std::uint64_t>(s + 9)));
        p4.push_back(makeProblem(shape, 1, pos[s], DType::BF16, 0,
                                 static_cast<std::uint64_t>(s + 9)));
    }
    std::vector<AttnRaggedSeq> s1(3), s4(3);
    for (int s = 0; s < 3; ++s) {
        s1[static_cast<std::size_t>(s)] = {
            p1[static_cast<std::size_t>(s)].view(), pos[s], 1};
        s4[static_cast<std::size_t>(s)] = {
            p4[static_cast<std::size_t>(s)].view(), pos[s], 1};
    }
    setMaxThreads(1);
    attnFusedRagged(shape, s1.data(), s1.size());
    setMaxThreads(4);
    attnFusedRagged(shape, s4.data(), s4.size());
    setMaxThreads(0);
    for (int s = 0; s < 3; ++s)
        EXPECT_EQ(p1[static_cast<std::size_t>(s)].out,
                  p4[static_cast<std::size_t>(s)].out)
            << "sequence " << s;
}

TEST(RaggedAttention, StatsCountRaggedCallsAndRows)
{
    const AttnShape shape{4, 2, 8};
    const AttnStats before = attnStats();
    Problem a = makeProblem(shape, 1, 9, DType::F32);
    Problem b = makeProblem(shape, 2, 4, DType::F32);
    AttnRaggedSeq slots[2] = {{a.view(), 9, 1}, {b.view(), 4, 2}};
    attnFusedRagged(shape, slots, 2);
    const AttnStats after = attnStats();
    EXPECT_EQ(after.raggedCalls - before.raggedCalls, 1u);
    EXPECT_EQ(after.decodeCalls - before.decodeCalls, 0u);
    // Two sequences x two kv heads.
    EXPECT_EQ(after.tasks - before.tasks, 4u);
    EXPECT_EQ(after.spanRows - before.spanRows, 2u * 10u + 2u * 6u);
}

} // namespace
} // namespace gemm
} // namespace cpullm
