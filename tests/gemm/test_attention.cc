#include "gemm/attention.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "gemm/attention_detail.h"
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

/** One fused call with one slot per problem (all of one shape). */
void
runFused(const std::vector<Problem*>& ps)
{
    std::vector<AttnRaggedSeq> slots;
    for (Problem* p : ps)
        slots.push_back({p->view(), p->pos0, p->m});
    attnFusedRagged(ps.front()->shape, slots.data(), slots.size());
}

/** A way to run one slot: the public entry point, or one task body. */
struct Body
{
    const char* name;
    detail::AttnTaskFn task; ///< nullptr: attnFusedRagged
};

/** attnFusedRagged and every task body this host can run, so both
 *  bodies stay checked whichever one the host dispatches to. */
std::vector<Body>
hostBodies()
{
    std::vector<Body> bodies{{"attnFusedRagged", nullptr},
                             {"portable", &detail::attnTaskPortable}};
#if CPULLM_ATTN_AVX512
    if (__builtin_cpu_supports("avx512f"))
        bodies.push_back({"avx512", &detail::attnTaskAvx512});
#endif
    return bodies;
}

void
runSlot(const Body& body, const AttnShape& shape,
        const AttnRaggedSeq& slot)
{
    if (body.task == nullptr) {
        attnFusedRagged(shape, &slot, 1);
        return;
    }
    for (std::int64_t kvh = 0; kvh < shape.kvHeads; ++kvh)
        body.task(shape, slot, kvh);
}

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
    std::int64_t chunkRows = 0; ///< 0: one contiguous chunk
    float qGain = 1.0f;         ///< scales q to spread the scores
};

// ctest names each Shapes case after the printed parameter; print the
// case name, not gtest's byte dump (an ASLR-moved pointer and
// uninitialized padding).
void
PrintTo(const Case& c, std::ostream* os)
{
    *os << c.name;
}

class FusedAttention : public ::testing::TestWithParam<Case>
{
};

void
expectMatchesReference(const Case& c)
{
    Problem ref = makeProblem(c.shape, c.m, c.pos0, c.dtype, c.chunkRows);
    for (float& x : ref.q)
        x *= c.qGain;
    AttnSeqView rv = ref.view();
    attnRef(c.shape, c.m, c.pos0, &rv, 1);
    for (const Body& body : hostBodies()) {
        Problem fused = makeProblem(c.shape, c.m, c.pos0, c.dtype,
                                    c.chunkRows);
        for (float& x : fused.q)
            x *= c.qGain;
        runSlot(body, c.shape, {fused.view(), c.pos0, c.m});
        EXPECT_LE(maxAbsDiff(fused.out, ref.out), kAttnTolerance)
            << body.name;
        for (std::size_t i = 0; i < fused.out.size(); ++i)
            ASSERT_TRUE(std::isfinite(fused.out[i]))
                << body.name << ", element " << i;
    }
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
        Case{"GqaMidSpanPrefill", {4, 2, 16}, 7, 9, DType::BF16},
        // The perfbench model's geometry (GQA 12/4, headDim 64, BF16
        // cache in 16-row blocks) at its span lengths: dozens of tiles
        // per row. Scaling q spreads each row's scores: x 20 puts the
        // smallest weights near e^-53, x 40 pushes some exp arguments
        // past ln(FLT_MIN), where the vector exp flushes them to 0.
        Case{"LlamaLongDecode", {12, 4, 64}, 1, 1039, DType::BF16, 16},
        Case{"LlamaLongPrefill", {12, 4, 64}, 48, 1000, DType::BF16, 16},
        Case{"LlamaDecodeQx20", {12, 4, 64}, 1, 1039, DType::BF16, 16,
             20.0f},
        Case{"LlamaDecodeQx40", {12, 4, 64}, 1, 1039, DType::BF16, 16,
             40.0f}),
    [](const auto& info) { return std::string(info.param.name); });

// The two edge shapes run as plain tests.
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

    runFused({&a, &b});
    runFused({&a2});
    runFused({&b2});
    EXPECT_EQ(a.out, a2.out);
    EXPECT_EQ(b.out, b2.out);
}

TEST(FusedAttention, BitwiseInvariantToThreadCount)
{
    const AttnShape shape{8, 4, 16};
    Problem p1 = makeProblem(shape, 4, 29, DType::BF16);
    Problem p4 = makeProblem(shape, 4, 29, DType::BF16);

    setMaxThreads(1);
    runFused({&p1});
    setMaxThreads(4);
    runFused({&p4});
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
    runFused({&whole});
    runFused({&paged});
    runFused({&ragged});
    EXPECT_EQ(whole.out, paged.out);
    EXPECT_EQ(whole.out, ragged.out);
}

TEST(FusedAttention, DecodeEqualsPrefillLastRow)
{
    // The causal mask inside a prefill span must make each query row,
    // the last one included, identical to a decode step at the same
    // position. Preemption re-prefills a prompt plus its generated
    // tokens as one span, and shared-prefix blocks come from another
    // request's prefill, so every row must match bitwise. The rows,
    // at positions 9..48, cross the tile starts 16, 32 and 48, and
    // neither end of the span is tile-aligned.
    const AttnShape shape{12, 4, 64};
    const std::int64_t pos0 = 9, m = 40;
    const std::int64_t width = shape.heads * shape.headDim;
    for (const Body& body : hostBodies()) {
        for (const DType dtype : {DType::F32, DType::BF16}) {
            std::vector<float> whole;
            for (const std::int64_t chunk : {0, 16, 5}) {
                Problem pre = makeProblem(shape, m, pos0, dtype, chunk);
                Problem dec = makeProblem(shape, m, pos0, dtype, chunk);
                runSlot(body, shape, {pre.view(), pos0, m});
                if (chunk == 0)
                    whole = pre.out;
                EXPECT_EQ(pre.out, whole)
                    << body.name << ", chunk " << chunk;
                for (std::int64_t i = 0; i < m; ++i) {
                    AttnRaggedSeq ds{dec.view(), pos0 + i, 1};
                    ds.view.q = dec.q.data() + i * width;
                    ds.view.out = dec.out.data() + i * width;
                    runSlot(body, shape, ds);
                }
                ASSERT_EQ(pre.out.size(), dec.out.size());
                for (std::size_t e = 0; e < pre.out.size(); ++e)
                    ASSERT_EQ(pre.out[e], dec.out[e])
                        << body.name << ", " << dtypeName(dtype)
                        << ", chunk " << chunk << ", row "
                        << static_cast<std::int64_t>(e) / width;
            }
        }
    }
}

TEST(FusedAttention, ScratchStopsGrowingInSteadyState)
{
    const AttnShape shape{4, 2, 16};
    setMaxThreads(1); // keep the kernel on this thread's scratch
    // A prefill first: per-row softmax state grows with group * m.
    Problem prompt = makeProblem(shape, 24, 0, DType::BF16);
    runFused({&prompt});
    Problem warm = makeProblem(shape, 1, 63, DType::BF16);
    runFused({&warm});

    const std::uint64_t after_warmup = attnStats().scratchAllocs;
    for (int rep = 0; rep < 8; ++rep) {
        Problem p = makeProblem(shape, 1, 63, DType::BF16);
        runFused({&p});
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
    runFused({&dec});
    runFused({&pre});
    const AttnStats after = attnStats();
    EXPECT_EQ(after.decodeCalls - before.decodeCalls, 1u);
    EXPECT_EQ(after.prefillCalls - before.prefillCalls, 1u);
    EXPECT_EQ(after.raggedCalls - before.raggedCalls, 0u);
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
        runFused({&solo[static_cast<std::size_t>(s)]});
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
    EXPECT_EQ(after.prefillCalls - before.prefillCalls, 0u);
    // Two sequences x two kv heads.
    EXPECT_EQ(after.tasks - before.tasks, 4u);
    EXPECT_EQ(after.spanRows - before.spanRows, 2u * 10u + 2u * 6u);
}

TEST(RaggedAttention, AllDecodeSlotsCountAsOneDecodeCall)
{
    // A continuous-batching decode step: several sequences, every
    // slot at m == 1, is one decode call, not a ragged one.
    const AttnShape shape{4, 2, 8};
    Problem a = makeProblem(shape, 1, 3, DType::F32);
    Problem b = makeProblem(shape, 1, 11, DType::F32);
    Problem c = makeProblem(shape, 1, 20, DType::F32);
    const AttnStats before = attnStats();
    runFused({&a, &b, &c});
    const AttnStats after = attnStats();
    EXPECT_EQ(after.decodeCalls - before.decodeCalls, 1u);
    EXPECT_EQ(after.raggedCalls - before.raggedCalls, 0u);
    EXPECT_EQ(after.prefillCalls - before.prefillCalls, 0u);
    // Three sequences x two kv heads.
    EXPECT_EQ(after.tasks - before.tasks, 6u);
}

} // namespace
} // namespace gemm
} // namespace cpullm
