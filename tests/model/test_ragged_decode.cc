#include "model/transformer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "engine/inference_engine.h"
#include "util/parallel.h"

namespace cpullm {
namespace model {
namespace {

/**
 * The batching equivalence: a ragged (continuous-batching) decode
 * step over the paged cache must be bitwise identical to running each
 * sequence alone on its own paged cache — same tokens, same logits —
 * at any thread count and under weight quantization. Every per-row
 * operator is row-independent, so fusing rows changes nothing.
 */

ModelSpec
gqaTinySpec()
{
    ModelSpec s = tinyTestModel();
    s.name = "Tiny-GQA";
    s.numKvHeads = 2; // grouped kv heads, LLaMA-style
    s.validate();
    return s;
}

std::vector<std::int64_t>
prompt(const ModelSpec& spec, std::int64_t len, std::uint64_t seed)
{
    return engine::syntheticPrompts(spec.vocabSize, 1, len, seed)[0];
}

/** A pool holding one sequence of the model's full length. */
kv::PagedKvCache
soloCache(const TransformerModel& m)
{
    return m.makePagedKvCache(8, (m.spec().maxSeqLen + 7) / 8);
}

/** Per-sequence reference: the sequence alone on its own cache. */
std::vector<std::int64_t>
sequentialGreedy(TransformerModel& m,
                 const std::vector<std::int64_t>& p,
                 std::int64_t gen_len)
{
    kv::PagedKvCache cache = soloCache(m);
    return m.generate({p}, gen_len, cache)[0];
}

/**
 * Ragged path: all sequences in-flight at once, staggered positions
 * (their prompts differ in length), one fused step per iteration.
 */
std::vector<std::vector<std::int64_t>>
raggedGreedy(TransformerModel& m,
             const std::vector<std::vector<std::int64_t>>& prompts,
             std::int64_t gen_len, kv::PagedKvCache& cache)
{
    const std::size_t n = prompts.size();
    std::vector<std::vector<std::int64_t>> out(n);
    std::vector<TransformerModel::RaggedSlot> slots(n);
    for (std::size_t s = 0; s < n; ++s) {
        slots[s].seq = cache.addSequence();
        slots[s].token = m.prefillPaged(prompts[s], slots[s].seq,
                                        cache);
        EXPECT_GE(slots[s].token, 0) << "pool too small for prompt";
        out[s].push_back(slots[s].token);
    }
    for (std::int64_t step = 1; step < gen_len; ++step) {
        const std::vector<std::int64_t> next =
            m.decodeStepRagged(slots, cache);
        EXPECT_EQ(next.size(), n) << "pool too small for decode";
        for (std::size_t s = 0; s < n; ++s) {
            slots[s].token = next[s];
            out[s].push_back(next[s]);
        }
    }
    return out;
}

TEST(RaggedDecode, BitwiseMatchesSequentialDecode)
{
    const ModelSpec spec = tinyTestModel();
    TransformerModel m(spec, gemm::Engine::AmxBf16, 21);
    const std::vector<std::vector<std::int64_t>> prompts = {
        prompt(spec, 4, 1), prompt(spec, 7, 2), prompt(spec, 11, 3)};

    kv::PagedKvCache cache = m.makePagedKvCache(8, 24);
    const auto ragged = raggedGreedy(m, prompts, 10, cache);
    for (std::size_t s = 0; s < prompts.size(); ++s)
        EXPECT_EQ(ragged[s], sequentialGreedy(m, prompts[s], 10))
            << "sequence " << s;
}

TEST(RaggedDecode, BitwiseMatchesSequentialDecodeGqa)
{
    const ModelSpec spec = gqaTinySpec();
    TransformerModel m(spec, gemm::Engine::AmxBf16, 22);
    const std::vector<std::vector<std::int64_t>> prompts = {
        prompt(spec, 3, 4), prompt(spec, 9, 5)};

    kv::PagedKvCache cache = m.makePagedKvCache(8, 16);
    const auto ragged = raggedGreedy(m, prompts, 8, cache);
    for (std::size_t s = 0; s < prompts.size(); ++s)
        EXPECT_EQ(ragged[s], sequentialGreedy(m, prompts[s], 8))
            << "sequence " << s;
}

TEST(RaggedDecode, LogitsBitwiseEqualToPerSequenceForward)
{
    const ModelSpec spec = tinyTestModel();
    TransformerModel m(spec, gemm::Engine::AmxBf16, 23);
    const auto pa = prompt(spec, 5, 6);
    const auto pb = prompt(spec, 12, 7);

    // Reference: each sequence alone on its own cache.
    auto alone = [&m](const std::vector<std::int64_t>& p,
                      std::int64_t& first) {
        kv::PagedKvCache c = soloCache(m);
        const std::int64_t seq = c.addSequence();
        first = m.prefillPaged(p, seq, c);
        return m.forwardRagged({first}, {{seq, c.seqLen(seq), 1}}, c);
    };
    std::int64_t ta = 0, tb = 0;
    const Tensor la = alone(pa, ta);
    const Tensor lb = alone(pb, tb);

    // Ragged paged path at the same state, one fused step.
    kv::PagedKvCache paged = m.makePagedKvCache(8, 16);
    TransformerModel::RaggedSlot sa, sb;
    sa.seq = paged.addSequence();
    sb.seq = paged.addSequence();
    sa.token = m.prefillPaged(pa, sa.seq, paged);
    sb.token = m.prefillPaged(pb, sb.seq, paged);
    ASSERT_EQ(sa.token, ta);
    ASSERT_EQ(sb.token, tb);
    std::vector<TransformerModel::RaggedSeqSpan> spans(2);
    spans[0] = {sa.seq, paged.seqLen(sa.seq), 1};
    spans[1] = {sb.seq, paged.seqLen(sb.seq), 1};
    const Tensor lr = m.forwardRagged({ta, tb}, spans, paged);

    ASSERT_FALSE(lr.empty());
    const float* rp = lr.data<float>();
    const float* ap = la.data<float>();
    const float* bp = lb.data<float>();
    for (std::int64_t i = 0; i < spec.vocabSize; ++i) {
        ASSERT_EQ(rp[i], ap[i]) << "seq a logit " << i;
        ASSERT_EQ(rp[spec.vocabSize + i], bp[i])
            << "seq b logit " << i;
    }
}

TEST(RaggedDecode, ThreadCountInvariant)
{
    const ModelSpec spec = tinyTestModel();
    TransformerModel m(spec, gemm::Engine::AmxBf16, 24);
    const std::vector<std::vector<std::int64_t>> prompts = {
        prompt(spec, 4, 8), prompt(spec, 10, 9)};

    setMaxThreads(1);
    kv::PagedKvCache c1 = m.makePagedKvCache(8, 16);
    const auto t1 = raggedGreedy(m, prompts, 8, c1);
    setMaxThreads(4);
    kv::PagedKvCache c4 = m.makePagedKvCache(8, 16);
    const auto t4 = raggedGreedy(m, prompts, 8, c4);
    setMaxThreads(0);
    EXPECT_EQ(t1, t4);
    for (std::size_t s = 0; s < prompts.size(); ++s)
        EXPECT_EQ(t1[s], sequentialGreedy(m, prompts[s], 8))
            << "sequence " << s;
}

TEST(RaggedDecode, QuantizedWeightsStayBitwiseEquivalent)
{
    // Ragged-vs-sequential equivalence is a property of row
    // independence, not of the weight format: it must survive the
    // grouped INT8 and INT4 weight-only paths.
    const ModelSpec spec = tinyTestModel();
    for (const gemm::WeightDtype wq : {gemm::WeightDtype::I8Grouped,
                                       gemm::WeightDtype::I4Grouped}) {
        TransformerModel m(spec, gemm::Engine::AmxBf16, 25, wq);
        const std::vector<std::vector<std::int64_t>> prompts = {
            prompt(spec, 6, 10), prompt(spec, 13, 11)};
        kv::PagedKvCache cache = m.makePagedKvCache(8, 16);
        const auto ragged = raggedGreedy(m, prompts, 8, cache);
        for (std::size_t s = 0; s < prompts.size(); ++s)
            EXPECT_EQ(ragged[s], sequentialGreedy(m, prompts[s], 8))
                << "wquant " << static_cast<int>(wq) << " sequence "
                << s;
    }
}

TEST(RaggedDecode, AdmissionFailureLeavesLengthsUnchanged)
{
    const ModelSpec spec = tinyTestModel();
    TransformerModel m(spec, gemm::Engine::AmxBf16, 26);
    // Two blocks of 4: a 4-token prompt fills one block exactly, so
    // the second sequence's prefill takes the last block and the
    // next decode step has nothing to allocate from.
    kv::PagedKvCache cache = m.makePagedKvCache(4, 2);
    TransformerModel::RaggedSlot a, b;
    a.seq = cache.addSequence();
    b.seq = cache.addSequence();
    a.token = m.prefillPaged(prompt(spec, 4, 12), a.seq, cache);
    b.token = m.prefillPaged(prompt(spec, 4, 13), b.seq, cache);
    ASSERT_GE(a.token, 0);
    ASSERT_GE(b.token, 0);
    ASSERT_EQ(cache.freeBlocks(), 0);

    const auto none = m.decodeStepRagged({a, b}, cache);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(cache.seqLen(a.seq), 4);
    EXPECT_EQ(cache.seqLen(b.seq), 4);

    // Evicting one sequence frees its block; the survivor decodes.
    cache.releaseSequence(b.seq);
    const auto next = m.decodeStepRagged({a}, cache);
    ASSERT_EQ(next.size(), 1u);
    EXPECT_EQ(cache.seqLen(a.seq), 5);
}

TEST(RaggedDecode, PrefixSharedSequenceMatchesFullPrompt)
{
    // A sequence forked from a shared prefix and prefilled only on
    // its suffix must generate exactly what a fresh sequence given
    // the full prompt generates.
    const ModelSpec spec = tinyTestModel();
    TransformerModel m(spec, gemm::Engine::AmxBf16, 27);
    const auto prefix = prompt(spec, 8, 14);
    const auto suffix = prompt(spec, 3, 15);
    std::vector<std::int64_t> full = prefix;
    full.insert(full.end(), suffix.begin(), suffix.end());

    kv::PagedKvCache cache = m.makePagedKvCache(4, 24);
    TransformerModel::RaggedSlot base;
    base.seq = cache.addSequence();
    // Cache the prefix on the base sequence (its first token output
    // is not consumed; only its KV entries matter).
    ASSERT_GE(m.prefillPaged(prefix, base.seq, cache), 0);

    TransformerModel::RaggedSlot fork;
    fork.seq = cache.addSequenceWithPrefix(
        base.seq, static_cast<std::int64_t>(prefix.size()));
    fork.token = m.prefillPaged(suffix, fork.seq, cache);
    ASSERT_GE(fork.token, 0);
    EXPECT_GT(cache.stats().prefixSharedBlocks, 0);

    std::vector<std::int64_t> got{fork.token};
    for (int step = 1; step < 8; ++step) {
        const auto next = m.decodeStepRagged({fork}, cache);
        ASSERT_EQ(next.size(), 1u);
        fork.token = next[0];
        got.push_back(next[0]);
    }
    EXPECT_EQ(got, sequentialGreedy(m, full, 8));
}

} // namespace
} // namespace model
} // namespace cpullm
