#include "model/transformer.h"

#include <gtest/gtest.h>

#include "engine/inference_engine.h"

namespace cpullm {
namespace model {
namespace {

std::vector<std::vector<std::int64_t>>
testPrompts(const ModelSpec& spec, std::int64_t batch,
            std::int64_t len)
{
    return engine::syntheticPrompts(spec.vocabSize, batch, len, 99);
}

/** A pool of 8-token blocks holding @p batch sequences of 64 tokens. */
kv::PagedKvCache
pool(const TransformerModel& m, std::int64_t batch)
{
    return m.makePagedKvCache(8, batch * 8);
}

/** Logits of one forward pass of @p tokens at the next positions of
 *  @p seqs, one token per sequence. */
Tensor
step(TransformerModel& m, const std::vector<std::int64_t>& tokens,
     const std::vector<std::int64_t>& seqs, kv::PagedKvCache& cache)
{
    std::vector<TransformerModel::RaggedSeqSpan> spans;
    for (const std::int64_t seq : seqs)
        spans.push_back({seq, cache.seqLen(seq), 1});
    return m.forwardRagged(tokens, spans, cache);
}

/** Tiny-OPT: learned positions, LayerNorm, biases, tied head. */
ModelSpec
tinyOptSpec()
{
    ModelSpec spec = tinyTestModel();
    spec.name = "Tiny-OPT";
    spec.norm = NormKind::LayerNorm;
    spec.activation = Activation::ReLU;
    spec.posEmbedding = PosEmbedding::Learned;
    spec.gatedFfn = false;
    spec.linearBias = true;
    spec.tiedEmbedding = true;
    return spec;
}

TEST(Transformer, GeneratesRequestedTokens)
{
    const ModelSpec spec = tinyTestModel();
    TransformerModel m(spec, gemm::Engine::Reference, 1);
    kv::PagedKvCache cache = pool(m, 2);
    const auto out = m.generate(testPrompts(spec, 2, 8), 5, cache);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].size(), 5u);
    EXPECT_EQ(out[1].size(), 5u);
    for (const auto& seq : out)
        for (auto tok : seq)
            EXPECT_LT(tok, spec.vocabSize);
    for (const std::int64_t seq : {0, 1})
        EXPECT_EQ(cache.seqLen(seq), 8 + 4); // prompt + 4 decodes
}

TEST(Transformer, DeterministicForSameSeed)
{
    const ModelSpec spec = tinyTestModel();
    TransformerModel m1(spec, gemm::Engine::Reference, 7);
    TransformerModel m2(spec, gemm::Engine::Reference, 7);
    kv::PagedKvCache c1 = pool(m1, 1);
    kv::PagedKvCache c2 = pool(m2, 1);
    const auto p = testPrompts(spec, 1, 6);
    EXPECT_EQ(m1.generate(p, 8, c1), m2.generate(p, 8, c2));
}

TEST(Transformer, DifferentSeedsGiveDifferentModels)
{
    const ModelSpec spec = tinyTestModel();
    TransformerModel m1(spec, gemm::Engine::Reference, 7);
    TransformerModel m2(spec, gemm::Engine::Reference, 8);
    kv::PagedKvCache c1 = pool(m1, 1);
    kv::PagedKvCache c2 = pool(m2, 1);
    const auto p = testPrompts(spec, 1, 6);
    EXPECT_NE(m1.generate(p, 8, c1), m2.generate(p, 8, c2));
}

TEST(Transformer, AmxAndAvx512AgreeTokenForToken)
{
    // The two BF16 engines implement the same arithmetic; greedy
    // decoding should agree token for token on a tiny model.
    const ModelSpec spec = tinyTestModel();
    TransformerModel amx(spec, gemm::Engine::AmxBf16, 21);
    TransformerModel avx(spec, gemm::Engine::Avx512Bf16, 21);
    kv::PagedKvCache c1 = pool(amx, 2);
    kv::PagedKvCache c2 = pool(avx, 2);
    const auto p = testPrompts(spec, 2, 10);
    EXPECT_EQ(amx.generate(p, 12, c1), avx.generate(p, 12, c2));
}

TEST(Transformer, WeightQuantTracksPerLayerError)
{
    const ModelSpec spec = tinyTestModel();
    const TransformerModel native(spec, gemm::Engine::AmxBf16, 13);
    EXPECT_EQ(native.weightQuant(), gemm::WeightDtype::Native);
    for (const auto& e : native.layerQuantErrors()) {
        EXPECT_EQ(e.maxAbsErr, 0.0);
        EXPECT_EQ(e.rmsErr, 0.0);
    }

    const TransformerModel q8(spec, gemm::Engine::AmxBf16, 13,
                              gemm::WeightDtype::I8Grouped);
    const TransformerModel q4(spec, gemm::Engine::AmxBf16, 13,
                              gemm::WeightDtype::I4Grouped);
    const auto e8 = q8.layerQuantErrors();
    const auto e4 = q4.layerQuantErrors();
    ASSERT_EQ(e8.size(),
              static_cast<std::size_t>(spec.numLayers));
    ASSERT_EQ(e4.size(), e8.size());
    for (std::size_t i = 0; i < e8.size(); ++i) {
        EXPECT_GT(e8[i].maxAbsErr, 0.0) << "layer " << i;
        EXPECT_GT(e8[i].rmsErr, 0.0) << "layer " << i;
        // INT4 steps are 16x coarser than INT8 on the same weights.
        EXPECT_GT(e4[i].maxAbsErr, e8[i].maxAbsErr) << "layer " << i;
        EXPECT_GT(e4[i].rmsErr, e8[i].rmsErr) << "layer " << i;
    }
}

TEST(Transformer, QuantizedModelStillGenerates)
{
    // Quantized weights change logits but not the contract: greedy
    // decode over the fused dequant kernels must produce in-vocab
    // tokens deterministically.
    const ModelSpec spec = tinyTestModel();
    TransformerModel m1(spec, gemm::Engine::AmxBf16, 17,
                        gemm::WeightDtype::I4Grouped);
    TransformerModel m2(spec, gemm::Engine::AmxBf16, 17,
                        gemm::WeightDtype::I4Grouped);
    kv::PagedKvCache c1 = pool(m1, 1);
    kv::PagedKvCache c2 = pool(m2, 1);
    const auto p = testPrompts(spec, 1, 6);
    const auto out1 = m1.generate(p, 8, c1);
    const auto out2 = m2.generate(p, 8, c2);
    EXPECT_EQ(out1, out2);
    for (const auto& seq : out1)
        for (auto tok : seq)
            EXPECT_LT(tok, spec.vocabSize);
}

TEST(Transformer, Bf16EnginesTrackFp32Reference)
{
    // Logits from the BF16 engines must stay close to the FP32
    // reference on the same weights (same seed -> same weights).
    const ModelSpec spec = tinyTestModel();
    TransformerModel ref(spec, gemm::Engine::Reference, 5);
    TransformerModel amx(spec, gemm::Engine::AmxBf16, 5);
    kv::PagedKvCache c1 = pool(ref, 1);
    kv::PagedKvCache c2 = pool(amx, 1);
    const Tensor l1 = step(ref, {3}, {c1.addSequence()}, c1);
    const Tensor l2 = step(amx, {3}, {c2.addSequence()}, c2);
    EXPECT_LE(maxAbsDiff(l1, l2), 0.15f);
}

TEST(Transformer, PrefillThenDecodeMatchesAllAtOnceContext)
{
    // Decoding one extra token after a prefill of N must equal the
    // prefill of the same N+1-token prompt (KV-cache correctness).
    const ModelSpec spec = tinyTestModel();
    TransformerModel m(spec, gemm::Engine::Reference, 13);

    const auto p9 = testPrompts(spec, 1, 9);
    std::vector<std::vector<std::int64_t>> p8{
        {p9[0].begin(), p9[0].end() - 1}};

    kv::PagedKvCache c1 = pool(m, 1);
    const std::int64_t s1 = m.prefill(p8, c1)[0].seq;
    const Tensor via_decode = step(m, {p9[0].back()}, {s1}, c1);

    TransformerModel m2(spec, gemm::Engine::Reference, 13);
    kv::PagedKvCache c2 = pool(m2, 1);
    const std::int64_t s2 = c2.addSequence();
    Tensor via_prefill;
    for (const std::int64_t tok : p9[0])
        via_prefill = step(m2, {tok}, {s2}, c2);
    EXPECT_LE(maxAbsDiff(via_decode, via_prefill), 1e-4f);
}

TEST(Transformer, BatchedPrefillMatchesStepwiseForward)
{
    // A prefill span runs the whole prompt in one pass through the
    // fused causal kernel; it must agree with one-position-at-a-time
    // passes on the same model (GQA spec, so the grouped kv path is
    // covered).
    ModelSpec spec = tinyTestModel();
    spec.numKvHeads = 2;
    TransformerModel m(spec, gemm::Engine::Avx512Bf16, 23);
    const auto prompts = testPrompts(spec, 2, 7);

    kv::PagedKvCache c1 = pool(m, 2);
    std::vector<std::int64_t> flat;
    std::vector<TransformerModel::RaggedSeqSpan> spans;
    for (const auto& p : prompts) {
        flat.insert(flat.end(), p.begin(), p.end());
        spans.push_back({c1.addSequence(), 0, 7});
    }
    const Tensor batched = m.forwardRagged(flat, spans, c1);
    EXPECT_EQ(c1.seqLen(spans[1].seq), 7);

    kv::PagedKvCache c2 = pool(m, 2);
    const std::vector<std::int64_t> seqs{c2.addSequence(),
                                         c2.addSequence()};
    Tensor stepwise;
    for (std::size_t pos = 0; pos < 7; ++pos)
        stepwise = step(m, {prompts[0][pos], prompts[1][pos]}, seqs, c2);
    EXPECT_LE(maxAbsDiff(batched, stepwise), 1e-4f);

    // And the caches they leave behind are identical entry for entry.
    std::vector<float> k1(static_cast<std::size_t>(spec.dKv()));
    std::vector<float> k2(k1.size());
    for (std::int64_t l = 0; l < spec.numLayers; ++l) {
        for (std::size_t b = 0; b < 2; ++b) {
            for (std::int64_t p = 0; p < 7; ++p) {
                c1.readK(spans[b].seq, l, p, k1.data());
                c2.readK(seqs[b], l, p, k2.data());
                ASSERT_EQ(k1, k2) << "l=" << l << " b=" << b
                                  << " p=" << p;
            }
        }
    }
}

TEST(Transformer, BatchEntriesIndependent)
{
    // Sequence 0's output must not depend on what sequence 1 contains.
    const ModelSpec spec = tinyTestModel();
    TransformerModel m(spec, gemm::Engine::Reference, 17);

    auto prompts = testPrompts(spec, 2, 6);
    kv::PagedKvCache c1 = pool(m, 2);
    const auto out_a = m.generate(prompts, 6, c1);

    auto prompts_b = prompts;
    for (auto& tok : prompts_b[1])
        tok = (tok + 13) % spec.vocabSize; // perturb sequence 1 only
    TransformerModel m2(spec, gemm::Engine::Reference, 17);
    kv::PagedKvCache c2 = pool(m2, 2);
    const auto out_b = m2.generate(prompts_b, 6, c2);

    EXPECT_EQ(out_a[0], out_b[0]);
    EXPECT_NE(out_a[1], out_b[1]);
}

TEST(Transformer, OptStyleArchitectureRuns)
{
    const ModelSpec spec = tinyOptSpec();
    TransformerModel m(spec, gemm::Engine::AmxBf16, 3);
    kv::PagedKvCache cache = pool(m, 1);
    const auto out = m.generate(testPrompts(spec, 1, 4), 4, cache);
    EXPECT_EQ(out[0].size(), 4u);
}

TEST(Transformer, GqaArchitectureRuns)
{
    ModelSpec spec = tinyTestModel();
    spec.name = "Tiny-GQA";
    spec.numKvHeads = 2; // 4 heads share 2 KV heads
    spec.validate();
    TransformerModel m(spec, gemm::Engine::Reference, 3);
    kv::PagedKvCache cache = pool(m, 1);
    EXPECT_EQ(cache.dKv(), spec.dKv());
    const auto out = m.generate(testPrompts(spec, 1, 4), 3, cache);
    EXPECT_EQ(out[0].size(), 3u);
}

TEST(Transformer, UnequalPromptLengthsMatchEachPromptAlone)
{
    // One prefill pass over prompts of different lengths, then fused
    // decode steps at different positions: each prompt's tokens must
    // be bitwise those it generates alone.
    const ModelSpec spec = tinyTestModel();
    TransformerModel m(spec, gemm::Engine::AmxBf16, 19);
    std::vector<std::vector<std::int64_t>> prompts;
    for (const std::int64_t len : {3, 9, 5})
        prompts.push_back(engine::syntheticPrompts(
            spec.vocabSize, 1, len, static_cast<std::uint64_t>(len))[0]);
    kv::PagedKvCache cache = pool(m, 3);
    const auto together = m.generate(prompts, 6, cache);
    ASSERT_EQ(together.size(), prompts.size());
    for (std::size_t b = 0; b < prompts.size(); ++b) {
        kv::PagedKvCache solo = pool(m, 1);
        EXPECT_EQ(together[b], m.generate({prompts[b]}, 6, solo)[0])
            << "prompt " << b;
    }
}

TEST(TransformerDeath, TokenOutOfVocabPanics)
{
    const ModelSpec spec = tinyTestModel();
    TransformerModel m(spec, gemm::Engine::Reference, 1);
    kv::PagedKvCache cache = pool(m, 1);
    const std::int64_t seq = cache.addSequence();
    EXPECT_DEATH(m.prefillPaged({spec.vocabSize}, seq, cache),
                 "out of vocab");
}

TEST(TransformerDeath, PromptPastMaxSeqLenPanics)
{
    // Learned positions index a [maxSeqLen, d] table: a span that
    // reaches past it must be refused before anything is read.
    const ModelSpec spec = tinyOptSpec();
    TransformerModel m(spec, gemm::Engine::Reference, 1);
    kv::PagedKvCache cache = m.makePagedKvCache(8, 16);
    const std::int64_t seq = cache.addSequence();
    const auto prompt = testPrompts(spec, 1, spec.maxSeqLen + 8)[0];
    EXPECT_DEATH(m.prefillPaged(prompt, seq, cache),
                 "past max sequence length");
}

} // namespace
} // namespace model
} // namespace cpullm
