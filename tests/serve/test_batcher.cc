#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "engine/inference_engine.h"
#include "model/spec.h"

namespace cpullm {
namespace serve {
namespace {

std::vector<std::int64_t>
prompt(const model::ModelSpec& spec, std::int64_t len,
       std::uint64_t seed)
{
    return engine::syntheticPrompts(spec.vocabSize, 1, len, seed)[0];
}

/** Ground truth: the sequence generated alone on its own cache. */
std::vector<std::int64_t>
sequential(model::TransformerModel& m,
           const std::vector<std::int64_t>& p, std::int64_t gen_len)
{
    kv::PagedKvCache cache =
        m.makePagedKvCache(8, (m.spec().maxSeqLen + 7) / 8);
    return m.generate({p}, gen_len, cache)[0];
}

TEST(ContinuousBatcher, CompletionsMatchSequentialGreedy)
{
    const model::ModelSpec spec = model::tinyTestModel();
    model::TransformerModel m(spec, gemm::Engine::AmxBf16, 31);

    BatcherConfig cfg;
    cfg.maxBatch = 3; // five requests -> queueing + slot reuse
    cfg.blockSize = 4;
    cfg.numBlocks = 48;
    ContinuousBatcher b(m, cfg);

    const std::int64_t plens[] = {4, 7, 11, 5, 9};
    const std::int64_t glens[] = {6, 9, 4, 8, 5};
    std::vector<BatchRequest> reqs;
    for (int i = 0; i < 5; ++i)
        b.submit({prompt(spec, plens[i],
                         static_cast<std::uint64_t>(40 + i)),
                  glens[i]});
    const auto outs = b.run();

    ASSERT_EQ(outs.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        const auto p = prompt(spec, plens[i],
                              static_cast<std::uint64_t>(40 + i));
        EXPECT_EQ(outs[static_cast<std::size_t>(i)],
                  sequential(m, p, glens[i]))
            << "request " << i;
    }

    const BatchStats& s = b.stats();
    EXPECT_EQ(s.admitted, 5);
    EXPECT_EQ(s.retired, 5);
    EXPECT_LE(s.peakOccupancy, cfg.maxBatch);
    EXPECT_GE(s.peakOccupancy, 2); // it actually batched
    EXPECT_GT(s.steps, 0);
    EXPECT_GE(s.meanOccupancy(), 1.0);
    EXPECT_EQ(s.preemptions, 0);
    EXPECT_EQ(s.decodedTokens + s.admitted,
              6 + 9 + 4 + 8 + 5); // prefill yields 1 token each
}

TEST(ContinuousBatcher, PreemptionPreservesCompletions)
{
    const model::ModelSpec spec = model::tinyTestModel();
    model::TransformerModel m(spec, gemm::Engine::AmxBf16, 32);

    // Two sequences of 7 + 8 tokens need 4 blocks each at the end;
    // 6 blocks of 4 force an eviction mid-decode.
    BatcherConfig cfg;
    cfg.maxBatch = 2;
    cfg.blockSize = 4;
    cfg.numBlocks = 6;
    ContinuousBatcher b(m, cfg);
    const auto pa = prompt(spec, 7, 50);
    const auto pb = prompt(spec, 7, 51);
    b.submit({pa, 8});
    b.submit({pb, 8});
    const auto outs = b.run();

    EXPECT_GT(b.stats().preemptions, 0);
    ASSERT_EQ(outs.size(), 2u);
    EXPECT_EQ(outs[0], sequential(m, pa, 8));
    EXPECT_EQ(outs[1], sequential(m, pb, 8));
}

TEST(ContinuousBatcher, PoolPressureDefersAdmission)
{
    const model::ModelSpec spec = model::tinyTestModel();
    model::TransformerModel m(spec, gemm::Engine::AmxBf16, 33);

    // Slots for three, blocks for barely two: the third admission is
    // rejected until a retirement frees blocks.
    BatcherConfig cfg;
    cfg.maxBatch = 3;
    cfg.blockSize = 4;
    cfg.numBlocks = 5;
    cfg.prefixCache = false;
    ContinuousBatcher b(m, cfg);
    std::vector<std::vector<std::int64_t>> ps;
    for (int i = 0; i < 3; ++i) {
        ps.push_back(prompt(spec, 6,
                            static_cast<std::uint64_t>(60 + i)));
        b.submit({ps.back(), 4});
    }
    const auto outs = b.run();

    EXPECT_GT(b.stats().admissionRejections, 0);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(outs[static_cast<std::size_t>(i)],
                  sequential(m, ps[static_cast<std::size_t>(i)], 4))
            << "request " << i;
}

TEST(ContinuousBatcher, PrefixCacheSharesCommonPromptBlocks)
{
    const model::ModelSpec spec = model::tinyTestModel();
    model::TransformerModel m(spec, gemm::Engine::AmxBf16, 34);

    // A shared 9-token system prompt with distinct 3-token tails.
    const auto sys = prompt(spec, 9, 70);
    std::vector<std::vector<std::int64_t>> ps;
    for (int i = 0; i < 3; ++i) {
        auto p = sys;
        const auto tail =
            prompt(spec, 3, static_cast<std::uint64_t>(71 + i));
        p.insert(p.end(), tail.begin(), tail.end());
        ps.push_back(std::move(p));
    }

    BatcherConfig cfg;
    cfg.maxBatch = 3;
    cfg.blockSize = 4;
    cfg.numBlocks = 32;
    ContinuousBatcher shared(m, cfg);
    for (const auto& p : ps)
        shared.submit({p, 6});
    const auto outs = shared.run();

    EXPECT_GT(shared.stats().prefixHits, 0);
    EXPECT_GT(shared.stats().prefixTokensReused, 0);
    EXPECT_GT(shared.pool().stats().prefixSharedBlocks, 0);

    // Sharing is a memory optimization only: completions are the
    // per-sequence greedy continuations either way.
    cfg.prefixCache = false;
    ContinuousBatcher isolated(m, cfg);
    for (const auto& p : ps)
        isolated.submit({p, 6});
    EXPECT_EQ(outs, isolated.run());
    EXPECT_EQ(isolated.stats().prefixHits, 0);
    for (std::size_t i = 0; i < ps.size(); ++i)
        EXPECT_EQ(outs[i], sequential(m, ps[i], 6));

    // The shared run prefilled fewer prompt tokens.
    EXPECT_LT(shared.stats().prefillTokens,
              isolated.stats().prefillTokens);
}

TEST(ContinuousBatcher, StreamsManyRequestsThroughFewSlots)
{
    const model::ModelSpec spec = model::tinyTestModel();
    model::TransformerModel m(spec, gemm::Engine::AmxBf16, 35);

    BatcherConfig cfg;
    cfg.maxBatch = 2;
    cfg.blockSize = 4;
    cfg.numBlocks = 24;
    ContinuousBatcher b(m, cfg);
    std::vector<std::vector<std::int64_t>> ps;
    for (int i = 0; i < 7; ++i) {
        ps.push_back(
            prompt(spec, 3 + i % 4,
                   static_cast<std::uint64_t>(80 + i)));
        b.submit({ps.back(), 3 + i % 3});
    }
    const auto outs = b.run();
    ASSERT_EQ(outs.size(), 7u);
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(outs[static_cast<std::size_t>(i)],
                  sequential(m, ps[static_cast<std::size_t>(i)],
                             3 + i % 3))
            << "request " << i;
    EXPECT_EQ(b.stats().retired, 7);
    EXPECT_LE(b.stats().peakOccupancy, 2);
}

} // namespace
} // namespace serve
} // namespace cpullm
