#include "engine/inference_engine.h"

#include <gtest/gtest.h>

#include "util/units.h"

namespace cpullm {
namespace engine {
namespace {

TEST(SyntheticPrompts, ShapeAndRange)
{
    const auto p = syntheticPrompts(100, 3, 16, 5);
    ASSERT_EQ(p.size(), 3u);
    for (const auto& seq : p) {
        EXPECT_EQ(seq.size(), 16u);
        for (auto tok : seq) {
            EXPECT_GE(tok, 0);
            EXPECT_LT(tok, 100);
        }
    }
}

TEST(SyntheticPrompts, DeterministicBySeed)
{
    EXPECT_EQ(syntheticPrompts(50, 2, 8, 1),
              syntheticPrompts(50, 2, 8, 1));
    EXPECT_NE(syntheticPrompts(50, 2, 8, 1),
              syntheticPrompts(50, 2, 8, 2));
}

TEST(Engine, GemmEngineFollowsPlatform)
{
    CpuInferenceEngine spr(hw::sprDefaultPlatform(),
                           model::tinyTestModel());
    EXPECT_EQ(static_cast<int>(spr.gemmEngine()),
              static_cast<int>(gemm::Engine::AmxBf16));
    CpuInferenceEngine icl(hw::iclDefaultPlatform(),
                           model::tinyTestModel());
    EXPECT_EQ(static_cast<int>(icl.gemmEngine()),
              static_cast<int>(gemm::Engine::Avx512Bf16));
}

TEST(Engine, TimingOnlyProducesNoTokens)
{
    CpuInferenceEngine eng(hw::sprDefaultPlatform(),
                           model::opt13b());
    const auto r = eng.infer(perf::paperWorkload(2));
    EXPECT_TRUE(r.generatedTokens.empty());
    EXPECT_GT(r.timing.e2eLatency, 0.0);
    EXPECT_GT(r.counters.instructions, 0.0);
}

TEST(Engine, RegionsReportedForWorkload)
{
    CpuInferenceEngine eng(hw::sprDefaultPlatform(),
                           model::opt13b());
    const auto r = eng.infer(perf::paperWorkload(8));
    EXPECT_EQ(r.regions.weights,
              model::opt13b().weightBytes(DType::BF16));
    EXPECT_EQ(r.regions.kvCache,
              model::opt13b().kvCacheBytes(160, 8, DType::BF16));
    // OPT-13B fits HBM entirely under quad_flat.
    EXPECT_DOUBLE_EQ(r.weightsHbmFraction, 1.0);
}

TEST(Engine, LargeModelPartiallyInHbm)
{
    CpuInferenceEngine eng(hw::sprDefaultPlatform(),
                           model::opt66b());
    const auto r = eng.infer(perf::paperWorkload(1));
    EXPECT_GT(r.weightsHbmFraction, 0.3);
    EXPECT_LT(r.weightsHbmFraction, 0.7);
}

TEST(Engine, FunctionalModeGeneratesAndTimes)
{
    CpuInferenceEngine eng(hw::sprDefaultPlatform(),
                           model::tinyTestModel(),
                           ExecutionMode::FunctionalAndTiming, 11);
    perf::Workload w;
    w.batch = 2;
    w.promptLen = 8;
    w.genLen = 4;
    const auto r = eng.infer(w);
    ASSERT_EQ(r.generatedTokens.size(), 2u);
    EXPECT_EQ(r.generatedTokens[0].size(), 4u);
    EXPECT_GT(r.timing.e2eLatency, 0.0);
}

TEST(Engine, FunctionalOutputsMatchStandaloneTransformer)
{
    const auto spec = model::tinyTestModel();
    CpuInferenceEngine eng(hw::sprDefaultPlatform(), spec,
                           ExecutionMode::FunctionalAndTiming, 11);
    perf::Workload w;
    w.batch = 1;
    w.promptLen = 6;
    w.genLen = 5;
    const auto r = eng.infer(w);

    model::TransformerModel m(spec, gemm::Engine::AmxBf16, 11);
    kv::PagedKvCache cache = m.makePagedKvCache(8, 2);
    const auto prompts =
        syntheticPrompts(spec.vocabSize, 1, w.promptLen, 12);
    const auto want = m.generate(prompts, w.genLen, cache);
    EXPECT_EQ(r.generatedTokens, want);
}

TEST(EngineDeath, FunctionalModeRefusesPaperScaleModels)
{
    EXPECT_EXIT(CpuInferenceEngine(hw::sprDefaultPlatform(),
                                   model::opt13b(),
                                   ExecutionMode::FunctionalAndTiming),
                testing::ExitedWithCode(1), "TimingOnly");
}

TEST(EngineDeath, FunctionalModeRefusesOverlongSequence)
{
    CpuInferenceEngine eng(hw::sprDefaultPlatform(),
                           model::tinyTestModel(),
                           ExecutionMode::FunctionalAndTiming);
    perf::Workload w;
    w.batch = 1;
    w.promptLen = 100; // tiny model maxSeqLen is 64
    w.genLen = 4;
    EXPECT_EXIT(eng.infer(w), testing::ExitedWithCode(1),
                "exceeds");
}

TEST(Engine, CountersAggregateBothPhases)
{
    CpuInferenceEngine eng(hw::sprDefaultPlatform(),
                           model::llama2_7b());
    const auto r = eng.infer(perf::paperWorkload(4));
    const auto& prefill = r.timing.prefill.counters;
    EXPECT_GT(r.counters.instructions, prefill.instructions);
    EXPECT_GT(r.counters.llcMisses, prefill.llcMisses);
    EXPECT_GT(r.counters.coreUtilization, 0.0);
    EXPECT_LE(r.counters.coreUtilization, 1.0);
}

} // namespace
} // namespace engine
} // namespace cpullm
