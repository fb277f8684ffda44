#include <gtest/gtest.h>

#include "engine/inference_engine.h"
#include "model/transformer.h"
#include "perf/cpu_model.h"
#include "util/units.h"

namespace cpullm {
namespace perf {
namespace {

Workload
int8Workload(std::int64_t batch)
{
    // Weight-only quantization: INT8 weights, BF16 activations/KV.
    Workload w = paperWorkload(batch);
    w.dtype = DType::I8;
    return w;
}

TEST(Int8Peaks, TwiceBf16OnAmx)
{
    const CpuPerfModel spr(hw::sprDefaultPlatform());
    EXPECT_NEAR(spr.peakFlops(DType::I8) / spr.peakFlops(DType::BF16),
                2.0, 1e-9);
}

TEST(Int8Peaks, VnniOnIcl)
{
    const CpuPerfModel icl(hw::iclDefaultPlatform());
    EXPECT_NEAR(icl.peakFlops(DType::I8) / TFLOPS, 36.0, 1e-6);
}

TEST(Int8Decode, NearlyDoublesDecodeThroughput)
{
    // Decode is weight-bandwidth-bound: halving the weight bytes
    // should get close to 2x tokens/s.
    const CpuPerfModel spr(hw::sprDefaultPlatform());
    const auto m = model::opt13b();
    const auto bf16 = spr.run(m, paperWorkload(1));
    const auto int8 = spr.run(m, int8Workload(1));
    const double gain = int8.decodeThroughput / bf16.decodeThroughput;
    EXPECT_GT(gain, 1.6);
    EXPECT_LT(gain, 2.1);
}

TEST(Int8Decode, KvTrafficUnchangedUnderWeightOnlyQuant)
{
    const auto bf16_ops = buildPhaseOps(model::opt13b(),
                                        Phase::Decode,
                                        paperWorkload(4), 160);
    const auto int8_ops = buildPhaseOps(model::opt13b(),
                                        Phase::Decode,
                                        int8Workload(4), 160);
    EXPECT_EQ(sumOps(bf16_ops).kvBytes, sumOps(int8_ops).kvBytes);
    EXPECT_NEAR(static_cast<double>(sumOps(int8_ops).weightBytes) /
                    static_cast<double>(sumOps(bf16_ops).weightBytes),
                0.5, 1e-9);
}

TEST(Int8Capacity, Opt66bFitsEntirelyInHbm)
{
    // 66 GB of INT8 weights fit one socket's 64 GiB HBM almost
    // entirely, where BF16 spilled half to DDR -- a capacity win the
    // quantization related-work [48] targets.
    engine::CpuInferenceEngine eng(hw::sprDefaultPlatform(),
                                   model::opt66b());
    const auto bf16 = eng.infer(paperWorkload(1));
    const auto int8 = eng.infer(int8Workload(1));
    EXPECT_GT(int8.weightsHbmFraction,
              bf16.weightsHbmFraction + 0.3);
}

TEST(Int8Prefill, FasterThanBf16)
{
    const CpuPerfModel spr(hw::sprDefaultPlatform());
    const auto m = model::llama2_13b();
    EXPECT_LT(spr.run(m, int8Workload(32)).ttft,
              spr.run(m, paperWorkload(32)).ttft);
}

TEST(Int8GemmThroughput, ExceedsBf16AtLargeSizes)
{
    const CpuPerfModel spr(hw::sprDefaultPlatform());
    EXPECT_GT(spr.gemmThroughput(4096, 4096, 4096, DType::I8),
              1.5 * spr.gemmThroughput(4096, 4096, 4096, DType::BF16));
}

TEST(Int8Functional, TinyModelGeneratesThroughTdpbssd)
{
    // The INT8 path is functional end to end: greedy generation runs
    // through the emulated TDPBSSD kernels.
    const auto spec = model::tinyTestModel();
    model::TransformerModel m(spec, gemm::Engine::AmxI8, 7);
    kv::PagedKvCache cache = m.makePagedKvCache(8, 3);
    const auto prompts =
        engine::syntheticPrompts(spec.vocabSize, 1, 8, 3);
    const auto out = m.generate(prompts, 6, cache);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].size(), 6u);
    for (auto tok : out[0]) {
        EXPECT_GE(tok, 0);
        EXPECT_LT(tok, spec.vocabSize);
    }
}

TEST(Int8Functional, LogitsCorrelateWithFp32Reference)
{
    const auto spec = model::tinyTestModel();
    model::TransformerModel ref(spec, gemm::Engine::Reference, 9);
    model::TransformerModel q(spec, gemm::Engine::AmxI8, 9);
    kv::PagedKvCache c1 = ref.makePagedKvCache(8, 1);
    kv::PagedKvCache c2 = q.makePagedKvCache(8, 1);
    const Tensor l1 = ref.forwardRagged({5}, {{c1.addSequence(), 0, 1}}, c1);
    const Tensor l2 = q.forwardRagged({5}, {{c2.addSequence(), 0, 1}}, c2);
    // Per-tensor INT8 is coarse; require bounded deviation, not bit
    // equality.
    EXPECT_LE(maxAbsDiff(l1, l2), 1.5f);
}

} // namespace
} // namespace perf
} // namespace cpullm
