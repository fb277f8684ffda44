#include "model/layers.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace cpullm {
namespace model {
namespace {

TEST(Linear, AppliesBias)
{
    const Tensor x = Tensor::fromValues({1, 2}, {1, 2});
    const Tensor w = Tensor::fromValues({2, 3}, {1, 0, 0, 0, 1, 0});
    const Tensor b = Tensor::fromValues({3}, {10, 20, 30});
    const gemm::PreparedB pw(gemm::Engine::Reference, w);
    const Tensor y = linear(gemm::Engine::Reference, x, pw, &b);
    EXPECT_FLOAT_EQ(y.at(0), 11.0f);
    EXPECT_FLOAT_EQ(y.at(1), 22.0f);
    EXPECT_FLOAT_EQ(y.at(2), 30.0f);
}

TEST(LayerNorm, NormalizesRows)
{
    Tensor x = Tensor::fromValues({2, 4},
                                  {1, 2, 3, 4, -5, 0, 5, 10});
    Tensor gamma({4}, DType::F32);
    gamma.fill(1.0f);
    Tensor beta({4}, DType::F32);
    layerNormInPlace(x, gamma, beta);
    for (std::int64_t r = 0; r < 2; ++r) {
        float mean = 0.0f, var = 0.0f;
        for (std::int64_t c = 0; c < 4; ++c)
            mean += x.at(r * 4 + c);
        mean /= 4.0f;
        for (std::int64_t c = 0; c < 4; ++c) {
            const float d = x.at(r * 4 + c) - mean;
            var += d * d;
        }
        EXPECT_NEAR(mean, 0.0f, 1e-5f);
        EXPECT_NEAR(var / 4.0f, 1.0f, 1e-3f);
    }
}

TEST(LayerNorm, GammaBetaApplied)
{
    Tensor x = Tensor::fromValues({1, 2}, {-1, 1});
    Tensor gamma = Tensor::fromValues({2}, {2, 2});
    Tensor beta = Tensor::fromValues({2}, {5, 5});
    layerNormInPlace(x, gamma, beta);
    EXPECT_NEAR(x.at(0), 5.0f - 2.0f, 1e-3f);
    EXPECT_NEAR(x.at(1), 5.0f + 2.0f, 1e-3f);
}

TEST(RmsNorm, UnitRmsAfter)
{
    Rng rng(4);
    Tensor x = Tensor::randomNormal({3, 16}, DType::F32, rng, 3.0f);
    Tensor gamma({16}, DType::F32);
    gamma.fill(1.0f);
    rmsNormInPlace(x, gamma);
    for (std::int64_t r = 0; r < 3; ++r) {
        float ms = 0.0f;
        for (std::int64_t c = 0; c < 16; ++c)
            ms += x.at(r * 16 + c) * x.at(r * 16 + c);
        EXPECT_NEAR(ms / 16.0f, 1.0f, 1e-3f);
    }
}

TEST(Softmax, RowsSumToOne)
{
    Rng rng(6);
    Tensor x = Tensor::randomNormal({4, 9}, DType::F32, rng, 5.0f);
    softmaxRowsInPlace(x);
    for (std::int64_t r = 0; r < 4; ++r) {
        float sum = 0.0f;
        for (std::int64_t c = 0; c < 9; ++c) {
            const float v = x.at(r * 9 + c);
            EXPECT_GE(v, 0.0f);
            sum += v;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(Softmax, StableForLargeLogits)
{
    Tensor x = Tensor::fromValues({1, 3}, {1000, 1001, 1002});
    softmaxRowsInPlace(x);
    EXPECT_FALSE(std::isnan(x.at(0)));
    EXPECT_GT(x.at(2), x.at(1));
    EXPECT_GT(x.at(1), x.at(0));
}

TEST(Activation, ReluClampsNegatives)
{
    Tensor x = Tensor::fromValues({4}, {-2, -0.5, 0, 3});
    activationInPlace(x, Activation::ReLU);
    EXPECT_FLOAT_EQ(x.at(0), 0.0f);
    EXPECT_FLOAT_EQ(x.at(1), 0.0f);
    EXPECT_FLOAT_EQ(x.at(2), 0.0f);
    EXPECT_FLOAT_EQ(x.at(3), 3.0f);
}

TEST(Activation, SiluMatchesDefinition)
{
    Tensor x = Tensor::fromValues({2}, {1.0f, -1.0f});
    activationInPlace(x, Activation::SiLU);
    EXPECT_NEAR(x.at(0), 1.0f / (1.0f + std::exp(-1.0f)), 1e-6f);
    EXPECT_NEAR(x.at(1), -1.0f / (1.0f + std::exp(1.0f)), 1e-6f);
}

TEST(Activation, GeluNearIdentityForLargePositive)
{
    Tensor x = Tensor::fromValues({2}, {10.0f, -10.0f});
    activationInPlace(x, Activation::GELU);
    EXPECT_NEAR(x.at(0), 10.0f, 1e-3f);
    EXPECT_NEAR(x.at(1), 0.0f, 1e-3f);
}

TEST(Rope, PositionZeroIsIdentity)
{
    float v[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    float orig[8];
    std::copy(v, v + 8, orig);
    applyRope(v, 2, 4, 0);
    for (int i = 0; i < 8; ++i)
        EXPECT_FLOAT_EQ(v[i], orig[i]);
}

TEST(Rope, PreservesNorm)
{
    float v[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    double before = 0.0;
    for (float f : v)
        before += f * f;
    applyRope(v, 2, 4, 37);
    double after = 0.0;
    for (float f : v)
        after += f * f;
    EXPECT_NEAR(before, after, 1e-3);
}

TEST(Rope, RelativePhaseProperty)
{
    // The dot product of two RoPE'd vectors depends only on the
    // position difference.
    auto dot_at = [](std::int64_t p1, std::int64_t p2) {
        float a[4] = {1, 0.5f, -0.25f, 2};
        float b[4] = {0.5f, -1, 1, 0.75f};
        applyRope(a, 1, 4, p1);
        applyRope(b, 1, 4, p2);
        float d = 0.0f;
        for (int i = 0; i < 4; ++i)
            d += a[i] * b[i];
        return d;
    };
    EXPECT_NEAR(dot_at(3, 7), dot_at(13, 17), 1e-4f);
    EXPECT_NEAR(dot_at(0, 5), dot_at(20, 25), 1e-4f);
}

TEST(Rope, TableMatchesApplyRopeBitwise)
{
    // The table precomputes the same double-precision cos/sin, so
    // covered positions must rotate bit-identically to applyRope.
    const RopeTable table(8, 32);
    for (std::int64_t pos : {0, 1, 7, 31}) {
        float a[16], b[16];
        for (int i = 0; i < 16; ++i)
            a[i] = b[i] = 0.37f * static_cast<float>(i - 6);
        applyRope(a, 2, 8, pos);
        table.apply(b, 2, pos);
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(a[i], b[i]) << "pos " << pos << " lane " << i;
    }
}

TEST(Rope, TableFallsBackBeyondCoveredPositions)
{
    const RopeTable table(4, 8);
    float a[4] = {1, 0.5f, -0.25f, 2};
    float b[4] = {1, 0.5f, -0.25f, 2};
    applyRope(a, 1, 4, 100); // beyond max_pos of 8
    table.apply(b, 1, 100);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST(ArgmaxRow, PicksMaxPerRow)
{
    const Tensor logits =
        Tensor::fromValues({2, 3}, {0.1f, 5.0f, 2.0f, 7.0f, 1.0f,
                                    3.0f});
    EXPECT_EQ(argmaxRow(logits, 0), 1);
    EXPECT_EQ(argmaxRow(logits, 1), 0);
}

} // namespace
} // namespace model
} // namespace cpullm
