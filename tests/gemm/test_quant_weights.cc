#include "gemm/packed_weights.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "gemm/gemm.h"
#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace cpullm {
namespace gemm {
namespace {

Tensor
randomMatrix(std::int64_t r, std::int64_t c, std::uint64_t seed)
{
    Rng rng(seed);
    return Tensor::randomUniform({r, c}, DType::F32, rng, -1.0f, 1.0f);
}

bool
bitwiseEqual(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

/** Restores the thread cap and backend on scope exit. */
struct ParallelConfigGuard
{
    ~ParallelConfigGuard()
    {
        setMaxThreads(0);
        setParallelBackend(ParallelBackend::Pool);
    }
};

/** Per-group absmax of column @p j over group @p g of b[K,N]. */
float
groupAbsMax(const Tensor& b, std::int64_t j, std::int64_t g,
            std::int64_t group)
{
    const std::int64_t k = b.dim(0);
    const std::int64_t n = b.dim(1);
    const std::int64_t k0 = g * group;
    const std::int64_t kend = std::min(k, k0 + group);
    float m = 0.0f;
    for (std::int64_t kk = k0; kk < kend; ++kk)
        m = std::max(m, std::fabs(b.data<float>()[kk * n + j]));
    return m;
}

class GroupRoundTrip : public testing::TestWithParam<std::int64_t>
{
};

// Round-to-nearest group quantization bounds every element's dequant
// error by half the group step: absmax/254 for INT8 codes (-127..127)
// and absmax/14 for symmetric INT4 codes (-7..7).
TEST_P(GroupRoundTrip, I8gWithinHalfStep)
{
    const std::int64_t group = GetParam();
    const Tensor b = randomMatrix(3 * group + 5, 9,
                                  400 + static_cast<unsigned>(group));
    const std::int64_t k = b.dim(0), n = b.dim(1);
    const PackedWeightsI8G q(b.data<float>(), k, n, group);
    double worst = 0.0;
    for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const float bound =
                groupAbsMax(b, j, kk / group, group) / 254.0f;
            const double err =
                std::fabs(q.dequant(kk, j) -
                          b.data<float>()[kk * n + j]);
            EXPECT_LE(err, bound + 1e-7) << "k=" << kk << " j=" << j;
            worst = std::max(worst, err);
        }
    // The ctor's recorded aggregate is the same worst element (it
    // accumulates in double where dequant() rounds through float).
    EXPECT_NEAR(q.maxAbsErr(), worst, 1e-6);
    EXPECT_GT(q.errSumSq(), 0.0);
}

TEST_P(GroupRoundTrip, I4gSymmetricWithinHalfStep)
{
    const std::int64_t group = GetParam();
    const Tensor b = randomMatrix(2 * group + 21, 7,
                                  500 + static_cast<unsigned>(group));
    const std::int64_t k = b.dim(0), n = b.dim(1);
    const PackedWeightsI4G q(b.data<float>(), k, n, group);
    EXPECT_FALSE(q.withOffset());
    for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const float bound =
                groupAbsMax(b, j, kk / group, group) / 14.0f;
            EXPECT_LE(std::fabs(q.dequant(kk, j) -
                                b.data<float>()[kk * n + j]),
                      bound + 1e-7)
                << "k=" << kk << " j=" << j;
        }
}

// The affine (NF4-style) mode bounds the error by half the group's
// (max-min)/15 step instead, which is tighter on one-sided data.
TEST_P(GroupRoundTrip, I4gAffineWithinHalfStep)
{
    const std::int64_t group = GetParam();
    Rng rng(600 + static_cast<unsigned>(group));
    const Tensor b = Tensor::randomUniform({group * 2 + 3, 5},
                                           DType::F32, rng, 0.2f, 1.0f);
    const std::int64_t k = b.dim(0), n = b.dim(1);
    const PackedWeightsI4G q(b.data<float>(), k, n, group,
                             /*with_offset=*/true);
    EXPECT_TRUE(q.withOffset());
    for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const std::int64_t g = kk / group;
            const std::int64_t k0 = g * group;
            const std::int64_t kend = std::min(k, k0 + group);
            float vmin = b.data<float>()[k0 * n + j], vmax = vmin;
            for (std::int64_t t = k0; t < kend; ++t) {
                const float v = b.data<float>()[t * n + j];
                vmin = std::min(vmin, v);
                vmax = std::max(vmax, v);
            }
            EXPECT_LE(std::fabs(q.dequant(kk, j) -
                                b.data<float>()[kk * n + j]),
                      (vmax - vmin) / 30.0f + 1e-7)
                << "k=" << kk << " j=" << j;
        }
}

INSTANTIATE_TEST_SUITE_P(Groups, GroupRoundTrip,
                         testing::Values<std::int64_t>(32, 64, 128));

// Nibble packing is exact: codes already in the 4-bit range must
// survive the planar pack/unpack byte gymnastics bit for bit.
TEST(NibblePack, PlanarPackUnpackExact)
{
    const std::int64_t k = 61, n = 3, group = 16;
    // b[kk][j] = (kk*7 + j*3) % 15 - 7 spans every symmetric code.
    std::vector<float> b(static_cast<std::size_t>(k * n));
    for (std::int64_t kk = 0; kk < k; ++kk)
        for (std::int64_t j = 0; j < n; ++j)
            b[static_cast<std::size_t>(kk * n + j)] =
                static_cast<float>((kk * 7 + j * 3) % 15 - 7);
    const PackedWeightsI4G q(b.data(), k, n, group);
    for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const int expect =
                static_cast<int>((kk * 7 + j * 3) % 15 - 7);
            // code() is the planar accessor; compare both the raw
            // unsigned nibble and the dequantized value. Scale is
            // absmax/7 = 1 whenever the group contains a +/-7.
            EXPECT_EQ(q.code(kk, j) - PackedWeightsI4G::kSymBias,
                      expect)
                << "k=" << kk << " j=" << j;
        }
    EXPECT_EQ(q.maxAbsErr(), 0.0);
}

// The planar byte layout itself: element i of a 16-block lives in the
// low nibble of byte i, element i+8 in the high nibble of byte i.
TEST(NibblePack, PlanarByteLayout)
{
    const std::int64_t k = 32, n = 1, group = 32;
    std::vector<float> b(static_cast<std::size_t>(k));
    for (std::int64_t kk = 0; kk < k; ++kk)
        b[static_cast<std::size_t>(kk)] =
            static_cast<float>(kk % 15 - 7);
    const PackedWeightsI4G q(b.data(), k, n, group);
    const std::uint8_t* row = q.row(0);
    for (std::int64_t kk = 0; kk < k; ++kk) {
        const std::int64_t block = kk / 16, r = kk % 16;
        const std::uint8_t byte = row[block * 8 + (r % 8)];
        const int u = r < 8 ? (byte & 0xf) : (byte >> 4);
        EXPECT_EQ(u, q.code(kk, 0)) << "k=" << kk;
    }
}

// Padding bytes past K hold the symmetric zero code so dequant() of
// the padded tail is exactly zero.
TEST(NibblePack, PaddingDequantsToZero)
{
    const std::int64_t k = 40, n = 2, group = 32;
    const Tensor b = randomMatrix(k, n, 77);
    const PackedWeightsI4G q(b.data<float>(), k, n, group);
    ASSERT_EQ(q.kPad(), 64);
    for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t kk = k; kk < q.kPad(); ++kk)
            EXPECT_EQ(q.dequant(kk, j), 0.0f)
                << "k=" << kk << " j=" << j;
}

// The fused kernels must agree with an FP32 dot over the dequantized
// weights: same math, different association, so a small K-scaled
// tolerance instead of bitwise.
TEST(FusedKernels, MatchDequantizedReference)
{
    const std::int64_t m = 4, k = 129, n = 37, group = 32;
    const Tensor a = randomMatrix(m, k, 91);
    const Tensor b = randomMatrix(k, n, 92);
    const float tol = 1e-6f * static_cast<float>(k) + 1e-5f;

    const PackedWeightsI8G q8(b.data<float>(), k, n, group);
    std::vector<float> c8(static_cast<std::size_t>(m * n));
    gemmAvx512I8gPacked(a.data<float>(), q8, c8.data(), m);
    for (std::int64_t mi = 0; mi < m; ++mi)
        for (std::int64_t j = 0; j < n; ++j) {
            double want = 0.0;
            for (std::int64_t kk = 0; kk < k; ++kk)
                want += static_cast<double>(
                            a.data<float>()[mi * k + kk]) *
                        static_cast<double>(q8.dequant(kk, j));
            EXPECT_NEAR(c8[static_cast<std::size_t>(mi * n + j)],
                        want, tol)
                << "i8g m=" << mi << " j=" << j;
        }

    for (const bool with_offset : {false, true}) {
        const PackedWeightsI4G q4(b.data<float>(), k, n, group,
                                  with_offset);
        std::vector<float> c4(static_cast<std::size_t>(m * n));
        gemmAvx512I4gPacked(a.data<float>(), q4, c4.data(), m);
        for (std::int64_t mi = 0; mi < m; ++mi)
            for (std::int64_t j = 0; j < n; ++j) {
                double want = 0.0;
                for (std::int64_t kk = 0; kk < k; ++kk)
                    want += static_cast<double>(
                                a.data<float>()[mi * k + kk]) *
                            static_cast<double>(q4.dequant(kk, j));
                EXPECT_NEAR(c4[static_cast<std::size_t>(mi * n + j)],
                            want, tol)
                    << "i4g offset=" << with_offset << " m=" << mi
                    << " j=" << j;
            }
    }
}

// The decode fast path is the same per-column dot as the GEMM at
// m=1 — bit for bit, not approximately.
TEST(FusedKernels, GemvMatchesGemmAtM1Bitwise)
{
    const std::int64_t k = 97, n = 53;
    const Tensor a = randomMatrix(1, k, 51);
    const Tensor b = randomMatrix(k, n, 52);
    const PackedWeightsI4G q(b.data<float>(), k, n, 32);
    std::vector<float> gemm_c(static_cast<std::size_t>(n));
    std::vector<float> gemv_c(static_cast<std::size_t>(n));
    gemmAvx512I4gPacked(a.data<float>(), q, gemm_c.data(), 1);
    gemvI4gFused(a.data<float>(), q, gemv_c.data());
    EXPECT_TRUE(bitwiseEqual(gemm_c, gemv_c));
}

// The attnFusedRagged contract: fixed 16-column tasks make the fused
// kernels bitwise invariant to thread count and backend.
TEST(FusedKernels, ThreadCountAndBackendInvariance)
{
    ParallelConfigGuard guard;
    const std::int64_t k = 192, n = 96;
    const Tensor a = randomMatrix(1, k, 61);
    const Tensor b = randomMatrix(k, n, 62);
    const PackedWeightsI8G q8(b.data<float>(), k, n, 64);
    const PackedWeightsI4G q4(b.data<float>(), k, n, 64);

    setMaxThreads(1);
    std::vector<float> base8(static_cast<std::size_t>(n));
    std::vector<float> base4(static_cast<std::size_t>(n));
    gemmAvx512I8gPacked(a.data<float>(), q8, base8.data(), 1);
    gemvI4gFused(a.data<float>(), q4, base4.data());

    for (const int threads : {2, 3, 0})
        for (const ParallelBackend backend :
             {ParallelBackend::Pool, ParallelBackend::Spawn}) {
            setMaxThreads(threads);
            setParallelBackend(backend);
            std::vector<float> c8(static_cast<std::size_t>(n));
            std::vector<float> c4(static_cast<std::size_t>(n));
            gemmAvx512I8gPacked(a.data<float>(), q8, c8.data(), 1);
            gemvI4gFused(a.data<float>(), q4, c4.data());
            EXPECT_TRUE(bitwiseEqual(base8, c8))
                << "i8g threads=" << threads;
            EXPECT_TRUE(bitwiseEqual(base4, c4))
                << "i4g threads=" << threads;
        }
}

// All-zero and constant inputs must quantize without zero divisors.
TEST(DegenerateInputs, AllZeroAndConstantGroups)
{
    const std::int64_t k = 64, n = 4;
    std::vector<float> zeros(static_cast<std::size_t>(k * n), 0.0f);
    const PackedWeightsI8G q8(zeros.data(), k, n, 32);
    const PackedWeightsI4G q4(zeros.data(), k, n, 32);
    const PackedWeightsI4G q4a(zeros.data(), k, n, 32,
                               /*with_offset=*/true);
    for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t kk = 0; kk < k; ++kk) {
            EXPECT_EQ(q8.dequant(kk, j), 0.0f);
            EXPECT_EQ(q4.dequant(kk, j), 0.0f);
            EXPECT_EQ(q4a.dequant(kk, j), 0.0f);
        }
    EXPECT_EQ(q8.maxAbsErr(), 0.0);
    EXPECT_EQ(q4.maxAbsErr(), 0.0);
    EXPECT_EQ(q4a.maxAbsErr(), 0.0);

    // Constant groups: affine mode reproduces the constant exactly.
    std::vector<float> consts(static_cast<std::size_t>(k * n), 0.75f);
    const PackedWeightsI4G qc(consts.data(), k, n, 32,
                              /*with_offset=*/true);
    for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t kk = 0; kk < k; ++kk)
            EXPECT_EQ(qc.dequant(kk, j), 0.75f);
}

TEST(QuantGroupValidation, RejectsBadGroupLengths)
{
    const Tensor b = randomMatrix(32, 4, 9);
    EXPECT_DEATH(PackedWeightsI8G(b.data<float>(), 32, 4, 24),
                 "multiple");
    EXPECT_DEATH(PackedWeightsI4G(b.data<float>(), 32, 4, 0),
                 "multiple");
}

// PreparedB carries the quantized formats through the same matmul
// entry point the model uses, on every engine.
TEST(PreparedBQuant, DispatchesToFusedKernels)
{
    const std::int64_t m = 3, k = 96, n = 24;
    const Tensor a = randomMatrix(m, k, 71);
    const Tensor b = randomMatrix(k, n, 72);
    for (const Engine engine :
         {Engine::Reference, Engine::AmxBf16, Engine::Avx512Bf16}) {
        const PreparedB p8(engine, b, WeightDtype::I8Grouped);
        const PreparedB p4(engine, b, WeightDtype::I4Grouped);
        EXPECT_EQ(p8.weightDtype(), WeightDtype::I8Grouped);
        EXPECT_EQ(p4.weightDtype(), WeightDtype::I4Grouped);
        EXPECT_GT(p8.quantMaxAbsErr(), 0.0);
        EXPECT_GT(p4.quantMaxAbsErr(), p8.quantMaxAbsErr());
        EXPECT_EQ(p8.quantErrElems(), k * n);

        const Tensor c8 = matmul(engine, a, p8);
        std::vector<float> direct(static_cast<std::size_t>(m * n));
        gemmAvx512I8gPacked(a.data<float>(), p8.i8g(), direct.data(),
                            m);
        for (std::int64_t i = 0; i < m * n; ++i)
            EXPECT_EQ(c8.data<float>()[i],
                      direct[static_cast<std::size_t>(i)]);

        const Tensor c4 = matmul(engine, a, p4);
        EXPECT_EQ(c4.dim(0), m);
        EXPECT_EQ(c4.dim(1), n);
    }
}

TEST(PreparedBQuant, NativeReportsZeroError)
{
    const Tensor b = randomMatrix(32, 16, 81);
    const PreparedB p(Engine::AmxBf16, b, WeightDtype::Native);
    EXPECT_EQ(p.quantMaxAbsErr(), 0.0);
    EXPECT_EQ(p.quantErrElems(), 0);
}

TEST(PreparedBQuantDeath, WrongFormatViewPanics)
{
    const Tensor b = randomMatrix(32, 16, 82);
    const PreparedB p8(Engine::AmxBf16, b, WeightDtype::I8Grouped);
    EXPECT_DEATH(p8.i4g(), "");
}

TEST(WeightDtypeNames, RoundTripAndRejects)
{
    WeightDtype d = WeightDtype::Native;
    EXPECT_TRUE(weightDtypeFromName("int8", &d));
    EXPECT_EQ(d, WeightDtype::I8Grouped);
    EXPECT_TRUE(weightDtypeFromName("I4G", &d));
    EXPECT_EQ(d, WeightDtype::I4Grouped);
    EXPECT_TRUE(weightDtypeFromName("bf16", &d));
    EXPECT_EQ(d, WeightDtype::Native);
    EXPECT_FALSE(weightDtypeFromName("fp8", &d));
    EXPECT_STREQ(weightDtypeName(WeightDtype::I4Grouped), "int4");
}

TEST(WquantEnv, AppliesAndRejects)
{
    const WeightDtype before = requestedWeightDtype();
    ::setenv("CPULLM_WQUANT", "int4", 1);
    EXPECT_TRUE(applyWquantEnv());
    EXPECT_EQ(requestedWeightDtype(), WeightDtype::I4Grouped);
    ::setenv("CPULLM_WQUANT", "garbage", 1);
    std::string bad;
    EXPECT_FALSE(applyWquantEnv(&bad));
    EXPECT_EQ(bad, "garbage");
    // Malformed values must not clobber the previous selection.
    EXPECT_EQ(requestedWeightDtype(), WeightDtype::I4Grouped);
    ::unsetenv("CPULLM_WQUANT");
    EXPECT_TRUE(applyWquantEnv());
    setRequestedWeightDtype(before);
}

TEST(QuantStatsCounters, TracksPreparesAndCalls)
{
    resetQuantStats();
    const std::int64_t k = 64, n = 32;
    const Tensor a = randomMatrix(1, k, 95);
    const Tensor b = randomMatrix(k, n, 96);
    const PackedWeightsI8G q8(b.data<float>(), k, n, 32);
    const PackedWeightsI4G q4(b.data<float>(), k, n, 32);
    QuantStats s = quantStats();
    EXPECT_EQ(s.tensors, 2u);
    EXPECT_EQ(s.tensorsI4, 1u);
    EXPECT_EQ(s.packedBytes, q8.bytes() + q4.bytes());
    EXPECT_EQ(s.nativeBytes, 2 * packedBf16Bytes(k, n));
    EXPECT_GT(s.maxAbsErr, 0.0);

    std::vector<float> c(static_cast<std::size_t>(n));
    gemvI4gFused(a.data<float>(), q4, c.data());
    gemmAvx512I8gPacked(a.data<float>(), q8, c.data(), 1);
    s = quantStats();
    EXPECT_EQ(s.gemvCalls, 1u);
    EXPECT_EQ(s.gemmCalls, 1u);
    EXPECT_EQ(s.bytesStreamed, q8.bytes() + q4.bytes());
    resetQuantStats();
    EXPECT_EQ(quantStats().tensors, 0u);
}

} // namespace
} // namespace gemm
} // namespace cpullm
