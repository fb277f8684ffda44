#include "gemm/packed_weights.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "gemm/gemm.h"
#include "gemm/quant_detail.h"
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

/** A way to run a kernel: the public entry points, or one task body
 *  through the same 16-column task loop (runI8g / runI4g). */
struct Body
{
    const char* name;
    detail::I8gTaskFn i8; ///< nullptr: the public entry points
    detail::I4gTaskFn i4;
};

/** The public entry points and every task body this host can run, so
 *  both bodies stay checked whichever one the host dispatches to. */
std::vector<Body>
hostBodies()
{
    std::vector<Body> bodies{
        {"public", nullptr, nullptr},
        {"portable", &detail::i8gTaskPortable, &detail::i4gTaskPortable}};
#if CPULLM_QUANT_AVX512
    if (__builtin_cpu_supports("avx512f"))
        bodies.push_back(
            {"avx512", &detail::i8gTaskAvx512, &detail::i4gTaskAvx512});
#endif
    return bodies;
}

std::vector<float>
runI8(const Body& body, const float* a, const PackedWeightsI8G& q,
      std::int64_t m)
{
    std::vector<float> c(static_cast<std::size_t>(m * q.n()));
    if (body.i8 == nullptr)
        gemmAvx512I8gPacked(a, q, c.data(), m);
    else
        detail::runI8g(body.i8, a, q, c.data(), m);
    return c;
}

/** @p gemv: at m = 1 the public path runs gemvI4gFused, which is what
 *  matmul calls for a one-row activation. */
std::vector<float>
runI4(const Body& body, const float* a, const PackedWeightsI4G& q,
      std::int64_t m, bool gemv = false)
{
    std::vector<float> c(static_cast<std::size_t>(m * q.n()));
    if (body.i4 != nullptr)
        detail::runI4g(body.i4, a, q, c.data(), m);
    else if (gemv && m == 1)
        gemvI4gFused(a, q, c.data());
    else
        gemmAvx512I4gPacked(a, q, c.data(), m);
    return c;
}

// The fused kernels must agree with an FP32 dot over the dequantized
// weights: same math, different association, so a small K-scaled
// tolerance instead of bitwise. m = 8 runs one full row tile and
// leftover rows; n = 37 leaves ragged column tiles.
TEST(FusedKernels, MatchDequantizedReference)
{
    const std::int64_t m = 8, k = 129, n = 37, group = 32;
    const Tensor a = randomMatrix(m, k, 91);
    const Tensor b = randomMatrix(k, n, 92);
    const float tol = 1e-6f * static_cast<float>(k) + 1e-5f;
    const PackedWeightsI8G q8(b.data<float>(), k, n, group);
    const PackedWeightsI4G q4s(b.data<float>(), k, n, group);
    const PackedWeightsI4G q4a(b.data<float>(), k, n, group,
                               /*with_offset=*/true);

    auto check = [&](const std::vector<float>& c, auto dequant,
                     const std::string& what) {
        for (std::int64_t mi = 0; mi < m; ++mi)
            for (std::int64_t j = 0; j < n; ++j) {
                double want = 0.0;
                for (std::int64_t kk = 0; kk < k; ++kk)
                    want += static_cast<double>(
                                a.data<float>()[mi * k + kk]) *
                            static_cast<double>(dequant(kk, j));
                EXPECT_NEAR(c[static_cast<std::size_t>(mi * n + j)],
                            want, tol)
                    << what << " m=" << mi << " j=" << j;
            }
    };
    for (const Body& body : hostBodies()) {
        const std::string name = body.name;
        check(runI8(body, a.data<float>(), q8, m),
              [&](std::int64_t kk, std::int64_t j) {
                  return q8.dequant(kk, j);
              },
              name + " i8g");
        for (const PackedWeightsI4G* q4 : {&q4s, &q4a})
            check(runI4(body, a.data<float>(), *q4, m),
                  [&](std::int64_t kk, std::int64_t j) {
                      return q4->dequant(kk, j);
                  },
                  name + " i4g offset=" +
                      std::to_string(q4->withOffset()));
    }
}

// The row contract ContinuousBatcher and preemption rely on: every row
// of an m-row call equals, bit for bit, the m = 1 call on that row
// alone (gemvI4gFused on the public INT4 path). m covers one row, the
// row tile and its neighbours, and leftover rows; n = 53 is not a
// multiple of the column tile or of 16; K = 97 and 129 with group 32
// leave a ragged last group, so the scalar tail runs.
TEST(FusedKernels, GemvMatchesGemmAtM1Bitwise)
{
    constexpr std::int64_t kR = detail::kTileRows;
    const std::int64_t n = 53, group = 32;
    for (const std::int64_t k : {std::int64_t{97}, std::int64_t{129}}) {
        const Tensor a = randomMatrix(33, k, 51 + k);
        const Tensor b = randomMatrix(k, n, 52 + k);
        const PackedWeightsI8G q8(b.data<float>(), k, n, group);
        const PackedWeightsI4G q4s(b.data<float>(), k, n, group);
        const PackedWeightsI4G q4a(b.data<float>(), k, n, group,
                                   /*with_offset=*/true);
        for (const Body& body : hostBodies())
            for (const std::int64_t m :
                 {std::int64_t{1}, std::int64_t{2}, kR - 1, kR, kR + 1,
                  2 * kR + 1, std::int64_t{33}}) {
                const float* ap = a.data<float>();
                const std::vector<float> c8 = runI8(body, ap, q8, m);
                const std::vector<float> c4s = runI4(body, ap, q4s, m);
                const std::vector<float> c4a = runI4(body, ap, q4a, m);
                for (std::int64_t r = 0; r < m; ++r) {
                    const float* row = ap + r * k;
                    auto slice = [&](const std::vector<float>& c) {
                        return std::vector<float>(c.begin() + r * n,
                                                  c.begin() + (r + 1) * n);
                    };
                    EXPECT_TRUE(bitwiseEqual(slice(c8),
                                             runI8(body, row, q8, 1)))
                        << body.name << " i8g k=" << k << " m=" << m
                        << " row " << r;
                    EXPECT_TRUE(bitwiseEqual(
                        slice(c4s), runI4(body, row, q4s, 1, true)))
                        << body.name << " i4g k=" << k << " m=" << m
                        << " row " << r;
                    EXPECT_TRUE(bitwiseEqual(
                        slice(c4a), runI4(body, row, q4a, 1, true)))
                        << body.name << " i4g affine k=" << k
                        << " m=" << m << " row " << r;
                }
            }
    }
}

// The attnFusedRagged contract: fixed 16-column tasks make the fused
// kernels bitwise invariant to thread count and backend, for decode
// (m = 1) and for a call with full row tiles and leftover rows.
TEST(FusedKernels, ThreadCountAndBackendInvariance)
{
    ParallelConfigGuard guard;
    const std::int64_t k = 192, n = 96;
    const Tensor b = randomMatrix(k, n, 62);
    const PackedWeightsI8G q8(b.data<float>(), k, n, 64);
    const PackedWeightsI4G q4(b.data<float>(), k, n, 64);
    const Body entry{"public", nullptr, nullptr};

    for (const std::int64_t m : {std::int64_t{1}, std::int64_t{13}}) {
        const Tensor a = randomMatrix(m, k, 61);
        setMaxThreads(1);
        setParallelBackend(ParallelBackend::Pool);
        const std::vector<float> base8 =
            runI8(entry, a.data<float>(), q8, m);
        const std::vector<float> base4 =
            runI4(entry, a.data<float>(), q4, m, true);

        for (const int threads : {2, 3, 0})
            for (const ParallelBackend backend :
                 {ParallelBackend::Pool, ParallelBackend::Spawn}) {
                setMaxThreads(threads);
                setParallelBackend(backend);
                EXPECT_TRUE(bitwiseEqual(
                    base8, runI8(entry, a.data<float>(), q8, m)))
                    << "i8g m=" << m << " threads=" << threads;
                EXPECT_TRUE(bitwiseEqual(
                    base4, runI4(entry, a.data<float>(), q4, m, true)))
                    << "i4g m=" << m << " threads=" << threads;
            }
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

        // F32 activations are read in place; others are widened
        // first, and the kernels see the same values either way.
        const Tensor a16 = a.cast(DType::BF16);
        const Tensor c16 = matmul(engine, a16, p4);
        const Tensor c16_ref = matmul(engine, a16.cast(DType::F32), p4);
        for (std::int64_t i = 0; i < m * n; ++i)
            EXPECT_EQ(c16.data<float>()[i], c16_ref.data<float>()[i]);
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
