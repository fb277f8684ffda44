#include "gemm/packed_weights.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>

#include "gemm/quant_detail.h"

// Runtime dispatch below keeps the binary portable.
#if CPULLM_QUANT_AVX512
#include <immintrin.h>
#endif

#include "gemm/pack.h"
#include "isa/avx512.h"
#include "util/hot_clones.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace cpullm {
namespace gemm {

namespace {

// Process-wide quantization counters (the AttnStats pattern).
// Error aggregates are doubles merged under a mutex: preparation is
// cold (once per weight), the kernels never touch it.
std::atomic<std::uint64_t> q_tensors_{0};
std::atomic<std::uint64_t> q_tensors_i4_{0};
std::atomic<std::uint64_t> q_packed_bytes_{0};
std::atomic<std::uint64_t> q_native_bytes_{0};
std::atomic<std::uint64_t> q_gemm_calls_{0};
std::atomic<std::uint64_t> q_gemv_calls_{0};
std::atomic<std::uint64_t> q_bytes_streamed_{0};
std::mutex q_err_mu_;
double q_max_abs_err_ = 0.0;
double q_err_sum_sq_ = 0.0;
std::uint64_t q_err_elems_ = 0;

void
quantStatsOnPrepare(bool is_i4, std::uint64_t packed_bytes,
                    std::uint64_t native_bytes, double max_abs_err,
                    double err_sum_sq, std::uint64_t elems)
{
    q_tensors_.fetch_add(1, std::memory_order_relaxed);
    if (is_i4)
        q_tensors_i4_.fetch_add(1, std::memory_order_relaxed);
    q_packed_bytes_.fetch_add(packed_bytes,
                              std::memory_order_relaxed);
    q_native_bytes_.fetch_add(native_bytes,
                              std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(q_err_mu_);
    q_max_abs_err_ = std::max(q_max_abs_err_, max_abs_err);
    q_err_sum_sq_ += err_sum_sq;
    q_err_elems_ += elems;
}

void
quantStatsOnCall(bool is_gemv, std::uint64_t bytes)
{
    (is_gemv ? q_gemv_calls_ : q_gemm_calls_)
        .fetch_add(1, std::memory_order_relaxed);
    q_bytes_streamed_.fetch_add(bytes, std::memory_order_relaxed);
}

} // namespace

const char*
weightDtypeName(WeightDtype d)
{
    switch (d) {
      case WeightDtype::Native:
        return "bf16";
      case WeightDtype::I8Grouped:
        return "int8";
      case WeightDtype::I4Grouped:
        return "int4";
    }
    CPULLM_PANIC("unhandled weight dtype");
}

bool
weightDtypeFromName(const std::string& name, WeightDtype* out)
{
    const std::string n = toLower(name);
    if (n == "bf16" || n == "native" || n == "none") {
        *out = WeightDtype::Native;
        return true;
    }
    if (n == "int8" || n == "i8" || n == "i8g") {
        *out = WeightDtype::I8Grouped;
        return true;
    }
    if (n == "int4" || n == "i4" || n == "i4g") {
        *out = WeightDtype::I4Grouped;
        return true;
    }
    return false;
}

QuantStats
quantStats()
{
    QuantStats s;
    s.tensors = q_tensors_.load(std::memory_order_relaxed);
    s.tensorsI4 = q_tensors_i4_.load(std::memory_order_relaxed);
    s.packedBytes = q_packed_bytes_.load(std::memory_order_relaxed);
    s.nativeBytes = q_native_bytes_.load(std::memory_order_relaxed);
    s.gemmCalls = q_gemm_calls_.load(std::memory_order_relaxed);
    s.gemvCalls = q_gemv_calls_.load(std::memory_order_relaxed);
    s.bytesStreamed =
        q_bytes_streamed_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(q_err_mu_);
    s.maxAbsErr = q_max_abs_err_;
    s.rmsErr = q_err_elems_ > 0
                   ? std::sqrt(q_err_sum_sq_ /
                               static_cast<double>(q_err_elems_))
                   : 0.0;
    return s;
}

void
resetQuantStats()
{
    q_tensors_.store(0, std::memory_order_relaxed);
    q_tensors_i4_.store(0, std::memory_order_relaxed);
    q_packed_bytes_.store(0, std::memory_order_relaxed);
    q_native_bytes_.store(0, std::memory_order_relaxed);
    q_gemm_calls_.store(0, std::memory_order_relaxed);
    q_gemv_calls_.store(0, std::memory_order_relaxed);
    q_bytes_streamed_.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(q_err_mu_);
    q_max_abs_err_ = 0.0;
    q_err_sum_sq_ = 0.0;
    q_err_elems_ = 0;
}

std::uint64_t
packedBf16Bytes(std::int64_t k, std::int64_t n)
{
    const std::int64_t n_blocks = (n + kTileN - 1) / kTileN;
    const std::int64_t k_steps = (k + kTileKBf16 - 1) / kTileKBf16;
    return static_cast<std::uint64_t>(n_blocks * k_steps *
                                      PackedWeightsBf16::kTileElems) *
           sizeof(BFloat16);
}

PackedWeightsBf16::PackedWeightsBf16(const BFloat16* b, std::int64_t k,
                                     std::int64_t n)
    : k_(k), n_(n), k_steps_((k + kTileKBf16 - 1) / kTileKBf16),
      n_blocks_((n + kTileN - 1) / kTileN)
{
    CPULLM_ASSERT(k > 0 && n > 0, "PackedWeightsBf16 needs K,N >= 1");
    data_.resize(
        static_cast<std::size_t>(n_blocks_ * k_steps_ * kTileElems));
    parallelFor(0, static_cast<std::size_t>(n_blocks_),
                [&](std::size_t bn_s) {
        const auto bn = static_cast<std::int64_t>(bn_s);
        const std::int64_t n0 = bn * kTileN;
        const int nrem = static_cast<int>(
            std::min<std::int64_t>(kTileN, n - n0));
        for (std::int64_t ks = 0; ks < k_steps_; ++ks) {
            const std::int64_t k0 = ks * kTileKBf16;
            const int krem = static_cast<int>(
                std::min<std::int64_t>(kTileKBf16, k - k0));
            packBTileVnni(b, n, k0, n0, krem, nrem, kTileKBf16 / 2,
                          kTileN,
                          data_.data() + (bn * k_steps_ + ks) *
                                             kTileElems);
        }
    });
}

PackedWeightsI8::PackedWeightsI8(const float* b, std::int64_t k,
                                 std::int64_t n)
    : k_(k), n_(n), k_steps_((k + kTileKI8 - 1) / kTileKI8),
      n_blocks_((n + kTileN - 1) / kTileN)
{
    CPULLM_ASSERT(k > 0 && n > 0, "PackedWeightsI8 needs K,N >= 1");
    // Same per-tensor symmetric quantization matmul applies per call.
    float bmax = 0.0f;
    for (std::int64_t i = 0; i < k * n; ++i)
        bmax = std::max(bmax, std::fabs(b[i]));
    std::vector<std::int8_t> bq(static_cast<std::size_t>(k * n));
    if (bmax > 0.0f) {
        const QuantParams qb = QuantParams::forAbsMax(bmax);
        scale_ = qb.scale;
        for (std::int64_t i = 0; i < k * n; ++i)
            bq[static_cast<std::size_t>(i)] = qb.quantize(b[i]);
    } else {
        // All-zero weights: an explicit scale-1 / zero-tile guard so
        // no divisor can be 0 and the dequantized output is exactly
        // zero rather than 0 * (1/0) = NaN.
        scale_ = 1.0f;
    }

    data_.resize(
        static_cast<std::size_t>(n_blocks_ * k_steps_ * kTileElems));
    parallelFor(0, static_cast<std::size_t>(n_blocks_),
                [&](std::size_t bn_s) {
        const auto bn = static_cast<std::int64_t>(bn_s);
        const std::int64_t n0 = bn * kTileN;
        const int nrem = static_cast<int>(
            std::min<std::int64_t>(kTileN, n - n0));
        for (std::int64_t ks = 0; ks < k_steps_; ++ks) {
            const std::int64_t k0 = ks * kTileKI8;
            const int krem = static_cast<int>(
                std::min<std::int64_t>(kTileKI8, k - k0));
            packBTileVnniI8(bq.data(), n, k0, n0, krem, nrem,
                            kTileKI8 / 4, kTileN,
                            data_.data() + (bn * k_steps_ + ks) *
                                               kTileElems);
        }
    });
}

PackedWeightsVnni::PackedWeightsVnni(const BFloat16* b, std::int64_t k,
                                     std::int64_t n)
    : k_(k), n_(n), k_pairs_((k + 1) / 2)
{
    CPULLM_ASSERT(k > 0 && n > 0, "PackedWeightsVnni needs K,N >= 1");
    data_.resize(static_cast<std::size_t>(k_pairs_ * 2 * n));
    parallelFor(0, static_cast<std::size_t>(k_pairs_),
                [&](std::size_t p_s) {
        const auto p = static_cast<std::int64_t>(p_s);
        BFloat16* row = data_.data() + p * 2 * n;
        const BFloat16* b0 = b + 2 * p * n;
        const BFloat16* b1 = b0 + n;
        const bool has_hi = 2 * p + 1 < k;
        for (std::int64_t j = 0; j < n; ++j) {
            row[2 * j] = b0[j];
            row[2 * j + 1] = has_hi ? b1[j] : BFloat16();
        }
    }, 8);
}

PackedWeightsI8G::PackedWeightsI8G(const float* b, std::int64_t k,
                                   std::int64_t n, std::int64_t group)
    : k_(k), n_(n), group_(group), groups_(group > 0 ? (k + group - 1) / group : 0)
{
    CPULLM_ASSERT(k > 0 && n > 0, "PackedWeightsI8G needs K,N >= 1");
    CPULLM_ASSERT(group > 0 &&
                      group % isa::Vec512::kF32Lanes == 0,
                  "quant group must be a positive multiple of ",
                  isa::Vec512::kF32Lanes, ", got ", group);
    const std::int64_t k_pad = kPad();
    data_.assign(static_cast<std::size_t>(n * k_pad), 0);
    scales_.assign(static_cast<std::size_t>(n * groups_), 1.0f);
    // Per-column error partials merged serially below so the stored
    // aggregates are independent of thread count.
    std::vector<double> col_max(static_cast<std::size_t>(n), 0.0);
    std::vector<double> col_sq(static_cast<std::size_t>(n), 0.0);
    parallelFor(0, static_cast<std::size_t>(n), [&](std::size_t j_s) {
        const auto j = static_cast<std::int64_t>(j_s);
        std::int8_t* codes = data_.data() + j * k_pad;
        float* scales = scales_.data() + j * groups_;
        double cmax = 0.0, csq = 0.0;
        for (std::int64_t g = 0; g < groups_; ++g) {
            const std::int64_t k0 = g * group_;
            const std::int64_t kend =
                std::min(k, k0 + group_);
            float absmax = 0.0f;
            for (std::int64_t kk = k0; kk < kend; ++kk)
                absmax = std::max(absmax,
                                  std::fabs(b[kk * n + j]));
            // All-zero groups keep the default scale 1 / zero codes
            // (same guard as the per-tensor INT8 path).
            const float scale =
                absmax > 0.0f ? absmax / 127.0f : 1.0f;
            scales[g] = scale;
            for (std::int64_t kk = k0; kk < kend; ++kk) {
                const float v = b[kk * n + j];
                float r = std::nearbyint(v / scale);
                r = std::min(127.0f, std::max(-127.0f, r));
                codes[kk] = static_cast<std::int8_t>(r);
                const double err = std::fabs(
                    static_cast<double>(scale) *
                        static_cast<double>(r) -
                    static_cast<double>(v));
                cmax = std::max(cmax, err);
                csq += err * err;
            }
        }
        col_max[j_s] = cmax;
        col_sq[j_s] = csq;
    }, 4);
    for (std::int64_t j = 0; j < n; ++j) {
        max_abs_err_ = std::max(
            max_abs_err_, col_max[static_cast<std::size_t>(j)]);
        err_sum_sq_ += col_sq[static_cast<std::size_t>(j)];
    }
    quantStatsOnPrepare(/*is_i4=*/false, bytes(),
                        packedBf16Bytes(k, n), max_abs_err_,
                        err_sum_sq_,
                        static_cast<std::uint64_t>(k * n));
}

PackedWeightsI4G::PackedWeightsI4G(const float* b, std::int64_t k,
                                   std::int64_t n, std::int64_t group,
                                   bool with_offset)
    : k_(k), n_(n), group_(group), groups_(group > 0 ? (k + group - 1) / group : 0)
{
    CPULLM_ASSERT(k > 0 && n > 0, "PackedWeightsI4G needs K,N >= 1");
    CPULLM_ASSERT(group > 0 &&
                      group % isa::Vec512::kF32Lanes == 0,
                  "quant group must be a positive multiple of ",
                  isa::Vec512::kF32Lanes, ", got ", group);
    const std::int64_t k_pad = kPad();
    // Padding bytes hold the symmetric zero code in both nibbles so
    // dequant() of the padded tail is exactly 0 (the kernels never
    // read padding at all — activations are zero-padded instead).
    const std::uint8_t pad_byte =
        with_offset ? 0
                    : static_cast<std::uint8_t>(kSymBias |
                                                (kSymBias << 4));
    data_.assign(static_cast<std::size_t>(n * (k_pad / 2)), pad_byte);
    scales_.assign(static_cast<std::size_t>(n * groups_), 1.0f);
    if (with_offset)
        offsets_.assign(static_cast<std::size_t>(n * groups_), 0.0f);
    std::vector<double> col_max(static_cast<std::size_t>(n), 0.0);
    std::vector<double> col_sq(static_cast<std::size_t>(n), 0.0);
    parallelFor(0, static_cast<std::size_t>(n), [&](std::size_t j_s) {
        const auto j = static_cast<std::int64_t>(j_s);
        std::uint8_t* bytes_row = data_.data() + j * (k_pad / 2);
        float* scales = scales_.data() + j * groups_;
        double cmax = 0.0, csq = 0.0;
        for (std::int64_t g = 0; g < groups_; ++g) {
            const std::int64_t k0 = g * group_;
            const std::int64_t kend = std::min(k, k0 + group_);
            float scale = 1.0f, offset = 0.0f;
            if (with_offset) {
                // NF4-style affine range: real = scale * u + offset,
                // u in [0, 15]. Constant groups degenerate to
                // scale 1 / offset = value, reproduced by u = 0.
                float vmin = b[k0 * n + j], vmax = vmin;
                for (std::int64_t kk = k0; kk < kend; ++kk) {
                    const float v = b[kk * n + j];
                    vmin = std::min(vmin, v);
                    vmax = std::max(vmax, v);
                }
                scale = (vmax - vmin) / 15.0f;
                if (!(scale > 0.0f))
                    scale = 1.0f;
                offset = vmin;
                offsets_[static_cast<std::size_t>(j * groups_ + g)] =
                    offset;
            } else {
                float absmax = 0.0f;
                for (std::int64_t kk = k0; kk < kend; ++kk)
                    absmax = std::max(absmax,
                                      std::fabs(b[kk * n + j]));
                scale = absmax > 0.0f ? absmax / 7.0f : 1.0f;
            }
            scales[g] = scale;
            for (std::int64_t kk = k0; kk < kend; ++kk) {
                const float v = b[kk * n + j];
                int u;
                float deq;
                if (with_offset) {
                    float r = std::nearbyint((v - offset) / scale);
                    r = std::min(15.0f, std::max(0.0f, r));
                    u = static_cast<int>(r);
                    deq = scale * static_cast<float>(u) + offset;
                } else {
                    float r = std::nearbyint(v / scale);
                    r = std::min(7.0f, std::max(-7.0f, r));
                    u = static_cast<int>(r) + kSymBias;
                    deq = scale * static_cast<float>(u - kSymBias);
                }
                // Planar 16-element micro-blocks: byte i of a block
                // holds element i in the low nibble and element i+8
                // in the high one, so the decode loop splits a whole
                // block with two mask/shift ops on one 64-bit load.
                const std::int64_t r = kk & 15;
                std::uint8_t& byte =
                    bytes_row[(kk >> 4) * 8 + (r & 7)];
                byte = r < 8
                           ? static_cast<std::uint8_t>(
                                 (byte & 0xf0) | u)
                           : static_cast<std::uint8_t>(
                                 (byte & 0x0f) | (u << 4));
                const double err =
                    std::fabs(static_cast<double>(deq) -
                              static_cast<double>(v));
                cmax = std::max(cmax, err);
                csq += err * err;
            }
        }
        col_max[j_s] = cmax;
        col_sq[j_s] = csq;
    }, 4);
    for (std::int64_t j = 0; j < n; ++j) {
        max_abs_err_ = std::max(
            max_abs_err_, col_max[static_cast<std::size_t>(j)]);
        err_sum_sq_ += col_sq[static_cast<std::size_t>(j)];
    }
    quantStatsOnPrepare(/*is_i4=*/true, bytes(),
                        packedBf16Bytes(k, n), max_abs_err_,
                        err_sum_sq_,
                        static_cast<std::uint64_t>(k * n));
}

namespace {

/**
 * Every grouped-quant body computes each output (row, column) with its
 * own 16 lane accumulators and one fixed accumulation sequence, folded
 * once at the end in a fixed pairwise tree. No output depends on which
 * other rows or columns share its call, task or thread, so any row of
 * any m equals the m = 1 call on that row, for any thread count (the
 * contract ContinuousBatcher and preemption rely on). The portable
 * loops are written lane-parallel so the compiler can map them onto
 * whatever vector unit the host has, and are cloned per ISA level
 * (CPULLM_HOT_CLONES); the body is chosen once per process, so a
 * machine runs one arithmetic sequence.
 */
constexpr int kDotLanes = 16;

/** Fixed pairwise-tree fold of the lane accumulators. */
inline float
foldLanes(float* lanes)
{
    for (int stride = kDotLanes / 2; stride > 0; stride /= 2)
        for (int l = 0; l < stride; ++l)
            lanes[l] += lanes[l + stride];
    return lanes[0];
}

/**
 * Dot of activation row @p arow against output column @p j of the
 * grouped-INT8 weight. The group scale is factored out of the inner
 * loop (sum codes-times-activation first, scale once per group); the
 * code bytes widen to float inside the lane loop, which the vector
 * clones turn into sign-extend + convert + FMA. The per-group scale
 * applies lane-wise into a column-level accumulator (one more FMA
 * per group), so the lane fold happens exactly once per column. The
 * whole column is computed by one caller with one deterministic
 * accumulation sequence — that is what makes every row of any m and
 * every thread count bitwise agree.
 */
CPULLM_HOT_CLONES float
dotColI8gPortable(const float* arow, const PackedWeightsI8G& b,
                  std::int64_t j)
{
    const std::int64_t k = b.k();
    const std::int64_t group = b.group();
    const std::int8_t* codes = b.row(j);
    const float* scales = b.scaleRow(j);
    float accl[kDotLanes] = {};
    float acc_tail = 0.0f;
    for (std::int64_t g = 0; g < b.groups(); ++g) {
        const std::int64_t k0 = g * group;
        const std::int64_t kend = std::min(k, k0 + group);
        float lanes[kDotLanes] = {};
        std::int64_t kk = k0;
        for (; kk + kDotLanes <= kend; kk += kDotLanes)
            for (int l = 0; l < kDotLanes; ++l)
                lanes[l] += arow[kk + l] *
                            static_cast<float>(codes[kk + l]);
        float t = 0.0f;
        for (; kk < kend; ++kk)
            t += arow[kk] * static_cast<float>(codes[kk]);
        for (int l = 0; l < kDotLanes; ++l)
            accl[l] += scales[g] * lanes[l];
        acc_tail += scales[g] * t;
    }
    return foldLanes(accl) + acc_tail;
}

/**
 * Per-group sums of the activation row (asums[g] = sum of arow over
 * group g's K range). These are column-independent, so the callers
 * compute them once per activation row and every INT4 body
 * reuses them to fold the nibble bias / affine offset analytically —
 * the per-column work never touches a second reduction pass.
 */
CPULLM_HOT_CLONES void
groupActSums(const float* arow, std::int64_t k, std::int64_t group,
             std::int64_t groups, float* asums)
{
    for (std::int64_t g = 0; g < groups; ++g) {
        const std::int64_t k0 = g * group;
        const std::int64_t kend = std::min(k, k0 + group);
        float lanes[kDotLanes] = {};
        std::int64_t kk = k0;
        for (; kk + kDotLanes <= kend; kk += kDotLanes)
            for (int l = 0; l < kDotLanes; ++l)
                lanes[l] += arow[kk + l];
        float s = foldLanes(lanes);
        for (; kk < kend; ++kk)
            s += arow[kk];
        asums[g] = s;
    }
}

/** Per-group decode buffer length for the portable INT4 path (a
 *  multiple of kDotLanes; bounds the stack frame). */
constexpr std::int64_t kDotChunk = 256;

/**
 * Portable INT4 counterpart of dotColI8gPortable: each chunk of the group
 * first splits the planar 16-element nibble blocks into an
 * unsigned-code stack buffer — one 64-bit load plus two mask/shift
 * ops per block — then runs the INT8 path's lane-parallel widen+FMA
 * dot over it. The nibble bias and the affine offset both fold
 * analytically per group against the precomputed activation sums
 * @p asums (groupActSums): sum(a * s*(u-8)) = s * sum(a*u) - 8*s *
 * sum(a), and sum(a * (s*u + o)) = s * sum(a*u) + o * sum(a), so the
 * per-column work is one decode+dot pass with a single lane fold at
 * the end. Deterministic fixed accumulation order, same bitwise
 * contract as dotColI8gPortable.
 */
CPULLM_HOT_CLONES float
dotColI4gPortable(const float* arow, const PackedWeightsI4G& b,
                  std::int64_t j, const float* asums)
{
    const std::int64_t k = b.k();
    const std::int64_t group = b.group();
    const std::uint8_t* bytes_row = b.row(j);
    const float* scales = b.scaleRow(j);
    const bool affine = b.withOffset();
    const float* offsets = affine ? b.offsetRow(j) : nullptr;
    std::uint8_t w8[kDotChunk];
    float accl[kDotLanes] = {};
    float acc_tail = 0.0f;
    for (std::int64_t g = 0; g < b.groups(); ++g) {
        // Group starts are block-aligned: group is a multiple of 16.
        const std::int64_t k0 = g * group;
        const std::int64_t kend = std::min(k, k0 + group);
        float lanes[kDotLanes] = {};
        float gtail = 0.0f;
        for (std::int64_t c0 = k0; c0 < kend; c0 += kDotChunk) {
            const std::int64_t len =
                std::min(kDotChunk, kend - c0);
            const std::uint8_t* bp = bytes_row + c0 / 2;
            const std::int64_t full = (len / 16) * 16;
            constexpr std::uint64_t kLoMask = 0x0f0f0f0f0f0f0f0fULL;
            for (std::int64_t t = 0; t < full; t += 16) {
                std::uint64_t v;
                std::memcpy(&v, bp + t / 2, sizeof v);
#if defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
                const std::uint64_t lo = v & kLoMask;
                const std::uint64_t hi = (v >> 4) & kLoMask;
                std::memcpy(w8 + t, &lo, sizeof lo);
                std::memcpy(w8 + t + 8, &hi, sizeof hi);
#else
                for (int i = 0; i < 8; ++i) {
                    const std::uint8_t byte = bp[t / 2 + i];
                    w8[t + i] = byte & 0xf;
                    w8[t + 8 + i] = byte >> 4;
                }
#endif
            }
            for (std::int64_t t = full; t < len; ++t) {
                // Ragged final block: same planar indexing as code().
                const std::int64_t r = t & 15;
                const std::uint8_t byte =
                    bp[(t >> 4) * 8 + (r & 7)];
                w8[t] = r < 8 ? (byte & 0xf) : (byte >> 4);
            }
            const float* a0 = arow + c0;
            std::int64_t i = 0;
            for (; i + kDotLanes <= len; i += kDotLanes)
                for (int l = 0; l < kDotLanes; ++l)
                    lanes[l] += a0[i + l] *
                                static_cast<float>(w8[i + l]);
            for (; i < len; ++i)
                gtail += a0[i] * static_cast<float>(w8[i]);
        }
        // Symmetric: w = s*(u-8); affine: w = s*u + o.
        const float off = affine ? offsets[g] : -8.0f * scales[g];
        for (int l = 0; l < kDotLanes; ++l)
            accl[l] += scales[g] * lanes[l];
        acc_tail += scales[g] * gtail + off * asums[g];
    }
    return foldLanes(accl) + acc_tail;
}

#if CPULLM_QUANT_AVX512
// GCC's _mm512_undefined_*() helpers (inside the convert intrinsics)
// trip -Wmaybe-uninitialized when AVX-512 is enabled per-function
// instead of globally (GCC PR105593); the values are intentionally
// undefined inputs to masked builtins, so silence the false alarm.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#define CPULLM_AVX512_INLINE \
    __attribute__((target("avx512f"), always_inline)) inline

/**
 * Grouped-INT8 columns for tileAvx512: a 16-weight block is one
 * 16-byte load widened by VPMOVSXBD and converted to float.
 */
struct I8gCols
{
    const PackedWeightsI8G& b;

    struct Col
    {
        const std::int8_t* codes;
        const float* scales;
    };

    Col col(std::int64_t j) const { return {b.row(j), b.scaleRow(j)}; }

    CPULLM_AVX512_INLINE static __m512
    block(const Col& col, std::int64_t kk)
    {
        const __m128i c16 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(col.codes + kk));
        return _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(c16));
    }

    /** Weight @p kk of a ragged final block, as a float. */
    CPULLM_AVX512_INLINE static float
    code(const Col& col, std::int64_t kk)
    {
        return static_cast<float>(col.codes[kk]);
    }

    /** Fold group @p g's scalar tail into activation row @p row's
     *  column total. */
    CPULLM_AVX512_INLINE void
    foldTail(const Col& col, std::int64_t g, std::int64_t /*row*/,
             float gtail, float& acc_tail) const
    {
        acc_tail = std::fma(col.scales[g], gtail, acc_tail);
    }
};

/**
 * Grouped-INT4 columns: a block is one 8-byte load whose low nibbles
 * are block elements 0-7 and high nibbles 8-15, split by two
 * mask/shift ops and widened by VPMOVZXBD. The nibble bias and the
 * affine offset fold per group against the activation sums @p asums
 * (groupActSums): sum(a * s*(u-8)) = s * sum(a*u) - 8*s * sum(a), and
 * sum(a * (s*u + o)) = s * sum(a*u) + o * sum(a).
 */
struct I4gCols
{
    const PackedWeightsI4G& b;
    const float* asums; ///< b.groups() per activation row

    struct Col
    {
        const std::uint8_t* bytes;
        const float* scales;
        const float* offsets; ///< nullptr when symmetric
    };

    Col col(std::int64_t j) const
    {
        return {b.row(j), b.scaleRow(j),
                b.withOffset() ? b.offsetRow(j) : nullptr};
    }

    CPULLM_AVX512_INLINE static __m512
    block(const Col& col, std::int64_t kk)
    {
        std::uint64_t v;
        std::memcpy(&v, col.bytes + kk / 2, sizeof v);
        const __m128i lo_mask = _mm_set1_epi8(0x0f);
        const __m128i bytes =
            _mm_set_epi64x(0, static_cast<long long>(v));
        const __m128i lo = _mm_and_si128(bytes, lo_mask);
        const __m128i hi =
            _mm_and_si128(_mm_srli_epi16(bytes, 4), lo_mask);
        return _mm512_cvtepi32_ps(
            _mm512_cvtepu8_epi32(_mm_unpacklo_epi64(lo, hi)));
    }

    /** Weight @p kk of a ragged final block: same planar indexing as
     *  PackedWeightsI4G::code(). */
    CPULLM_AVX512_INLINE static float
    code(const Col& col, std::int64_t kk)
    {
        const std::int64_t r = kk & 15;
        const std::uint8_t byte = col.bytes[(kk >> 4) * 8 + (r & 7)];
        return static_cast<float>(r < 8 ? (byte & 0xf) : (byte >> 4));
    }

    CPULLM_AVX512_INLINE void
    foldTail(const Col& col, std::int64_t g, std::int64_t row,
             float gtail, float& acc_tail) const
    {
        // Symmetric: w = s*(u-8); affine: w = s*u + o.
        const float off = col.offsets != nullptr ? col.offsets[g]
                                                 : -8.0f * col.scales[g];
        acc_tail += std::fma(col.scales[g], gtail,
                             off * asums[row * b.groups() + g]);
    }
};

/**
 * One R x C register tile: activation rows [r0, r0 + R) against
 * output columns [j0, j0 + C). Each column's 16-weight block is
 * decoded into a register once per k step and FMAed into all R rows'
 * accumulators. Every (row, column) keeps its own lanes/acc registers
 * and runs the op sequence of a lone dot product: per group, 16-lane
 * FMAs over the full blocks in k order, acc = fma(scale, lanes, acc)
 * and the scalar tail; after the last group one foldLanes. So no
 * output depends on R, C or which rows and columns share the tile.
 * The scalar tail spells out its fmas, the ones GCC's default
 * contraction makes of a lone dot's `t += a * u` and
 * `acc_tail += s * t + off * asum`. Written as plain expressions
 * across the unrolled tile, GCC 12 fused some rows and not others,
 * which moved their outputs by a last bit at ragged K.
 */
template <int R, int C, class Cols>
CPULLM_AVX512_INLINE void
tileAvx512(const Cols& cols, const float* a, std::int64_t r0,
           std::int64_t j0, float* c)
{
    const std::int64_t k = cols.b.k();
    const std::int64_t group = cols.b.group();
    typename Cols::Col col[C];
    __m512 acc[R][C];
    float acc_tail[R][C];
#pragma GCC unroll 16
    for (int cc = 0; cc < C; ++cc)
        col[cc] = cols.col(j0 + cc);
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 16
        for (int cc = 0; cc < C; ++cc) {
            acc[r][cc] = _mm512_setzero_ps();
            acc_tail[r][cc] = 0.0f;
        }
    for (std::int64_t g = 0; g < cols.b.groups(); ++g) {
        // Group starts are block-aligned: group is a multiple of 16.
        const std::int64_t k0 = g * group;
        const std::int64_t kend = std::min(k, k0 + group);
        const std::int64_t kfull =
            k0 + (kend - k0) / kDotLanes * kDotLanes;
        __m512 lanes[R][C];
#pragma GCC unroll 16
        for (int r = 0; r < R; ++r)
#pragma GCC unroll 16
            for (int cc = 0; cc < C; ++cc)
                lanes[r][cc] = _mm512_setzero_ps();
        for (std::int64_t kk = k0; kk < kfull; kk += kDotLanes) {
            __m512 w[C];
#pragma GCC unroll 16
            for (int cc = 0; cc < C; ++cc)
                w[cc] = Cols::block(col[cc], kk);
#pragma GCC unroll 16
            for (int r = 0; r < R; ++r) {
                const __m512 x =
                    _mm512_loadu_ps(a + (r0 + r) * k + kk);
#pragma GCC unroll 16
                for (int cc = 0; cc < C; ++cc)
                    lanes[r][cc] =
                        _mm512_fmadd_ps(x, w[cc], lanes[r][cc]);
            }
        }
        float gtail[R][C] = {};
        for (std::int64_t kk = kfull; kk < kend; ++kk)
            for (int cc = 0; cc < C; ++cc) {
                const float u = Cols::code(col[cc], kk);
                for (int r = 0; r < R; ++r)
                    gtail[r][cc] = std::fma(a[(r0 + r) * k + kk], u,
                                            gtail[r][cc]);
            }
#pragma GCC unroll 16
        for (int r = 0; r < R; ++r)
#pragma GCC unroll 16
            for (int cc = 0; cc < C; ++cc) {
                acc[r][cc] =
                    _mm512_fmadd_ps(_mm512_set1_ps(col[cc].scales[g]),
                                    lanes[r][cc], acc[r][cc]);
                cols.foldTail(col[cc], g, r0 + r, gtail[r][cc],
                              acc_tail[r][cc]);
            }
    }
    const std::int64_t n = cols.b.n();
    for (int r = 0; r < R; ++r)
        for (int cc = 0; cc < C; ++cc) {
            alignas(64) float accl[kDotLanes];
            _mm512_store_ps(accl, acc[r][cc]);
            c[(r0 + r) * n + j0 + cc] =
                foldLanes(accl) + acc_tail[r][cc];
        }
}

/** Rows [r0, r0 + R) of a task: columns [j0, j1) in C-wide tiles,
 *  then the leftover columns one at a time. */
template <int R, int C, class Cols>
CPULLM_AVX512_INLINE void
rowSliceAvx512(const Cols& cols, const float* a, std::int64_t r0,
               std::int64_t j0, std::int64_t j1, float* c)
{
    std::int64_t j = j0;
    for (; j + C <= j1; j += C)
        tileAvx512<R, C>(cols, a, r0, j, c);
    for (; j < j1; ++j)
        tileAvx512<R, 1>(cols, a, r0, j, c);
}

/**
 * One task of the AVX-512F bodies. Full kTileRows-row slices
 * (prefill, batched decode) let each decoded block feed kTileRows
 * rows while the slice's activations stay in L1 across the task's
 * columns. A lone row (m = 1 decode, or rows left over) takes a
 * 1 x kGemvCols tile: one activation load feeds kGemvCols independent
 * FMA chains.
 */
template <class Cols>
CPULLM_AVX512_INLINE void
taskAvx512(const Cols& cols, const float* a, std::int64_t m,
           std::int64_t j0, std::int64_t j1, float* c)
{
    using detail::kGemvCols;
    using detail::kTileCols;
    using detail::kTileRows;
    std::int64_t r = 0;
    for (; r + kTileRows <= m; r += kTileRows)
        rowSliceAvx512<kTileRows, kTileCols>(cols, a, r, j0, j1, c);
    for (; r < m; ++r)
        rowSliceAvx512<1, kGemvCols>(cols, a, r, j0, j1, c);
}

#undef CPULLM_AVX512_INLINE
#pragma GCC diagnostic pop
#endif // CPULLM_QUANT_AVX512

/**
 * Run body(j0, j1) over fixed 16-column tasks on the pool: every
 * output element is computed whole inside one task, so any thread
 * count or backend produces the same bits. At m = 1 a pool chunk
 * takes 4 tasks (64 columns), which amortizes dispatch over the short
 * GEMV tasks.
 */
template <class Fn>
void
forEachColumnTask(std::int64_t n, std::int64_t m, const Fn& body)
{
    const std::int64_t n_chunks = (n + kTileN - 1) / kTileN;
    parallelFor(
        0, static_cast<std::size_t>(n_chunks),
        [&](std::size_t cb) {
            const std::int64_t j0 =
                static_cast<std::int64_t>(cb) * kTileN;
            body(j0, std::min<std::int64_t>(n, j0 + kTileN));
        },
        m == 1 ? 4 : 1);
}

/** The host's bodies, chosen once per process, so every call on a
 *  machine runs one arithmetic sequence. */
detail::I8gTaskFn
hostI8gTask()
{
    static const detail::I8gTaskFn task = [] {
#if CPULLM_QUANT_AVX512
        if (__builtin_cpu_supports("avx512f"))
            return &detail::i8gTaskAvx512;
#endif
        return &detail::i8gTaskPortable;
    }();
    return task;
}

detail::I4gTaskFn
hostI4gTask()
{
    static const detail::I4gTaskFn task = [] {
#if CPULLM_QUANT_AVX512
        if (__builtin_cpu_supports("avx512f"))
            return &detail::i4gTaskAvx512;
#endif
        return &detail::i4gTaskPortable;
    }();
    return task;
}

} // namespace

namespace detail {

void
i8gTaskPortable(const float* a, std::int64_t m,
                const PackedWeightsI8G& b, std::int64_t j0,
                std::int64_t j1, float* c)
{
    for (std::int64_t j = j0; j < j1; ++j)
        for (std::int64_t mi = 0; mi < m; ++mi)
            c[mi * b.n() + j] = dotColI8gPortable(a + mi * b.k(), b, j);
}

void
i4gTaskPortable(const float* a, std::int64_t m,
                const PackedWeightsI4G& b, const float* asums,
                std::int64_t j0, std::int64_t j1, float* c)
{
    for (std::int64_t j = j0; j < j1; ++j)
        for (std::int64_t mi = 0; mi < m; ++mi)
            c[mi * b.n() + j] = dotColI4gPortable(
                a + mi * b.k(), b, j, asums + mi * b.groups());
}

#if CPULLM_QUANT_AVX512
__attribute__((target("avx512f"))) void
i8gTaskAvx512(const float* a, std::int64_t m, const PackedWeightsI8G& b,
              std::int64_t j0, std::int64_t j1, float* c)
{
    taskAvx512(I8gCols{b}, a, m, j0, j1, c);
}

__attribute__((target("avx512f"))) void
i4gTaskAvx512(const float* a, std::int64_t m, const PackedWeightsI4G& b,
              const float* asums, std::int64_t j0, std::int64_t j1,
              float* c)
{
    taskAvx512(I4gCols{b, asums}, a, m, j0, j1, c);
}
#endif

void
runI8g(I8gTaskFn task, const float* a, const PackedWeightsI8G& b,
       float* c, std::int64_t m)
{
    forEachColumnTask(b.n(), m, [&](std::int64_t j0, std::int64_t j1) {
        task(a, m, b, j0, j1, c);
    });
}

void
runI4g(I4gTaskFn task, const float* a, const PackedWeightsI4G& b,
       float* c, std::int64_t m)
{
    // Per-row activation group sums, shared read-only by every task
    // (they fold the nibble bias / affine offset analytically).
    std::vector<float> asums(static_cast<std::size_t>(m * b.groups()));
    for (std::int64_t mi = 0; mi < m; ++mi)
        groupActSums(a + mi * b.k(), b.k(), b.group(), b.groups(),
                     asums.data() + mi * b.groups());
    forEachColumnTask(b.n(), m, [&](std::int64_t j0, std::int64_t j1) {
        task(a, m, b, asums.data(), j0, j1, c);
    });
}

} // namespace detail

void
gemmAvx512I8gPacked(const float* a, const PackedWeightsI8G& b,
                    float* c, std::int64_t m)
{
    CPULLM_ASSERT(!b.empty(), "gemmAvx512I8gPacked on empty weights");
    quantStatsOnCall(/*is_gemv=*/false, b.bytes());
    detail::runI8g(hostI8gTask(), a, b, c, m);
}

void
gemmAvx512I4gPacked(const float* a, const PackedWeightsI4G& b,
                    float* c, std::int64_t m)
{
    CPULLM_ASSERT(!b.empty(), "gemmAvx512I4gPacked on empty weights");
    quantStatsOnCall(/*is_gemv=*/false, b.bytes());
    detail::runI4g(hostI4gTask(), a, b, c, m);
}

void
gemvI4gFused(const float* a, const PackedWeightsI4G& b, float* c)
{
    CPULLM_ASSERT(!b.empty(), "gemvI4gFused on empty weights");
    quantStatsOnCall(/*is_gemv=*/true, b.bytes());
    detail::runI4g(hostI4gTask(), a, b, c, 1);
}

PreparedB::PreparedB(Engine engine, const Tensor& b) : engine_(engine)
{
    CPULLM_ASSERT(b.rank() == 2,
                  "PreparedB expects a rank-2 weight, got ",
                  shapeToString(b.shape()));
    k_ = b.dim(0);
    n_ = b.dim(1);
    switch (engine) {
      case Engine::Reference:
        ref_b_ = b.cast(DType::F32);
        return;
      case Engine::AmxBf16: {
        const Tensor bb = b.cast(DType::BF16);
        amx_bf16_ = PackedWeightsBf16(bb.data<BFloat16>(), k_, n_);
        return;
      }
      case Engine::Avx512Bf16: {
        const Tensor bb = b.cast(DType::BF16);
        avx512_ = PackedWeightsVnni(bb.data<BFloat16>(), k_, n_);
        return;
      }
      case Engine::AmxI8: {
        const Tensor bf = b.cast(DType::F32);
        amx_i8_ = PackedWeightsI8(bf.data<float>(), k_, n_);
        return;
      }
    }
    CPULLM_PANIC("unhandled engine");
}

PreparedB::PreparedB(Engine engine, const Tensor& b,
                     WeightDtype wdtype, std::int64_t group)
{
    if (wdtype == WeightDtype::Native) {
        *this = PreparedB(engine, b);
        return;
    }
    CPULLM_ASSERT(b.rank() == 2,
                  "PreparedB expects a rank-2 weight, got ",
                  shapeToString(b.shape()));
    engine_ = engine;
    wdtype_ = wdtype;
    k_ = b.dim(0);
    n_ = b.dim(1);
    const Tensor bf = b.cast(DType::F32);
    if (wdtype == WeightDtype::I8Grouped)
        i8g_ = PackedWeightsI8G(bf.data<float>(), k_, n_, group);
    else
        i4g_ = PackedWeightsI4G(bf.data<float>(), k_, n_, group);
}

const PackedWeightsI8G&
PreparedB::i8g() const
{
    CPULLM_ASSERT(wdtype_ == WeightDtype::I8Grouped,
                  "PreparedB holds ", weightDtypeName(wdtype_),
                  " weights, not int8");
    return i8g_;
}

const PackedWeightsI4G&
PreparedB::i4g() const
{
    CPULLM_ASSERT(wdtype_ == WeightDtype::I4Grouped,
                  "PreparedB holds ", weightDtypeName(wdtype_),
                  " weights, not int4");
    return i4g_;
}

double
PreparedB::quantMaxAbsErr() const
{
    switch (wdtype_) {
      case WeightDtype::Native:
        return 0.0;
      case WeightDtype::I8Grouped:
        return i8g_.maxAbsErr();
      case WeightDtype::I4Grouped:
        return i4g_.maxAbsErr();
    }
    CPULLM_PANIC("unhandled weight dtype");
}

double
PreparedB::quantErrSumSq() const
{
    switch (wdtype_) {
      case WeightDtype::Native:
        return 0.0;
      case WeightDtype::I8Grouped:
        return i8g_.errSumSq();
      case WeightDtype::I4Grouped:
        return i4g_.errSumSq();
    }
    CPULLM_PANIC("unhandled weight dtype");
}

const Tensor&
PreparedB::refB() const
{
    CPULLM_ASSERT(engine_ == Engine::Reference,
                  "PreparedB holds ", engineName(engine_),
                  ", not reference-fp32");
    return ref_b_;
}

const PackedWeightsBf16&
PreparedB::amxBf16() const
{
    CPULLM_ASSERT(engine_ == Engine::AmxBf16, "PreparedB holds ",
                  engineName(engine_), ", not amx-bf16");
    return amx_bf16_;
}

const PackedWeightsI8&
PreparedB::amxI8() const
{
    CPULLM_ASSERT(engine_ == Engine::AmxI8, "PreparedB holds ",
                  engineName(engine_), ", not amx-int8");
    return amx_i8_;
}

const PackedWeightsVnni&
PreparedB::avx512() const
{
    CPULLM_ASSERT(engine_ == Engine::Avx512Bf16, "PreparedB holds ",
                  engineName(engine_), ", not avx512-bf16");
    return avx512_;
}

Tensor
matmul(Engine engine, const Tensor& a, const PreparedB& b)
{
    CPULLM_ASSERT(engine == b.engine(),
                  "matmul engine ", engineName(engine),
                  " mismatches PreparedB engine ",
                  engineName(b.engine()));
    CPULLM_ASSERT(a.rank() == 2, "matmul expects a rank-2 activation, "
                  "got ", shapeToString(a.shape()));
    const std::int64_t m = a.dim(0);
    const std::int64_t k = a.dim(1);
    CPULLM_ASSERT(k == b.k(), "matmul inner dimension mismatch: ",
                  shapeToString(a.shape()), " x packed [", b.k(), ", ",
                  b.n(), "]");

    Tensor out({m, b.n()}, DType::F32);
    float* cp = out.data<float>();

    if (b.weightDtype() != WeightDtype::Native) {
        // Weight-only quantization: activations stay FP32 and the
        // fused-dequant kernels run on every engine; only the weight
        // stream shrinks (the decode bandwidth lever). The kernels
        // only read the activations, so F32 ones are not copied.
        Tensor af;
        const float* ap = a.dtype() == DType::F32
                              ? a.data<float>()
                              : (af = a.cast(DType::F32)).data<float>();
        if (b.weightDtype() == WeightDtype::I8Grouped)
            gemmAvx512I8gPacked(ap, b.i8g(), cp, m);
        else if (m == 1)
            gemvI4gFused(ap, b.i4g(), cp);
        else
            gemmAvx512I4gPacked(ap, b.i4g(), cp, m);
        return out;
    }

    switch (engine) {
      case Engine::Reference: {
        const Tensor af = a.cast(DType::F32);
        gemmRef(af.data<float>(), b.refB().data<float>(), cp, m, b.n(),
                k);
        return out;
      }
      case Engine::AmxBf16: {
        const Tensor ab = a.cast(DType::BF16);
        gemmAmxBf16Packed(ab.data<BFloat16>(), b.amxBf16(), cp, m);
        return out;
      }
      case Engine::Avx512Bf16: {
        const Tensor ab = a.cast(DType::BF16);
        gemmAvx512Bf16Packed(ab.data<BFloat16>(), b.avx512(), cp, m);
        return out;
      }
      case Engine::AmxI8: {
        // Activations are still quantized per call from their
        // observed range; only the weight side is cached.
        float amax = 0.0f;
        for (std::int64_t i = 0; i < a.size(); ++i)
            amax = std::max(amax, std::fabs(a.at(i)));
        const QuantParams qa = QuantParams::forAbsMax(amax);
        std::vector<std::int8_t> aq(static_cast<std::size_t>(a.size()));
        for (std::int64_t i = 0; i < a.size(); ++i)
            aq[static_cast<std::size_t>(i)] = qa.quantize(a.at(i));
        gemmAmxI8Packed(aq.data(), b.amxI8(), cp, m, qa.scale);
        return out;
      }
    }
    CPULLM_PANIC("unhandled engine");
}

} // namespace gemm
} // namespace cpullm
