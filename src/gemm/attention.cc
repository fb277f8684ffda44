#include "gemm/attention.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gemm/attention_detail.h"
#include "numerics/bf16.h"
#include "util/hot_clones.h"
#include "util/logging.h"
#include "util/parallel.h"

#if CPULLM_ATTN_AVX512
#include <immintrin.h>
#endif

namespace cpullm {
namespace gemm {

namespace {

std::atomic<std::uint64_t> decodeCalls_{0};
std::atomic<std::uint64_t> prefillCalls_{0};
std::atomic<std::uint64_t> raggedCalls_{0};
std::atomic<std::uint64_t> tasks_{0};
std::atomic<std::uint64_t> spanRows_{0};
std::atomic<std::uint64_t> scratchAllocs_{0};

/** Keys per tile: one per 16-lane FP32 vector lane. */
constexpr std::int64_t kTile = 16;

/**
 * Per-thread kernel scratch: grown monotonically, reused across
 * calls, never freed while the thread lives. Steady-state decode
 * touches no allocator.
 */
struct AttnScratch
{
    std::vector<float> tile;   ///< widened K^T, V and K staging
    std::vector<float> runMax; ///< online-softmax running max per row
    std::vector<float> runSum; ///< online-softmax running sum per row

    static void
    ensure(std::vector<float>& v, std::size_t n)
    {
        if (v.capacity() < n) {
            v.reserve(n);
            scratchAllocs_.fetch_add(1, std::memory_order_relaxed);
        }
        v.resize(n);
    }

    /** @p n floats of the tile buffer, 64-byte aligned, so every
     *  16-lane row of a widened tile is one cache line. */
    float*
    tileFloats(std::size_t n)
    {
        ensure(tile, n + kTile - 1);
        const std::size_t misalign =
            reinterpret_cast<std::uintptr_t>(tile.data()) % 64;
        return tile.data() + (64 - misalign) % 64 / sizeof(float);
    }
};

AttnScratch&
attnScratch()
{
    thread_local AttnScratch s;
    return s;
}

/** One cached row's kv-head slice, in its storage dtype. */
struct RowRef
{
    const void* data = nullptr;
    DType dtype = DType::F32;
};

/** Widens @p n elements of @p r to FP32 (FP32 rows are copied). */
void
widenRow(RowRef r, std::int64_t n, float* dst)
{
    if (r.dtype == DType::F32) {
        std::memcpy(dst, r.data, static_cast<std::size_t>(n) *
                                     sizeof(float));
        return;
    }
    const BFloat16* src = static_cast<const BFloat16*>(r.data);
    for (std::int64_t i = 0; i < n; ++i)
        dst[i] = src[i].toFloat();
}

/**
 * Sequential walker over a span chunk list, yielding one kv-head
 * slice (at element offset @p off) per row in position order.
 */
class SliceCursor
{
  public:
    SliceCursor(const kv::KvSpan* chunks, std::size_t n_chunks,
                std::int64_t off)
        : chunks_(chunks), n_chunks_(n_chunks), off_(off)
    {
    }

    RowRef
    next()
    {
        while (chunk_ < n_chunks_ && local_ >= chunks_[chunk_].len) {
            ++chunk_;
            local_ = 0;
        }
        CPULLM_ASSERT(chunk_ < n_chunks_,
                      "KV span chunks shorter than the attended span");
        const kv::KvSpan& sp = chunks_[chunk_];
        CPULLM_ASSERT(sp.dtype == DType::F32 || sp.dtype == DType::BF16,
                      "unsupported KV span dtype ", dtypeName(sp.dtype));
        const std::int64_t elem = local_ * sp.stride + off_;
        ++local_;
        if (sp.dtype == DType::F32)
            return {static_cast<const float*>(sp.data) + elem, sp.dtype};
        return {static_cast<const BFloat16*>(sp.data) + elem, sp.dtype};
    }

  private:
    const kv::KvSpan* chunks_;
    std::size_t n_chunks_;
    std::int64_t off_;
    std::size_t chunk_ = 0;
    std::int64_t local_ = 0;
};

/**
 * One widened 16-key tile in a task's scratch. kt is K transposed,
 * [hdPad][16], so one score vector is headDim broadcast-FMAs; vt is
 * V row-major, [16][hdPad]; stage holds K row-major while it is
 * transposed. hdPad rounds headDim up to whole 16-lane rows; rows
 * and columns past the tile's keys or headDim are never read into a
 * result.
 */
struct Tile
{
    float* kt;
    float* vt;
    float* stage;
    std::int64_t hd;
    std::int64_t hdPad;
    float scale;
};

// e^x on 16 lanes for x <= 0 (Cephes expf): x = n ln2 + r with
// |r| <= ln2/2 (ln2 split hi/lo), a degree-6 polynomial for e^r, then
// a 2^n scale. Lanes below kExpMin, where e^x is no longer a normal
// float, come out exactly 0, and so do NaN and -inf lanes.
constexpr float kExpMin = -87.33654f; // ln(FLT_MIN)
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpP[] = {1.9875691500e-4f, 1.3981999507e-3f,
                           8.3334519073e-3f, 4.1665795894e-2f,
                           1.6666665459e-1f, 5.0000001201e-1f};

/**
 * Portable body: plain loops over 16 lanes (keys, or head-dim
 * columns) with independent per-lane chains, which each ISA clone of
 * attnTaskPortable maps onto its vector unit.
 */
struct PortableTile
{
    static void
    pack(const Tile& t, const RowRef* k, const RowRef* v,
         std::int64_t n)
    {
        for (std::int64_t j = 0; j < n; ++j) {
            widenRow(k[j], t.hd, t.stage + j * t.hdPad);
            widenRow(v[j], t.hd, t.vt + j * t.hdPad);
        }
        for (std::int64_t j = n; j < kTile; ++j)
            std::fill_n(t.stage + j * t.hdPad, t.hd, 0.0f);
        for (std::int64_t j = 0; j < kTile; ++j)
            for (std::int64_t d = 0; d < t.hd; ++d)
                t.kt[d * kTile + j] = t.stage[j * t.hdPad + d];
    }

    /** out[l] = e^x[l] on every lane; 0 below kExpMin, NaN, -inf. */
    static void
    expLanes(const float* x, float* out)
    {
        for (std::int64_t l = 0; l < kTile; ++l) {
            // Clamped into [kExpMin, 0], NaN to kExpMin, so the int
            // conversion below stays in range on every lane.
            const float xc =
                x[l] > kExpMin ? (x[l] < 0.0f ? x[l] : 0.0f) : kExpMin;
            // Round to nearest through the 1.5 * 2^23 bias.
            const float n = (xc * kLog2e + 0x1.8p23f) - 0x1.8p23f;
            float r = xc - n * kLn2Hi;
            r = r - n * kLn2Lo;
            float p = kExpP[0];
            for (int c = 1; c < 6; ++c)
                p = p * r + kExpP[c];
            p = p * (r * r) + r + 1.0f;
            const float pow2n = std::bit_cast<float>(
                static_cast<std::uint32_t>(static_cast<std::int32_t>(n) +
                                           127)
                << 23);
            out[l] = x[l] >= kExpMin ? p * pow2n : 0.0f;
        }
    }

    static void
    row(const Tile& t, const float* q, std::int64_t live,
        float& run_max, float& run_sum, float* acc)
    {
        float s[kTile] = {};
        for (std::int64_t d = 0; d < t.hd; ++d)
            for (std::int64_t l = 0; l < kTile; ++l)
                s[l] += q[d] * t.kt[d * kTile + l];
        for (std::int64_t l = 0; l < kTile; ++l)
            s[l] = l < live ? s[l] * t.scale
                            : -std::numeric_limits<float>::infinity();
        float tile_max = s[0];
        for (std::int64_t l = 1; l < kTile; ++l)
            tile_max = std::max(tile_max, s[l]);
        const float m_new = std::max(run_max, tile_max);
        const float alpha = std::exp(run_max - m_new);
        for (std::int64_t l = 0; l < kTile; ++l)
            s[l] -= m_new;
        float p[kTile];
        expLanes(s, p);
        float lanes[kTile];
        std::copy(p, p + kTile, lanes);
        for (std::int64_t half = kTile / 2; half > 0; half /= 2)
            for (std::int64_t l = 0; l < half; ++l)
                lanes[l] += lanes[l + half];
        run_sum = run_sum * alpha + lanes[0];
        run_max = m_new;
        // acc = alpha * acc + sum_j p_j V_j over the visible keys, 16
        // head-dim columns at a time.
        std::int64_t c = 0;
        for (; c + kTile <= t.hd; c += kTile) {
            float a[kTile];
            for (std::int64_t l = 0; l < kTile; ++l)
                a[l] = acc[c + l] * alpha;
            for (std::int64_t j = 0; j < live; ++j)
                for (std::int64_t l = 0; l < kTile; ++l)
                    a[l] += p[j] * t.vt[j * t.hdPad + c + l];
            std::copy(a, a + kTile, acc + c);
        }
        for (; c < t.hd; ++c) {
            float a = acc[c] * alpha;
            for (std::int64_t j = 0; j < live; ++j)
                a += p[j] * t.vt[j * t.hdPad + c];
            acc[c] = a;
        }
    }
};

#if CPULLM_ATTN_AVX512
// GCC 12 warns inside the _mm512_reduce_* and mask intrinsics, whose
// _mm512_undefined_*() operands are deliberately undefined inputs to
// masked builtins (GCC PR105593); silence the false alarm.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/** In-register transpose of 16 rows of 16 floats (64 shuffles). */
__attribute__((target("avx512f"))) inline void
transpose16(__m512* r)
{
    __m512 t[kTile];
    for (int i = 0; i < 8; ++i) {
        t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
    }
    // u[4i + c], 128-bit lane L: column 4L + c of rows 4i..4i+3.
    __m512 u[kTile];
    for (int i = 0; i < 4; ++i) {
        u[4 * i] = _mm512_shuffle_ps(t[4 * i], t[4 * i + 2], 0x44);
        u[4 * i + 1] = _mm512_shuffle_ps(t[4 * i], t[4 * i + 2], 0xEE);
        u[4 * i + 2] =
            _mm512_shuffle_ps(t[4 * i + 1], t[4 * i + 3], 0x44);
        u[4 * i + 3] =
            _mm512_shuffle_ps(t[4 * i + 1], t[4 * i + 3], 0xEE);
    }
    for (int c = 0; c < 4; ++c) {
        const __m512 lo01 = _mm512_shuffle_f32x4(u[c], u[4 + c], 0x44);
        const __m512 hi01 = _mm512_shuffle_f32x4(u[c], u[4 + c], 0xEE);
        const __m512 lo23 =
            _mm512_shuffle_f32x4(u[8 + c], u[12 + c], 0x44);
        const __m512 hi23 =
            _mm512_shuffle_f32x4(u[8 + c], u[12 + c], 0xEE);
        r[c] = _mm512_shuffle_f32x4(lo01, lo23, 0x88);
        r[4 + c] = _mm512_shuffle_f32x4(lo01, lo23, 0xDD);
        r[8 + c] = _mm512_shuffle_f32x4(hi01, hi23, 0x88);
        r[12 + c] = _mm512_shuffle_f32x4(hi01, hi23, 0xDD);
    }
}

/** widenRow into a 64-byte aligned @p dst, 16 BF16 per VPMOVZXWD. */
__attribute__((target("avx512f"))) inline void
widenRowAvx512(RowRef r, std::int64_t n, float* dst)
{
    if (r.dtype == DType::F32) {
        widenRow(r, n, dst);
        return;
    }
    const BFloat16* src = static_cast<const BFloat16*>(r.data);
    std::int64_t i = 0;
    for (; i + kTile <= n; i += kTile) {
        const __m256i h = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(src + i));
        _mm512_store_ps(dst + i,
                        _mm512_castsi512_ps(_mm512_slli_epi32(
                            _mm512_cvtepu16_epi32(h), 16)));
    }
    for (; i < n; ++i)
        dst[i] = src[i].toFloat();
}

/** The portable body's expLanes on one vector; VSCALEFPS applies
 *  2^n. */
__attribute__((target("avx512f"))) inline __m512
expAvx512(__m512 x, __mmask16 live)
{
    live &= _mm512_cmp_ps_mask(x, _mm512_set1_ps(kExpMin), _CMP_GE_OQ);
    const __m512 xc = _mm512_max_ps(x, _mm512_set1_ps(kExpMin));
    const __m512 n = _mm512_roundscale_ps(
        _mm512_mul_ps(xc, _mm512_set1_ps(kLog2e)),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m512 r = _mm512_fnmadd_ps(n, _mm512_set1_ps(kLn2Hi), xc);
    r = _mm512_fnmadd_ps(n, _mm512_set1_ps(kLn2Lo), r);
    __m512 p = _mm512_set1_ps(kExpP[0]);
    for (int c = 1; c < 6; ++c)
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpP[c]));
    p = _mm512_add_ps(_mm512_fmadd_ps(p, _mm512_mul_ps(r, r), r),
                      _mm512_set1_ps(1.0f));
    return _mm512_maskz_scalef_ps(live, p, n);
}

/** AVX-512F body: the portable body's steps on native zmm lanes. */
struct Avx512Tile
{
    __attribute__((target("avx512f"))) static void
    pack(const Tile& t, const RowRef* k, const RowRef* v,
         std::int64_t n)
    {
        for (std::int64_t j = 0; j < n; ++j) {
            widenRowAvx512(k[j], t.hd, t.stage + j * t.hdPad);
            widenRowAvx512(v[j], t.hd, t.vt + j * t.hdPad);
        }
        for (std::int64_t c0 = 0; c0 < t.hdPad; c0 += kTile) {
            __m512 r[kTile];
            for (std::int64_t j = 0; j < kTile; ++j)
                r[j] = j < n ? _mm512_load_ps(t.stage + j * t.hdPad + c0)
                             : _mm512_setzero_ps();
            transpose16(r);
            for (std::int64_t i = 0; i < kTile; ++i)
                _mm512_store_ps(t.kt + (c0 + i) * kTile, r[i]);
        }
    }

    __attribute__((target("avx512f"))) static void
    row(const Tile& t, const float* q, std::int64_t live,
        float& run_max, float& run_sum, float* acc)
    {
        __m512 s = _mm512_setzero_ps();
        for (std::int64_t d = 0; d < t.hd; ++d)
            s = _mm512_fmadd_ps(_mm512_set1_ps(q[d]),
                                _mm512_load_ps(t.kt + d * kTile), s);
        const __mmask16 keys =
            static_cast<__mmask16>((1u << live) - 1u);
        s = _mm512_mask_blend_ps(
            keys,
            _mm512_set1_ps(-std::numeric_limits<float>::infinity()),
            _mm512_mul_ps(s, _mm512_set1_ps(t.scale)));
        const float m_new = std::max(run_max, _mm512_reduce_max_ps(s));
        const float alpha = std::exp(run_max - m_new);
        const __m512 p =
            expAvx512(_mm512_sub_ps(s, _mm512_set1_ps(m_new)), keys);
        run_sum = run_sum * alpha + _mm512_reduce_add_ps(p);
        run_max = m_new;
        alignas(64) float pw[kTile];
        _mm512_store_ps(pw, p);
        const __m512 av = _mm512_set1_ps(alpha);
        for (std::int64_t c = 0; c < t.hd; c += kTile) {
            const std::int64_t cols = std::min(kTile, t.hd - c);
            const __mmask16 cm =
                static_cast<__mmask16>((1u << cols) - 1u);
            __m512 a = _mm512_mul_ps(_mm512_maskz_loadu_ps(cm, acc + c),
                                     av);
            for (std::int64_t j = 0; j < live; ++j)
                a = _mm512_fmadd_ps(
                    _mm512_set1_ps(pw[j]),
                    _mm512_load_ps(t.vt + j * t.hdPad + c), a);
            _mm512_mask_storeu_ps(acc + c, cm, a);
        }
    }
};
#pragma GCC diagnostic pop
#endif // CPULLM_ATTN_AVX512

void
checkArgs(const AttnShape& shape, std::int64_t m, std::int64_t pos0,
          const AttnSeqView* seqs, std::size_t n_seqs)
{
    CPULLM_ASSERT(shape.heads > 0 && shape.kvHeads > 0 &&
                      shape.headDim > 0,
                  "invalid attention shape");
    CPULLM_ASSERT(shape.heads % shape.kvHeads == 0,
                  "query heads ", shape.heads,
                  " not divisible by kv heads ", shape.kvHeads);
    CPULLM_ASSERT(m >= 1 && pos0 >= 0, "invalid query span [", pos0,
                  ", ", pos0 + m, ")");
    CPULLM_ASSERT(seqs != nullptr || n_seqs == 0,
                  "null sequence views");
    const std::int64_t span = pos0 + m;
    const std::int64_t d_kv = shape.kvHeads * shape.headDim;
    for (std::size_t s = 0; s < n_seqs; ++s) {
        std::int64_t k_rows = 0, v_rows = 0;
        for (std::size_t c = 0; c < seqs[s].chunks; ++c) {
            CPULLM_ASSERT(seqs[s].k[c].rowElems == d_kv &&
                              seqs[s].v[c].rowElems == d_kv,
                          "KV span row width mismatches kv-heads x "
                          "head-dim");
            k_rows += seqs[s].k[c].len;
            v_rows += seqs[s].v[c].len;
        }
        CPULLM_ASSERT(k_rows >= span && v_rows >= span,
                      "sequence ", s, " caches ", std::min(k_rows,
                      v_rows), " rows, needs ", span);
    }
}

/**
 * One (sequence, kv-head) task. Tiles start at absolute positions
 * 16t, whatever the chunking, and each is widened once and shared by
 * all group * m query rows. A row at position P takes the tiles that
 * start at or before P, with keys past P masked out, so its result
 * depends only on its own query, position and keys: bitwise the same
 * in a prefill span as in an m == 1 decode at P.
 */
template <class Body>
void
tiledTask(const AttnShape& shape, const AttnRaggedSeq& rs,
          std::int64_t kvh)
{
    const AttnSeqView& seq = rs.view;
    const std::int64_t m = rs.m;
    const std::int64_t pos0 = rs.pos0;
    const std::int64_t hd = shape.headDim;
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    const std::int64_t group = shape.heads / shape.kvHeads;
    const std::int64_t width = shape.heads * hd; // q/out row elements
    const std::int64_t span = pos0 + m;
    const std::int64_t states = group * m;
    const std::int64_t hd_pad = (hd + kTile - 1) / kTile * kTile;

    AttnScratch& scr = attnScratch();
    float* buf =
        scr.tileFloats(static_cast<std::size_t>(3 * kTile * hd_pad));
    const Tile tile{buf, buf + kTile * hd_pad, buf + 2 * kTile * hd_pad,
                    hd, hd_pad, scale};
    AttnScratch::ensure(scr.runMax, static_cast<std::size_t>(states));
    AttnScratch::ensure(scr.runSum, static_cast<std::size_t>(states));
    std::fill(scr.runMax.begin(), scr.runMax.end(),
              -std::numeric_limits<float>::infinity());
    std::fill(scr.runSum.begin(), scr.runSum.end(), 0.0f);
    // Accumulators live directly in the output rows this task owns.
    for (std::int64_t g = 0; g < group; ++g)
        for (std::int64_t qi = 0; qi < m; ++qi)
            std::fill_n(seq.out + qi * width + (kvh * group + g) * hd, hd,
                        0.0f);

    SliceCursor kc(seq.k, seq.chunks, kvh * hd);
    SliceCursor vc(seq.v, seq.chunks, kvh * hd);
    RowRef krows[kTile], vrows[kTile];
    for (std::int64_t t0 = 0; t0 < span; t0 += kTile) {
        const std::int64_t n = std::min(kTile, span - t0);
        for (std::int64_t j = 0; j < n; ++j) {
            krows[j] = kc.next();
            vrows[j] = vc.next();
        }
        Body::pack(tile, krows, vrows, n);
        // Row qi sits at position pos0 + qi and sees this tile's keys
        // up to there.
        const std::int64_t qi_min = std::max<std::int64_t>(0, t0 - pos0);
        for (std::int64_t g = 0; g < group; ++g) {
            const std::int64_t h = kvh * group + g;
            for (std::int64_t qi = qi_min; qi < m; ++qi) {
                const std::size_t st = static_cast<std::size_t>(g * m +
                                                                qi);
                Body::row(tile, seq.q + qi * width + h * hd,
                          std::min(kTile, pos0 + qi - t0 + 1),
                          scr.runMax[st], scr.runSum[st],
                          seq.out + qi * width + h * hd);
            }
        }
    }

    for (std::int64_t g = 0; g < group; ++g) {
        const std::int64_t h = kvh * group + g;
        for (std::int64_t qi = 0; qi < m; ++qi) {
            const float inv =
                1.0f / scr.runSum[static_cast<std::size_t>(g * m + qi)];
            float* acc = seq.out + qi * width + h * hd;
            for (std::int64_t i = 0; i < hd; ++i)
                acc[i] *= inv;
        }
    }
}

} // namespace

namespace detail {

// flatten inlines the body's helpers into each ISA clone, so their
// 16-lane loops are vectorized for that clone's target.
CPULLM_HOT_CLONES __attribute__((flatten)) void
attnTaskPortable(const AttnShape& shape, const AttnRaggedSeq& seq,
                 std::int64_t kvh)
{
    tiledTask<PortableTile>(shape, seq, kvh);
}

#if CPULLM_ATTN_AVX512
void
attnTaskAvx512(const AttnShape& shape, const AttnRaggedSeq& seq,
               std::int64_t kvh)
{
    tiledTask<Avx512Tile>(shape, seq, kvh);
}
#endif

} // namespace detail

AttnStats
attnStats()
{
    AttnStats s;
    s.decodeCalls = decodeCalls_.load(std::memory_order_relaxed);
    s.prefillCalls = prefillCalls_.load(std::memory_order_relaxed);
    s.raggedCalls = raggedCalls_.load(std::memory_order_relaxed);
    s.tasks = tasks_.load(std::memory_order_relaxed);
    s.spanRows = spanRows_.load(std::memory_order_relaxed);
    s.scratchAllocs = scratchAllocs_.load(std::memory_order_relaxed);
    return s;
}

void
attnFusedRagged(const AttnShape& shape, const AttnRaggedSeq* seqs,
                std::size_t n_seqs)
{
    CPULLM_ASSERT(seqs != nullptr || n_seqs == 0,
                  "null attention slots");
    std::uint64_t rows = 0;
    std::size_t decode_slots = 0;
    for (std::size_t s = 0; s < n_seqs; ++s) {
        checkArgs(shape, seqs[s].m, seqs[s].pos0, &seqs[s].view, 1);
        rows += static_cast<std::uint64_t>(seqs[s].pos0 + seqs[s].m);
        if (seqs[s].m == 1)
            ++decode_slots;
    }
    if (n_seqs == 0)
        return;
    const std::size_t grid =
        n_seqs * static_cast<std::size_t>(shape.kvHeads);

    // One bucket per call, by query shape (see AttnStats).
    std::atomic<std::uint64_t>& calls =
        decode_slots == n_seqs ? decodeCalls_
        : decode_slots == 0    ? prefillCalls_
                               : raggedCalls_;
    calls.fetch_add(1, std::memory_order_relaxed);
    tasks_.fetch_add(grid, std::memory_order_relaxed);
    spanRows_.fetch_add(rows *
                            static_cast<std::uint64_t>(shape.kvHeads),
                        std::memory_order_relaxed);

    // The host's body, chosen once per process, so every call on a
    // machine runs one arithmetic sequence.
    static const detail::AttnTaskFn task = [] {
#if CPULLM_ATTN_AVX512
        if (__builtin_cpu_supports("avx512f"))
            return &detail::attnTaskAvx512;
#endif
        return &detail::attnTaskPortable;
    }();
    parallelFor(
        0, grid,
        [&](std::size_t idx) {
            const std::size_t b =
                idx / static_cast<std::size_t>(shape.kvHeads);
            const std::int64_t kvh = static_cast<std::int64_t>(
                idx % static_cast<std::size_t>(shape.kvHeads));
            task(shape, seqs[b], kvh);
        },
        1);
}

void
attnRef(const AttnShape& shape, std::int64_t m, std::int64_t pos0,
        const AttnSeqView* seqs, std::size_t n_seqs)
{
    checkArgs(shape, m, pos0, seqs, n_seqs);
    const std::int64_t hd = shape.headDim;
    const std::int64_t group = shape.heads / shape.kvHeads;
    const std::int64_t width = shape.heads * hd;

    std::vector<float> scores(static_cast<std::size_t>(pos0 + m));
    std::vector<float> kbuf(static_cast<std::size_t>(hd));
    std::vector<float> vbuf(static_cast<std::size_t>(hd));
    for (std::size_t b = 0; b < n_seqs; ++b) {
        const AttnSeqView& seq = seqs[b];
        for (std::int64_t qi = 0; qi < m; ++qi) {
            const std::int64_t span = pos0 + qi + 1;
            for (std::int64_t h = 0; h < shape.heads; ++h) {
                const std::int64_t kvh = h / group;
                const float* qh = seq.q + qi * width + h * hd;
                SliceCursor kc(seq.k, seq.chunks, kvh * hd);
                SliceCursor vc(seq.v, seq.chunks, kvh * hd);
                // The naive path's order: scalar dot per position...
                for (std::int64_t p = 0; p < span; ++p) {
                    const float* kh = kbuf.data();
                    widenRow(kc.next(), hd, kbuf.data());
                    float dot = 0.0f;
                    for (std::int64_t i = 0; i < hd; ++i)
                        dot += qh[i] * kh[i];
                    scores[static_cast<std::size_t>(p)] =
                        dot /
                        std::sqrt(static_cast<float>(hd));
                }
                // ...two-pass softmax...
                float mx = scores[0];
                for (std::int64_t p = 1; p < span; ++p)
                    mx = std::max(mx,
                                  scores[static_cast<std::size_t>(p)]);
                float sum = 0.0f;
                for (std::int64_t p = 0; p < span; ++p) {
                    scores[static_cast<std::size_t>(p)] = std::exp(
                        scores[static_cast<std::size_t>(p)] - mx);
                    sum += scores[static_cast<std::size_t>(p)];
                }
                const float inv = 1.0f / sum;
                // ...then the weighted V accumulation.
                float* ch = seq.out + qi * width + h * hd;
                for (std::int64_t i = 0; i < hd; ++i)
                    ch[i] = 0.0f;
                for (std::int64_t p = 0; p < span; ++p) {
                    const float* vh = vbuf.data();
                    widenRow(vc.next(), hd, vbuf.data());
                    const float pw =
                        scores[static_cast<std::size_t>(p)] * inv;
                    for (std::int64_t i = 0; i < hd; ++i)
                        ch[i] += pw * vh[i];
                }
            }
        }
    }
}

} // namespace gemm
} // namespace cpullm
