#include "gemm/attention.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "isa/avx512.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace cpullm {
namespace gemm {

namespace {

std::atomic<std::uint64_t> decodeCalls_{0};
std::atomic<std::uint64_t> prefillCalls_{0};
std::atomic<std::uint64_t> raggedCalls_{0};
std::atomic<std::uint64_t> tasks_{0};
std::atomic<std::uint64_t> spanRows_{0};
std::atomic<std::uint64_t> scratchAllocs_{0};

/**
 * Per-thread kernel scratch: grown monotonically, reused across
 * calls, never freed while the thread lives. Steady-state decode
 * touches no allocator (the satellite fix for the per-call
 * kbuf/vbuf/scores churn of the old naive loop).
 */
struct AttnScratch
{
    std::vector<float> krow;   ///< widened K head-slice (BF16 spans)
    std::vector<float> vrow;   ///< widened V head-slice
    std::vector<float> runMax; ///< online-softmax running max
    std::vector<float> runSum; ///< online-softmax running sum

    static void
    ensure(std::vector<float>& v, std::size_t n)
    {
        if (v.capacity() < n) {
            v.reserve(n);
            scratchAllocs_.fetch_add(1, std::memory_order_relaxed);
        }
        v.resize(n);
    }
};

AttnScratch&
attnScratch()
{
    thread_local AttnScratch s;
    return s;
}

/** q . k over @p n FP32 elements on the emulated AVX-512 lanes. */
float
dotF32(const float* a, const float* b, std::int64_t n)
{
    using isa::Vec512;
    Vec512 acc = Vec512::zero();
    std::int64_t i = 0;
    for (; i + Vec512::kF32Lanes <= n; i += Vec512::kF32Lanes)
        acc = isa::fma(acc, Vec512::loadF32(a + i),
                       Vec512::loadF32(b + i));
    float s = isa::horizontalSum(acc);
    for (; i < n; ++i)
        s += a[i] * b[i];
    return s;
}

/** acc += w * v over @p n FP32 elements (VFMADD231PS idiom). */
void
axpyF32(float w, const float* v, float* acc, std::int64_t n)
{
    using isa::Vec512;
    const Vec512 wv = Vec512::broadcast(w);
    std::int64_t i = 0;
    for (; i + Vec512::kF32Lanes <= n; i += Vec512::kF32Lanes) {
        const Vec512 r = isa::fma(Vec512::loadF32(acc + i), wv,
                                  Vec512::loadF32(v + i));
        r.storeF32(acc + i);
    }
    for (; i < n; ++i)
        acc[i] += w * v[i];
}

/** acc *= s over @p n FP32 elements (VMULPS idiom). */
void
scaleF32(float s, float* acc, std::int64_t n)
{
    using isa::Vec512;
    const Vec512 sv = Vec512::broadcast(s);
    std::int64_t i = 0;
    for (; i + Vec512::kF32Lanes <= n; i += Vec512::kF32Lanes) {
        const Vec512 r = isa::mul(Vec512::loadF32(acc + i), sv);
        r.storeF32(acc + i);
    }
    for (; i < n; ++i)
        acc[i] *= s;
}

/**
 * Sequential walker over a span chunk list, yielding one kv-head
 * slice (@p n elements at element offset @p off) per row in position
 * order. BF16 rows are widened once into @p scratch; FP32 rows are
 * returned in place.
 */
class SliceCursor
{
  public:
    SliceCursor(const kv::KvSpan* chunks, std::size_t n_chunks,
                std::int64_t off, std::int64_t n, float* scratch)
        : chunks_(chunks), n_chunks_(n_chunks), off_(off), n_(n),
          scratch_(scratch)
    {
    }

    const float*
    next()
    {
        while (chunk_ < n_chunks_ && local_ >= chunks_[chunk_].len) {
            ++chunk_;
            local_ = 0;
        }
        CPULLM_ASSERT(chunk_ < n_chunks_,
                      "KV span chunks shorter than the attended span");
        const kv::KvSpan& sp = chunks_[chunk_];
        const float* out;
        if (sp.dtype == DType::F32) {
            out = static_cast<const float*>(sp.data) +
                  local_ * sp.stride + off_;
        } else {
            CPULLM_ASSERT(sp.dtype == DType::BF16,
                          "unsupported KV span dtype ",
                          dtypeName(sp.dtype));
            const BFloat16* row = static_cast<const BFloat16*>(
                                      sp.data) +
                                  local_ * sp.stride + off_;
            for (std::int64_t i = 0; i < n_; ++i)
                scratch_[i] = row[i].toFloat();
            out = scratch_;
        }
        ++local_;
        return out;
    }

  private:
    const kv::KvSpan* chunks_;
    std::size_t n_chunks_;
    std::int64_t off_;
    std::int64_t n_;
    float* scratch_;
    std::size_t chunk_ = 0;
    std::int64_t local_ = 0;
};

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

/** One (sequence, kv-head) task: the fused single-pass sweep. */
void
fusedTask(const AttnShape& shape, std::int64_t m, std::int64_t pos0,
          const AttnSeqView& seq, std::int64_t kvh, float scale)
{
    const std::int64_t hd = shape.headDim;
    const std::int64_t group = shape.heads / shape.kvHeads;
    const std::int64_t width = shape.heads * hd; // q/out row elements
    const std::int64_t span = pos0 + m;
    const std::int64_t states = group * m;

    AttnScratch& scr = attnScratch();
    AttnScratch::ensure(scr.krow, static_cast<std::size_t>(hd));
    AttnScratch::ensure(scr.vrow, static_cast<std::size_t>(hd));
    AttnScratch::ensure(scr.runMax, static_cast<std::size_t>(states));
    AttnScratch::ensure(scr.runSum, static_cast<std::size_t>(states));

    const float neg_inf = -std::numeric_limits<float>::infinity();
    for (std::int64_t st = 0; st < states; ++st) {
        scr.runMax[static_cast<std::size_t>(st)] = neg_inf;
        scr.runSum[static_cast<std::size_t>(st)] = 0.0f;
    }
    // Accumulators live directly in the output rows this task owns.
    for (std::int64_t g = 0; g < group; ++g) {
        const std::int64_t h = kvh * group + g;
        for (std::int64_t qi = 0; qi < m; ++qi) {
            float* acc = seq.out + qi * width + h * hd;
            for (std::int64_t i = 0; i < hd; ++i)
                acc[i] = 0.0f;
        }
    }

    SliceCursor kc(seq.k, seq.chunks, kvh * hd, hd, scr.krow.data());
    SliceCursor vc(seq.v, seq.chunks, kvh * hd, hd, scr.vrow.data());

    for (std::int64_t p = 0; p < span; ++p) {
        const float* krow = kc.next();
        const float* vrow = vc.next();
        // Causality: row p is visible to query rows qi >= p - pos0.
        const std::int64_t qi_min = std::max<std::int64_t>(0,
                                                           p - pos0);
        for (std::int64_t g = 0; g < group; ++g) {
            const std::int64_t h = kvh * group + g;
            for (std::int64_t qi = qi_min; qi < m; ++qi) {
                const float* qh = seq.q + qi * width + h * hd;
                float* acc = seq.out + qi * width + h * hd;
                const std::size_t st =
                    static_cast<std::size_t>(g * m + qi);
                const float s = dotF32(qh, krow, hd) * scale;
                // Online-softmax recurrence: rescale history only
                // when the running max actually moves.
                const float m_old = scr.runMax[st];
                if (s > m_old) {
                    const float alpha = std::exp(m_old - s);
                    scr.runMax[st] = s;
                    scr.runSum[st] = scr.runSum[st] * alpha + 1.0f;
                    scaleF32(alpha, acc, hd); // exp(s - s) == 1
                    axpyF32(1.0f, vrow, acc, hd);
                } else {
                    const float w = std::exp(s - m_old);
                    scr.runSum[st] += w;
                    axpyF32(w, vrow, acc, hd);
                }
            }
        }
    }

    for (std::int64_t g = 0; g < group; ++g) {
        const std::int64_t h = kvh * group + g;
        for (std::int64_t qi = 0; qi < m; ++qi) {
            const std::size_t st = static_cast<std::size_t>(g * m +
                                                            qi);
            scaleF32(1.0f / scr.runSum[st],
                     seq.out + qi * width + h * hd, hd);
        }
    }
}

} // namespace

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
    const float scale =
        1.0f / std::sqrt(static_cast<float>(shape.headDim));
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

    parallelFor(
        0, grid,
        [&](std::size_t idx) {
            const std::size_t b =
                idx / static_cast<std::size_t>(shape.kvHeads);
            const std::int64_t kvh = static_cast<std::int64_t>(
                idx % static_cast<std::size_t>(shape.kvHeads));
            const AttnRaggedSeq& rs = seqs[b];
            fusedTask(shape, rs.m, rs.pos0, rs.view, kvh, scale);
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
                SliceCursor kc(seq.k, seq.chunks, kvh * hd, hd,
                               kbuf.data());
                SliceCursor vc(seq.v, seq.chunks, kvh * hd, hd,
                               vbuf.data());
                // The naive path's order: scalar dot per position...
                for (std::int64_t p = 0; p < span; ++p) {
                    const float* kh = kc.next();
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
                    const float* vh = vc.next();
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
