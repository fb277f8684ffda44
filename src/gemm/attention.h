#ifndef CPULLM_GEMM_ATTENTION_H
#define CPULLM_GEMM_ATTENTION_H

/**
 * @file
 * Fused decode/prefill attention over KV-cache span chunks.
 *
 * This is the functional hot path the paper's decode analysis points
 * at (Figs 6/7, and Figs 20-21, where cost grows with sequence
 * length): per generated token, attention streams every cached K and
 * V vector once. attnFusedRagged, the one fused entry point, runs a
 * single-pass tiled kernel over per-sequence slots, each at its own
 * (pos0, m), with the block-wise online softmax of FlashAttention-2:
 *
 *  - Each (sequence x kv-head) task walks its span in 16-key tiles
 *    that start at absolute positions 16t, whatever the KvSpan
 *    chunking. A tile's K and V rows are widened to FP32 once (BF16
 *    widened, FP32 copied) — K transposed to [headDim][16], V as
 *    [16][headDim] — and shared by all group * m query rows of the
 *    task, so the GQA group reads each kv-head's K/V stream once.
 *  - Per query row and tile: 16 scores from headDim broadcast-FMAs,
 *    keys past the row's own position masked to -inf, one scalar exp
 *    to rescale the running max/sum/accumulator, a 16-lane vector exp
 *    for the weights (masked lanes exactly 0), and the weighted sum
 *    of V over the row's visible keys only. No scores array is
 *    materialized.
 *  - Two bodies run those steps: native AVX-512F intrinsics, and a
 *    portable lane-parallel fallback compiled once per x86-64 ISA
 *    level (util/hot_clones.h). The choice is made once per process
 *    from CPUID, so every call on one machine runs one arithmetic
 *    sequence. Tests run both bodies through gemm/attention_detail.h.
 *  - The grid fans out on util's persistent thread pool with
 *    per-thread scratch owned by the kernel, so a decode step costs
 *    no heap allocation.
 *  - A slot with m > 1 is a prefill span: with queries at absolute
 *    positions [pos0, pos0 + m), query row i attends causally over
 *    span rows [0, pos0 + i]. Decode is m == 1.
 *
 * Bitwise contracts, within one body: each output is computed whole
 * by one task, so results do not depend on the thread count; a
 * slot's output is the same alone or in any batch, and under any
 * chunking of its span; and each prefill row equals an m == 1 decode
 * at its position, because a row's arithmetic depends only on its
 * query, its position and the keys up to it. Preemption and prefix
 * sharing rely on the last one.
 *
 * Numerics: attnRef reproduces the naive loop's arithmetic order
 * exactly (scalar dots in position order, two-pass softmax).
 * attnFusedRagged changes the reduction order (per-lane dot chains,
 * per-tile online rescaling) and computes the weights with a
 * polynomial exp; outputs match attnRef within kAttnTolerance for
 * O(1)-scaled inputs.
 *
 * AttnStats counts each fused call in exactly one bucket by its query
 * shape: decodeCalls when every slot has m == 1, prefillCalls when
 * every slot has m > 1, raggedCalls when a call mixes the two.
 */

#include <cstdint>

#include "kv/kv_span.h"

namespace cpullm {
namespace gemm {

/**
 * Documented output tolerance of attnFusedRagged vs attnRef (max abs
 * diff) for inputs with O(1) per-element magnitude, e.g.
 * LayerNorm/RMSNorm activations. Both kernels accumulate in FP32;
 * they differ in summation order and in the exp used for the
 * weights (a polynomial within a few ULPs of std::exp), so the gap
 * is a few ULPs amplified by exp().
 */
inline constexpr float kAttnTolerance = 1e-3f;

/** Attention head geometry shared by every sequence in a call. */
struct AttnShape
{
    std::int64_t heads = 0;   ///< query heads
    std::int64_t kvHeads = 0; ///< kv heads (== heads for MHA)
    std::int64_t headDim = 0; ///< elements per head
};

/**
 * One sequence's inputs: q/out are row-major [m, heads * headDim]
 * FP32; k/v are span chunk arrays (in position order, jointly
 * covering at least pos0 + m rows of kvHeads * headDim elements).
 * Contiguous caches pass one chunk; paged caches pass one per block.
 */
struct AttnSeqView
{
    const float* q = nullptr;
    float* out = nullptr;
    const kv::KvSpan* k = nullptr;
    const kv::KvSpan* v = nullptr;
    std::size_t chunks = 0;
};

/**
 * One sequence's slot in a fused call: its view plus a private query
 * span. Sequences in one call may sit at arbitrary, mutually
 * unrelated positions — the continuous batcher's decode step passes
 * one slot per in-flight sequence, a batched prefill one per prompt.
 */
struct AttnRaggedSeq
{
    AttnSeqView view;
    std::int64_t pos0 = 0; ///< cached rows before this query span
    std::int64_t m = 1;    ///< query rows for this sequence
};

/**
 * Monotonic process-wide kernel counters (exported as host.attn.* in
 * run reports). scratchAllocs only grows when a thread's scratch
 * buffers must grow — steady-state decode adds zero.
 */
struct AttnStats
{
    std::uint64_t decodeCalls = 0;  ///< calls whose slots all have m == 1
    std::uint64_t prefillCalls = 0; ///< calls whose slots all have m > 1
    std::uint64_t raggedCalls = 0;  ///< calls mixing m == 1 and m > 1
    std::uint64_t tasks = 0;        ///< (sequence x kv-head) grid tasks
    std::uint64_t spanRows = 0;     ///< K/V rows streamed (per task)
    std::uint64_t scratchAllocs = 0; ///< per-thread scratch growths
};

/** Snapshot of the process-wide counters (atomic reads). */
AttnStats attnStats();

/**
 * Fused attention for @p n_seqs slots: for each slot, each query row
 * i in [0, m) attends over cached rows [0, pos0 + i] with
 * softmax(q k / sqrt(headDim)) v per head. Parallel over
 * (sequence x kv-head); thread-count invariant, and each slot's
 * output is bitwise independent of the other slots in the call.
 */
void attnFusedRagged(const AttnShape& shape, const AttnRaggedSeq* seqs,
                     std::size_t n_seqs);

/**
 * Reference implementation over uniform views (every sequence at the
 * same @p pos0 and @p m): single-threaded scalar loops in the naive
 * loop's exact arithmetic order (scores in position order, two-pass
 * softmax, weighted V sum). Ground truth for tests and the host
 * benchmark.
 */
void attnRef(const AttnShape& shape, std::int64_t m, std::int64_t pos0,
             const AttnSeqView* seqs, std::size_t n_seqs);

} // namespace gemm
} // namespace cpullm

#endif // CPULLM_GEMM_ATTENTION_H
