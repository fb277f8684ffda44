#ifndef CPULLM_MODEL_TRANSFORMER_H
#define CPULLM_MODEL_TRANSFORMER_H

/**
 * @file
 * The functional decoder-only transformer. Executes real forward
 * passes (through the emulated matrix engines) for specs small enough
 * to hold weights in memory; the timing-only path in src/engine uses
 * the same operator structure with shapes alone.
 *
 * There is one forward pass, forwardRagged, over a paged KV cache
 * (kv::PagedKvCache): any number of sequences, each with its own
 * query span at its own position. Prefill, decode, greedy generation
 * and the continuous batcher's fused step are all calls to it, so a
 * sequence's tokens are bitwise the same alone or batched.
 */

#include <cstdint>
#include <vector>

#include "gemm/gemm.h"
#include "gemm/packed_weights.h"
#include "kv/paged_kv_cache.h"
#include "model/layers.h"
#include "model/spec.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace cpullm {
namespace model {

/** Weights of one decoder block. */
struct LayerWeights
{
    Tensor attnNormW, attnNormB;
    Tensor wq, wk, wv, wo;
    Tensor bq, bk, bv, bo;
    Tensor ffnNormW, ffnNormB;
    Tensor wGate; ///< SwiGLU gate (empty when !gatedFfn)
    Tensor wUp, wDown;
    Tensor bUp, bDown;
};

/**
 * One decoder block's projection weights prepared for the model's
 * engine (converted/quantized/tile-packed once at construction, see
 * gemm::PreparedB) — what the forward pass actually multiplies by.
 */
struct PreparedLayerWeights
{
    gemm::PreparedB wq, wk, wv, wo;
    gemm::PreparedB wGate; ///< empty when !gatedFfn
    gemm::PreparedB wUp, wDown;
};

/**
 * A decoder-only transformer with synthetic (random) weights.
 *
 * Token values never affect the measured performance quantities, so
 * random weights preserve everything the paper characterizes while
 * keeping the substrate exercised end to end (DESIGN.md Section 1).
 */
class TransformerModel
{
  public:
    /**
     * Build a model with random weights.
     * @param spec   architecture (use tinyTestModel() for tests)
     * @param engine matrix engine for all linear projections
     * @param seed   RNG seed for weight init
     * @param wquant weight-only quantization for the projection and
     *               LM-head caches (Native keeps the engine packing)
     */
    TransformerModel(ModelSpec spec, gemm::Engine engine,
                     std::uint64_t seed = 7,
                     gemm::WeightDtype wquant =
                         gemm::WeightDtype::Native);

    const ModelSpec& spec() const { return spec_; }
    gemm::Engine engine() const { return engine_; }
    gemm::WeightDtype weightQuant() const { return wquant_; }

    /** Weight-quantization error of one decoder block's caches. */
    struct LayerQuantError
    {
        double maxAbsErr = 0.0; ///< worst |dequant - fp32| element
        double rmsErr = 0.0;    ///< RMS over all block weight elements
    };

    /**
     * Per-layer dequantization error across all prepared projection
     * weights of each block (all zeros when wquant is Native).
     */
    std::vector<LayerQuantError> layerQuantErrors() const;

    /** One in-flight sequence's slot in a decode step. */
    struct RaggedSlot
    {
        std::int64_t seq = 0;   ///< paged-cache sequence id
        std::int64_t token = 0; ///< last generated token to feed
    };

    /** One sequence's query span inside a forward pass. */
    struct RaggedSeqSpan
    {
        std::int64_t seq = 0;  ///< paged-cache sequence id
        std::int64_t pos0 = 0; ///< must equal cache.seqLen(seq)
        std::int64_t m = 1;    ///< query rows (prompt span, or 1)
    };

    /** Allocate a paged KV pool matched to this model's geometry. */
    kv::PagedKvCache makePagedKvCache(std::int64_t block_size,
                                      std::int64_t num_blocks) const;

    /**
     * The forward pass, over heterogeneous per-sequence query spans.
     * All spans' rows fuse into single m = sum(m_s) GEMM passes per
     * projection while attention runs per sequence at its own
     * (pos0, m) over paged span chunks. K/V slots are reserved up
     * front, written layer by layer, and committed at the end
     * (reserve/writeToken/commit protocol), so on success every
     * span's seqLen advances by its m.
     *
     * Every per-row operator (embedding, norms, RoPE, GEMM rows, the
     * fused attention sweep) sees the same inputs in the same order
     * whichever other spans share the pass, so logits are bitwise
     * identical to running each sequence alone, and a prefill span
     * matches stepping its rows one pass at a time.
     *
     * Panics, before touching the cache, if a span reaches past
     * spec().maxSeqLen (the position tables end there).
     *
     * @param tokens span-major ids: spans[s]'s rows are consecutive,
     *               tokens[base_s + i] at position spans[s].pos0 + i
     * @return [n_spans, vocab] FP32 logits of each span's last row,
     *         or an empty tensor if the pool cannot admit the step
     *         (no sequence length changes; the caller must evict or
     *         release sequences and retry)
     */
    Tensor forwardRagged(const std::vector<std::int64_t>& tokens,
                         const std::vector<RaggedSeqSpan>& spans,
                         kv::PagedKvCache& cache);

    /**
     * Prefill @p prompts, which may differ in length, in one forward
     * pass: each gets a new sequence in @p cache and one span. Panics
     * if the pool cannot hold the prompts.
     * @return one slot per prompt: its sequence id and first greedy
     *         token
     */
    std::vector<RaggedSlot>
    prefill(const std::vector<std::vector<std::int64_t>>& prompts,
            kv::PagedKvCache& cache);

    /**
     * Prefill one sequence's prompt into the paged cache; positions
     * continue from cache.seqLen(seq), so a sequence created with
     * addSequenceWithPrefix only runs its non-shared suffix.
     * @return the first generated token (greedy), or -1 if the pool
     *         cannot hold the prompt (cache state unchanged)
     */
    std::int64_t prefillPaged(const std::vector<std::int64_t>& prompt,
                              std::int64_t seq,
                              kv::PagedKvCache& cache);

    /**
     * One fused decode step over in-flight sequences at heterogeneous
     * positions: each slot feeds its last token at its own position.
     * @return next greedy token per slot, or an empty vector if the
     *         pool cannot admit the step (no state published; evict
     *         a sequence and retry)
     */
    std::vector<std::int64_t>
    decodeStepRagged(const std::vector<RaggedSlot>& slots,
                     kv::PagedKvCache& cache);

    /**
     * Full greedy generation: prefill, then @p gen_len - 1 fused
     * decode steps, over new sequences in @p cache; returns
     * [prompts][gen_len] generated tokens. Panics if the pool cannot
     * hold the whole run.
     */
    std::vector<std::vector<std::int64_t>>
    generate(const std::vector<std::vector<std::int64_t>>& prompts,
             std::int64_t gen_len, kv::PagedKvCache& cache);

  private:
    /** Embedding lookup with an explicit position per row. */
    Tensor embedRows(const std::vector<std::int64_t>& tokens,
                     const std::vector<std::int64_t>& positions) const;

    /**
     * Attention sublayer over @p x (span-major rows): projections,
     * RoPE, K/V writes into the reserved slots, fused attention per
     * span at its own (pos0, m), and the output projection.
     */
    Tensor attentionRagged(std::int64_t layer, const Tensor& x,
                           const std::vector<RaggedSeqSpan>& spans,
                           kv::PagedKvCache& cache);

    Tensor ffn(std::int64_t layer, const Tensor& x);

    ModelSpec spec_;
    gemm::Engine engine_;
    gemm::WeightDtype wquant_ = gemm::WeightDtype::Native;
    Tensor tokenEmbedding_; ///< [vocab, d]
    Tensor posEmbedding_;   ///< [max_seq, d] (learned only)
    Tensor finalNormW_, finalNormB_;
    Tensor lmHead_; ///< [d, vocab] (empty when tied)
    std::vector<LayerWeights> layers_;
    std::vector<PreparedLayerWeights> prepared_;
    /** The output head prepared for the engine: lmHead_, or for tied
     *  embeddings the [d, vocab] transpose of tokenEmbedding_, built
     *  once instead of on every forward call. */
    gemm::PreparedB preparedHead_;
    /** Precomputed RoPE factors (valid only for Rotary specs). */
    RopeTable rope_;
};

} // namespace model
} // namespace cpullm

#endif // CPULLM_MODEL_TRANSFORMER_H
