#ifndef CPULLM_KV_KV_CACHE_H
#define CPULLM_KV_KV_CACHE_H

/**
 * @file
 * A contiguous, lockstep KV store: per layer, one [batch, max_seq]
 * reservation in which every sequence holds the same number of
 * tokens. It backs the host attention micro-benchmark and the Fig 7
 * write benchmark; it is not the model's cache, which is the paged
 * pool in kv/paged_kv_cache.h. Its footprint (linear in sequence
 * length and batch size) is the memory-capacity argument of Fig 7.
 */

#include <cstdint>
#include <vector>

#include "kv/kv_span.h"
#include "tensor/tensor.h"

namespace cpullm {
namespace kv {

/**
 * Lockstep KV store: per layer, K and V tensors of shape [batch,
 * max_seq, numKvHeads * headDim]. Values are stored in the cache
 * dtype (BF16 in the paper's setup) and read back as FP32.
 */
class KvCache
{
  public:
    /**
     * Allocate a cache.
     * @param layers   decoder block count
     * @param batch    sequences in the batch
     * @param d_kv     numKvHeads * headDim
     * @param max_seq  capacity in tokens per sequence
     * @param dtype    storage dtype
     */
    KvCache(std::int64_t layers, std::int64_t batch, std::int64_t d_kv,
            std::int64_t max_seq, DType dtype);

    std::int64_t layers() const { return layers_; }
    std::int64_t batch() const { return batch_; }
    std::int64_t dKv() const { return d_kv_; }
    std::int64_t maxSeq() const { return max_seq_; }
    DType dtype() const { return dtype_; }

    /** Tokens currently cached, the same for every sequence. */
    std::int64_t seqLen() const { return seq_len_; }

    /**
     * Store the K and V vectors (d_kv floats each) of token @p pos of
     * sequence @p b at layer @p layer. @p pos must be < maxSeq.
     */
    void write(std::int64_t layer, std::int64_t b, std::int64_t pos,
               const float* k, const float* v);

    /** Mark @p n tokens as valid on every sequence. */
    void setSeqLen(std::int64_t n);

    /** Read one cached K vector into @p out (d_kv floats). */
    void readK(std::int64_t layer, std::int64_t b, std::int64_t pos,
               float* out) const;

    /** Read one cached V vector into @p out (d_kv floats). */
    void readV(std::int64_t layer, std::int64_t b, std::int64_t pos,
               float* out) const;

    /** @name Contiguous span views (the fused-attention fast path) */
    /// @{
    /**
     * View over the first @p len cached K rows of (layer, b) in the
     * storage dtype: row @p pos starts at data + pos * stride and the
     * rows match readK element for element. @p len = -1 means the
     * current seqLen(); pass an explicit length mid-step, before
     * setSeqLen() publishes the new count. The view aliases cache
     * storage (no copy) and stays valid until the cache is destroyed;
     * write() and reset() do not invalidate it.
     */
    KvSpan kSpan(std::int64_t layer, std::int64_t b,
                 std::int64_t len = -1) const;

    /** Same view over the V rows. */
    KvSpan vSpan(std::int64_t layer, std::int64_t b,
                 std::int64_t len = -1) const;
    /// @}

    /** Bytes held by the cache allocation (full capacity). */
    std::uint64_t capacityBytes() const;

    /** Bytes of currently valid entries (seqLen tokens). */
    std::uint64_t usedBytes() const;

    /** Drop all cached tokens (new request), keeping the allocation. */
    void reset() { seq_len_ = 0; }

  private:
    std::int64_t offset(std::int64_t b, std::int64_t pos) const;

    KvSpan span(const Tensor& t, std::int64_t b,
                std::int64_t len) const;

    std::int64_t layers_;
    std::int64_t batch_;
    std::int64_t d_kv_;
    std::int64_t max_seq_;
    DType dtype_;
    std::int64_t seq_len_ = 0; ///< valid tokens of every sequence
    std::vector<Tensor> k_; ///< one [batch, max_seq, d_kv] per layer
    std::vector<Tensor> v_;
};

} // namespace kv
} // namespace cpullm

#endif // CPULLM_KV_KV_CACHE_H
