#ifndef CPULLM_MODEL_LAYERS_H
#define CPULLM_MODEL_LAYERS_H

/**
 * @file
 * Functional transformer building blocks. Activations flow in FP32;
 * linear projections execute on one of the emulated matrix engines
 * (AMX, AVX-512, or the FP32 reference), which is where BF16 rounding
 * enters — exactly as in a BF16 inference stack.
 */

#include <cstdint>
#include <vector>

#include "gemm/gemm.h"
#include "gemm/packed_weights.h"
#include "model/spec.h"
#include "tensor/tensor.h"

namespace cpullm {
namespace model {

/**
 * y = x * w (+ bias) over a weight prepared once with
 * gemm::PreparedB, so no call converts or tile-packs it. x:
 * [tokens, d_in], w: [d_in, d_out], bias: [d_out] or nullptr.
 * Returns FP32 [tokens, d_out].
 */
Tensor linear(gemm::Engine engine, const Tensor& x,
              const gemm::PreparedB& w, const Tensor* bias);

/** In-place LayerNorm over the last dimension. */
void layerNormInPlace(Tensor& x, const Tensor& gamma, const Tensor& beta,
                      float eps = 1e-5f);

/** In-place RMSNorm over the last dimension. */
void rmsNormInPlace(Tensor& x, const Tensor& gamma, float eps = 1e-5f);

/** In-place numerically-stable softmax over the last dimension. */
void softmaxRowsInPlace(Tensor& x);

/** In-place elementwise activation. */
void activationInPlace(Tensor& x, Activation act);

/**
 * Rotary position embedding applied in place to one token's projected
 * vector laid out as [heads, head_dim] (rotate-half convention).
 */
void applyRope(float* vec, std::int64_t heads, std::int64_t head_dim,
               std::int64_t position);

/**
 * Precomputed RoPE rotation factors. applyRope evaluates pow/cos/sin
 * for every (head, position, element) on every token of every layer;
 * the table computes each (position, element) pair once per model with
 * the same double-precision math, so apply() is bit-identical to
 * applyRope for covered positions and falls back to it beyond the
 * table.
 */
class RopeTable
{
  public:
    RopeTable() = default;

    /** Precompute factors for positions [0, max_pos). */
    RopeTable(std::int64_t head_dim, std::int64_t max_pos);

    bool valid() const { return head_dim_ > 0; }

    /** Rotate one token's [heads, head_dim] vector at @p position. */
    void apply(float* vec, std::int64_t heads,
               std::int64_t position) const;

  private:
    std::int64_t head_dim_ = 0;
    std::int64_t max_pos_ = 0;
    std::vector<float> cos_; ///< [max_pos, head_dim / 2]
    std::vector<float> sin_;
};

/** Index of the maximum element in row @p row of [rows, cols] logits. */
std::int64_t argmaxRow(const Tensor& logits, std::int64_t row);

} // namespace model
} // namespace cpullm

#endif // CPULLM_MODEL_LAYERS_H
