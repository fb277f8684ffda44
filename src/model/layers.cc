#include "model/layers.h"

#include <cmath>

#include "util/logging.h"

namespace cpullm {
namespace model {

namespace {

Tensor
addBias(Tensor y, const Tensor* bias)
{
    if (bias) {
        CPULLM_ASSERT(bias->size() == y.dim(1),
                      "bias size mismatches output width");
        float* yp = y.data<float>();
        const std::int64_t rows = y.dim(0);
        const std::int64_t cols = y.dim(1);
        for (std::int64_t r = 0; r < rows; ++r)
            for (std::int64_t c = 0; c < cols; ++c)
                yp[r * cols + c] += bias->at(c);
    }
    return y;
}

} // namespace

Tensor
linear(gemm::Engine engine, const Tensor& x, const gemm::PreparedB& w,
       const Tensor* bias)
{
    return addBias(gemm::matmul(engine, x, w), bias);
}

void
layerNormInPlace(Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps)
{
    const std::int64_t cols = x.dim(x.rank() - 1);
    const std::int64_t rows = x.size() / cols;
    CPULLM_ASSERT(gamma.size() == cols && beta.size() == cols,
                  "norm parameter width mismatch");
    float* p = x.data<float>();
    for (std::int64_t r = 0; r < rows; ++r) {
        float* row = p + r * cols;
        float mean = 0.0f;
        for (std::int64_t c = 0; c < cols; ++c)
            mean += row[c];
        mean /= static_cast<float>(cols);
        float var = 0.0f;
        for (std::int64_t c = 0; c < cols; ++c) {
            const float d = row[c] - mean;
            var += d * d;
        }
        var /= static_cast<float>(cols);
        const float inv = 1.0f / std::sqrt(var + eps);
        for (std::int64_t c = 0; c < cols; ++c) {
            row[c] = (row[c] - mean) * inv * gamma.at(c) + beta.at(c);
        }
    }
}

void
rmsNormInPlace(Tensor& x, const Tensor& gamma, float eps)
{
    const std::int64_t cols = x.dim(x.rank() - 1);
    const std::int64_t rows = x.size() / cols;
    CPULLM_ASSERT(gamma.size() == cols, "norm parameter width mismatch");
    float* p = x.data<float>();
    for (std::int64_t r = 0; r < rows; ++r) {
        float* row = p + r * cols;
        float ms = 0.0f;
        for (std::int64_t c = 0; c < cols; ++c)
            ms += row[c] * row[c];
        ms /= static_cast<float>(cols);
        const float inv = 1.0f / std::sqrt(ms + eps);
        for (std::int64_t c = 0; c < cols; ++c)
            row[c] = row[c] * inv * gamma.at(c);
    }
}

void
softmaxRowsInPlace(Tensor& x)
{
    const std::int64_t cols = x.dim(x.rank() - 1);
    const std::int64_t rows = x.size() / cols;
    float* p = x.data<float>();
    for (std::int64_t r = 0; r < rows; ++r) {
        float* row = p + r * cols;
        float mx = row[0];
        for (std::int64_t c = 1; c < cols; ++c)
            mx = std::max(mx, row[c]);
        float sum = 0.0f;
        for (std::int64_t c = 0; c < cols; ++c) {
            row[c] = std::exp(row[c] - mx);
            sum += row[c];
        }
        const float inv = 1.0f / sum;
        for (std::int64_t c = 0; c < cols; ++c)
            row[c] *= inv;
    }
}

void
activationInPlace(Tensor& x, Activation act)
{
    float* p = x.data<float>();
    const std::int64_t n = x.size();
    switch (act) {
      case Activation::ReLU:
        for (std::int64_t i = 0; i < n; ++i)
            p[i] = p[i] > 0.0f ? p[i] : 0.0f;
        return;
      case Activation::GELU:
        for (std::int64_t i = 0; i < n; ++i) {
            const float v = p[i];
            p[i] = 0.5f * v *
                   (1.0f + std::tanh(0.7978845608f *
                                     (v + 0.044715f * v * v * v)));
        }
        return;
      case Activation::SiLU:
        for (std::int64_t i = 0; i < n; ++i) {
            const float v = p[i];
            p[i] = v / (1.0f + std::exp(-v));
        }
        return;
    }
    CPULLM_PANIC("unhandled activation");
}

void
applyRope(float* vec, std::int64_t heads, std::int64_t head_dim,
          std::int64_t position)
{
    CPULLM_ASSERT(head_dim % 2 == 0, "RoPE needs even head_dim");
    const std::int64_t half = head_dim / 2;
    for (std::int64_t h = 0; h < heads; ++h) {
        float* v = vec + h * head_dim;
        for (std::int64_t i = 0; i < half; ++i) {
            const double freq = std::pow(
                10000.0, -2.0 * static_cast<double>(i) /
                             static_cast<double>(head_dim));
            const double angle = static_cast<double>(position) * freq;
            const float c = static_cast<float>(std::cos(angle));
            const float s = static_cast<float>(std::sin(angle));
            const float x0 = v[i];
            const float x1 = v[i + half];
            v[i] = x0 * c - x1 * s;
            v[i + half] = x0 * s + x1 * c;
        }
    }
}

RopeTable::RopeTable(std::int64_t head_dim, std::int64_t max_pos)
    : head_dim_(head_dim), max_pos_(max_pos)
{
    CPULLM_ASSERT(head_dim > 0 && head_dim % 2 == 0,
                  "RoPE needs even head_dim");
    CPULLM_ASSERT(max_pos > 0, "RoPE table needs max_pos > 0");
    const std::int64_t half = head_dim / 2;
    cos_.resize(static_cast<std::size_t>(max_pos * half));
    sin_.resize(static_cast<std::size_t>(max_pos * half));
    // Same double-precision expression as applyRope, evaluated once
    // per (position, element) instead of per (head, token, layer).
    for (std::int64_t pos = 0; pos < max_pos; ++pos) {
        for (std::int64_t i = 0; i < half; ++i) {
            const double freq = std::pow(
                10000.0, -2.0 * static_cast<double>(i) /
                             static_cast<double>(head_dim));
            const double angle = static_cast<double>(pos) * freq;
            const std::size_t at =
                static_cast<std::size_t>(pos * half + i);
            cos_[at] = static_cast<float>(std::cos(angle));
            sin_[at] = static_cast<float>(std::sin(angle));
        }
    }
}

void
RopeTable::apply(float* vec, std::int64_t heads,
                 std::int64_t position) const
{
    CPULLM_ASSERT(valid(), "apply on a default RopeTable");
    if (position >= max_pos_) {
        applyRope(vec, heads, head_dim_, position);
        return;
    }
    const std::int64_t half = head_dim_ / 2;
    const float* c = cos_.data() + position * half;
    const float* s = sin_.data() + position * half;
    for (std::int64_t h = 0; h < heads; ++h) {
        float* v = vec + h * head_dim_;
        for (std::int64_t i = 0; i < half; ++i) {
            const float x0 = v[i];
            const float x1 = v[i + half];
            v[i] = x0 * c[i] - x1 * s[i];
            v[i + half] = x0 * s[i] + x1 * c[i];
        }
    }
}

std::int64_t
argmaxRow(const Tensor& logits, std::int64_t row)
{
    const std::int64_t cols = logits.dim(logits.rank() - 1);
    std::int64_t best = 0;
    float best_v = logits.at(row * cols);
    for (std::int64_t c = 1; c < cols; ++c) {
        const float v = logits.at(row * cols + c);
        if (v > best_v) {
            best_v = v;
            best = c;
        }
    }
    return best;
}

} // namespace model
} // namespace cpullm
