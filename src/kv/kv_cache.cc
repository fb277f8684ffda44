#include "kv/kv_cache.h"

#include "util/logging.h"

namespace cpullm {
namespace kv {

KvCache::KvCache(std::int64_t layers, std::int64_t batch, std::int64_t d_kv,
                 std::int64_t max_seq, DType dtype)
    : layers_(layers), batch_(batch), d_kv_(d_kv), max_seq_(max_seq),
      dtype_(dtype)
{
    CPULLM_ASSERT(layers > 0 && batch > 0 && d_kv > 0 && max_seq > 0,
                  "invalid KvCache geometry");
    k_.reserve(static_cast<size_t>(layers));
    v_.reserve(static_cast<size_t>(layers));
    for (std::int64_t l = 0; l < layers; ++l) {
        k_.emplace_back(Shape{batch, max_seq, d_kv}, dtype);
        v_.emplace_back(Shape{batch, max_seq, d_kv}, dtype);
    }
}

std::int64_t
KvCache::offset(std::int64_t b, std::int64_t pos) const
{
    CPULLM_ASSERT(b >= 0 && b < batch_, "batch index out of range");
    CPULLM_ASSERT(pos >= 0 && pos < max_seq_,
                  "KV position ", pos, " out of capacity ", max_seq_);
    return (b * max_seq_ + pos) * d_kv_;
}

void
KvCache::write(std::int64_t layer, std::int64_t b, std::int64_t pos,
               const float* k, const float* v)
{
    CPULLM_ASSERT(layer >= 0 && layer < layers_, "layer out of range");
    const std::int64_t base = offset(b, pos);
    Tensor& kt = k_[static_cast<size_t>(layer)];
    Tensor& vt = v_[static_cast<size_t>(layer)];
    for (std::int64_t i = 0; i < d_kv_; ++i) {
        kt.setAt(base + i, k[i]);
        vt.setAt(base + i, v[i]);
    }
}

void
KvCache::setSeqLen(std::int64_t n)
{
    CPULLM_ASSERT(n >= 0 && n <= max_seq_, "bad seq len ", n);
    seq_len_ = n;
}

void
KvCache::readK(std::int64_t layer, std::int64_t b, std::int64_t pos,
               float* out) const
{
    CPULLM_ASSERT(layer >= 0 && layer < layers_, "layer out of range");
    const std::int64_t base = offset(b, pos);
    const Tensor& kt = k_[static_cast<size_t>(layer)];
    for (std::int64_t i = 0; i < d_kv_; ++i)
        out[i] = kt.at(base + i);
}

void
KvCache::readV(std::int64_t layer, std::int64_t b, std::int64_t pos,
               float* out) const
{
    CPULLM_ASSERT(layer >= 0 && layer < layers_, "layer out of range");
    const std::int64_t base = offset(b, pos);
    const Tensor& vt = v_[static_cast<size_t>(layer)];
    for (std::int64_t i = 0; i < d_kv_; ++i)
        out[i] = vt.at(base + i);
}

KvSpan
KvCache::span(const Tensor& t, std::int64_t b, std::int64_t len) const
{
    if (len < 0)
        len = seq_len_;
    CPULLM_ASSERT(len >= 0 && len <= max_seq_,
                  "span length ", len, " out of capacity ", max_seq_);
    const std::int64_t base = offset(b, 0);
    KvSpan s;
    s.data = static_cast<const std::uint8_t*>(t.raw()) +
             static_cast<std::uint64_t>(base) * dtypeSize(dtype_);
    s.dtype = dtype_;
    s.len = len;
    s.rowElems = d_kv_;
    s.stride = d_kv_;
    return s;
}

KvSpan
KvCache::kSpan(std::int64_t layer, std::int64_t b,
               std::int64_t len) const
{
    CPULLM_ASSERT(layer >= 0 && layer < layers_, "layer out of range");
    return span(k_[static_cast<size_t>(layer)], b, len);
}

KvSpan
KvCache::vSpan(std::int64_t layer, std::int64_t b,
               std::int64_t len) const
{
    CPULLM_ASSERT(layer >= 0 && layer < layers_, "layer out of range");
    return span(v_[static_cast<size_t>(layer)], b, len);
}

std::uint64_t
KvCache::capacityBytes() const
{
    return 2ULL * static_cast<std::uint64_t>(layers_) *
           static_cast<std::uint64_t>(batch_) *
           static_cast<std::uint64_t>(max_seq_) *
           static_cast<std::uint64_t>(d_kv_) * dtypeSize(dtype_);
}

std::uint64_t
KvCache::usedBytes() const
{
    return 2ULL * static_cast<std::uint64_t>(layers_) *
           static_cast<std::uint64_t>(batch_) *
           static_cast<std::uint64_t>(seq_len_) *
           static_cast<std::uint64_t>(d_kv_) * dtypeSize(dtype_);
}

} // namespace kv
} // namespace cpullm
