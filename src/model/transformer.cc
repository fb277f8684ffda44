#include "model/transformer.h"

#include <algorithm>
#include <cmath>

#include "gemm/attention.h"
#include "model/layers.h"
#include "util/logging.h"
#include "util/thread_registry.h"

namespace cpullm {
namespace model {

namespace {

/** Scaled init keeps activations O(1) through deep stacks. */
Tensor
initWeight(Shape shape, Rng& rng, float fan_in)
{
    const float stddev = 1.0f / std::sqrt(fan_in);
    return Tensor::randomNormal(std::move(shape), DType::F32, rng,
                                stddev);
}

} // namespace

TransformerModel::TransformerModel(ModelSpec spec, gemm::Engine engine,
                                   std::uint64_t seed,
                                   gemm::WeightDtype wquant)
    : spec_(std::move(spec)), engine_(engine), wquant_(wquant)
{
    spec_.validate();
    Rng rng(seed);
    const std::int64_t d = spec_.dModel;
    const std::int64_t dkv = spec_.dKv();
    const std::int64_t ff = spec_.dFf;

    tokenEmbedding_ = initWeight({spec_.vocabSize, d}, rng,
                                 static_cast<float>(d));
    if (spec_.posEmbedding == PosEmbedding::Learned) {
        posEmbedding_ = initWeight({spec_.maxSeqLen, d}, rng,
                                   static_cast<float>(d));
    }
    finalNormW_ = Tensor({d}, DType::F32);
    finalNormW_.fill(1.0f);
    if (spec_.norm == NormKind::LayerNorm)
        finalNormB_ = Tensor({d}, DType::F32);
    if (!spec_.tiedEmbedding) {
        lmHead_ = initWeight({d, spec_.vocabSize}, rng,
                             static_cast<float>(d));
    }

    layers_.reserve(static_cast<size_t>(spec_.numLayers));
    for (std::int64_t l = 0; l < spec_.numLayers; ++l) {
        LayerWeights w;
        w.attnNormW = Tensor({d}, DType::F32);
        w.attnNormW.fill(1.0f);
        w.ffnNormW = Tensor({d}, DType::F32);
        w.ffnNormW.fill(1.0f);
        if (spec_.norm == NormKind::LayerNorm) {
            w.attnNormB = Tensor({d}, DType::F32);
            w.ffnNormB = Tensor({d}, DType::F32);
        }
        w.wq = initWeight({d, d}, rng, static_cast<float>(d));
        w.wk = initWeight({d, dkv}, rng, static_cast<float>(d));
        w.wv = initWeight({d, dkv}, rng, static_cast<float>(d));
        w.wo = initWeight({d, d}, rng, static_cast<float>(d));
        if (spec_.gatedFfn)
            w.wGate = initWeight({d, ff}, rng, static_cast<float>(d));
        w.wUp = initWeight({d, ff}, rng, static_cast<float>(d));
        w.wDown = initWeight({ff, d}, rng, static_cast<float>(ff));
        if (spec_.linearBias) {
            w.bq = Tensor({d}, DType::F32);
            w.bk = Tensor({dkv}, DType::F32);
            w.bv = Tensor({dkv}, DType::F32);
            w.bo = Tensor({d}, DType::F32);
            w.bUp = Tensor({ff}, DType::F32);
            w.bDown = Tensor({d}, DType::F32);
        }
        layers_.push_back(std::move(w));
    }

    // Prepare every projection weight for the engine once: dtype
    // conversion, quantization (engine-native INT8 or the grouped
    // INT8/INT4 weight-only formats), and AMX tile packing move from
    // per-matmul to construction time.
    prepared_.reserve(static_cast<size_t>(spec_.numLayers));
    for (const LayerWeights& w : layers_) {
        PreparedLayerWeights p;
        p.wq = gemm::PreparedB(engine_, w.wq, wquant_);
        p.wk = gemm::PreparedB(engine_, w.wk, wquant_);
        p.wv = gemm::PreparedB(engine_, w.wv, wquant_);
        p.wo = gemm::PreparedB(engine_, w.wo, wquant_);
        if (spec_.gatedFfn)
            p.wGate = gemm::PreparedB(engine_, w.wGate, wquant_);
        p.wUp = gemm::PreparedB(engine_, w.wUp, wquant_);
        p.wDown = gemm::PreparedB(engine_, w.wDown, wquant_);
        prepared_.push_back(std::move(p));
    }
    if (spec_.posEmbedding == PosEmbedding::Rotary)
        rope_ = RopeTable(spec_.headDim(), spec_.maxSeqLen);
    if (spec_.tiedEmbedding) {
        // logits = x * E^T; prepare the explicit [d, vocab] transpose
        // once instead of rebuilding it for every forward call.
        Tensor et({d, spec_.vocabSize}, DType::F32);
        float* ep = et.data<float>();
        const float* emb = tokenEmbedding_.data<float>();
        for (std::int64_t vtok = 0; vtok < spec_.vocabSize; ++vtok)
            for (std::int64_t c = 0; c < d; ++c)
                ep[c * spec_.vocabSize + vtok] = emb[vtok * d + c];
        preparedHead_ = gemm::PreparedB(engine_, et, wquant_);
    } else {
        preparedHead_ = gemm::PreparedB(engine_, lmHead_, wquant_);
    }
}

std::vector<TransformerModel::LayerQuantError>
TransformerModel::layerQuantErrors() const
{
    std::vector<LayerQuantError> errs;
    errs.reserve(prepared_.size());
    for (const PreparedLayerWeights& p : prepared_) {
        LayerQuantError e;
        double sum_sq = 0.0;
        std::int64_t elems = 0;
        const gemm::PreparedB* ws[] = {&p.wq, &p.wk,   &p.wv,  &p.wo,
                                       &p.wGate, &p.wUp, &p.wDown};
        for (const gemm::PreparedB* w : ws) {
            if (w->empty())
                continue;
            e.maxAbsErr = std::max(e.maxAbsErr, w->quantMaxAbsErr());
            sum_sq += w->quantErrSumSq();
            elems += w->quantErrElems();
        }
        if (elems > 0)
            e.rmsErr = std::sqrt(sum_sq / static_cast<double>(elems));
        errs.push_back(e);
    }
    return errs;
}

kv::PagedKvCache
TransformerModel::makePagedKvCache(std::int64_t block_size,
                                   std::int64_t num_blocks) const
{
    return kv::PagedKvCache(spec_.numLayers, spec_.dKv(), block_size,
                            num_blocks, DType::BF16);
}

Tensor
TransformerModel::embedRows(
    const std::vector<std::int64_t>& tokens,
    const std::vector<std::int64_t>& positions) const
{
    CPULLM_ASSERT(tokens.size() == positions.size(),
                  "token/position row count mismatch");
    const std::int64_t d = spec_.dModel;
    const auto rows = static_cast<std::int64_t>(tokens.size());
    Tensor x({rows, d}, DType::F32);
    float* xp = x.data<float>();
    const float* emb = tokenEmbedding_.data<float>();
    for (std::int64_t r = 0; r < rows; ++r) {
        const std::int64_t tok = tokens[static_cast<size_t>(r)];
        CPULLM_ASSERT(tok >= 0 && tok < spec_.vocabSize,
                      "token id ", tok, " out of vocab");
        for (std::int64_t c = 0; c < d; ++c)
            xp[r * d + c] = emb[tok * d + c];
        if (spec_.posEmbedding == PosEmbedding::Learned) {
            const float* pos = posEmbedding_.data<float>() +
                               positions[static_cast<size_t>(r)] * d;
            for (std::int64_t c = 0; c < d; ++c)
                xp[r * d + c] += pos[c];
        }
    }
    return x;
}

Tensor
TransformerModel::attentionRagged(
    std::int64_t layer, const Tensor& x,
    const std::vector<RaggedSeqSpan>& spans, kv::PagedKvCache& cache)
{
    const LayerWeights& w = layers_[static_cast<size_t>(layer)];
    const PreparedLayerWeights& pw =
        prepared_[static_cast<size_t>(layer)];
    const std::int64_t rows = x.dim(0);
    const std::int64_t d = spec_.dModel;
    const std::int64_t heads = spec_.numHeads;
    const std::int64_t hd = spec_.headDim();
    const std::int64_t kv_heads = spec_.numKvHeads;

    // All spans' rows fuse into one m = rows GEMM per projection —
    // the continuous-batching weight-reuse win.
    Tensor q = [&] {
        threadreg::ScopedFrame frame("q_proj");
        return linear(engine_, x, pw.wq,
                      spec_.linearBias ? &w.bq : nullptr);
    }();
    Tensor k = [&] {
        threadreg::ScopedFrame frame("k_proj");
        return linear(engine_, x, pw.wk,
                      spec_.linearBias ? &w.bk : nullptr);
    }();
    Tensor v = [&] {
        threadreg::ScopedFrame frame("v_proj");
        return linear(engine_, x, pw.wv,
                      spec_.linearBias ? &w.bv : nullptr);
    }();

    Tensor ctx({rows, d}, DType::F32);
    {
        threadreg::ScopedFrame frame("attention");
        float* qp = q.data<float>();
        float* kp = k.data<float>();
        const float* vp = v.data<float>();

        // RoPE at each row's own absolute position, then write into
        // the slots reserved by forwardRagged (committed there after
        // all layers).
        std::int64_t base = 0;
        for (const RaggedSeqSpan& sp : spans) {
            for (std::int64_t i = 0; i < sp.m; ++i) {
                const std::int64_t r = base + i;
                if (spec_.posEmbedding == PosEmbedding::Rotary) {
                    rope_.apply(qp + r * d, heads, sp.pos0 + i);
                    rope_.apply(kp + r * spec_.dKv(), kv_heads,
                                sp.pos0 + i);
                }
                cache.writeToken(sp.seq, layer, sp.pos0 + i,
                                 kp + r * spec_.dKv(),
                                 vp + r * spec_.dKv());
            }
            base += sp.m;
        }

        // Per-sequence paged span chunks covering the reserved rows
        // (explicit length: commit() hasn't published them yet).
        float* cp = ctx.data<float>();
        const std::size_t n = spans.size();
        std::vector<std::vector<kv::KvSpan>> kchunks(n), vchunks(n);
        std::vector<gemm::AttnRaggedSeq> slots(n);
        base = 0;
        for (std::size_t s = 0; s < n; ++s) {
            const RaggedSeqSpan& sp = spans[s];
            kchunks[s] = cache.kSpans(sp.seq, layer, sp.pos0 + sp.m);
            vchunks[s] = cache.vSpans(sp.seq, layer, sp.pos0 + sp.m);
            slots[s].view.q = qp + base * d;
            slots[s].view.out = cp + base * d;
            slots[s].view.k = kchunks[s].data();
            slots[s].view.v = vchunks[s].data();
            slots[s].view.chunks = kchunks[s].size();
            slots[s].pos0 = sp.pos0;
            slots[s].m = sp.m;
            base += sp.m;
        }
        gemm::attnFusedRagged({heads, kv_heads, hd}, slots.data(), n);
    }

    threadreg::ScopedFrame frame("out_proj");
    return linear(engine_, ctx, pw.wo,
                  spec_.linearBias ? &w.bo : nullptr);
}

Tensor
TransformerModel::ffn(std::int64_t layer, const Tensor& x)
{
    const LayerWeights& w = layers_[static_cast<size_t>(layer)];
    const PreparedLayerWeights& pw =
        prepared_[static_cast<size_t>(layer)];
    Tensor up = [&] {
        threadreg::ScopedFrame frame("ffn_up");
        return linear(engine_, x, pw.wUp,
                      spec_.linearBias ? &w.bUp : nullptr);
    }();
    if (spec_.gatedFfn) {
        Tensor gate = [&] {
            threadreg::ScopedFrame frame("ffn_gate");
            return linear(engine_, x, pw.wGate, nullptr);
        }();
        threadreg::ScopedFrame frame("ffn_act");
        activationInPlace(gate, spec_.activation);
        float* up_p = up.data<float>();
        const float* g_p = gate.data<float>();
        for (std::int64_t i = 0; i < up.size(); ++i)
            up_p[i] *= g_p[i];
    } else {
        threadreg::ScopedFrame frame("ffn_act");
        activationInPlace(up, spec_.activation);
    }
    threadreg::ScopedFrame frame("ffn_down");
    return linear(engine_, up, pw.wDown,
                  spec_.linearBias ? &w.bDown : nullptr);
}

Tensor
TransformerModel::forwardRagged(
    const std::vector<std::int64_t>& tokens,
    const std::vector<RaggedSeqSpan>& spans, kv::PagedKvCache& cache)
{
    CPULLM_ASSERT(!spans.empty(), "empty ragged span list");
    std::int64_t rows = 0;
    for (const RaggedSeqSpan& sp : spans) {
        CPULLM_ASSERT(sp.m >= 1, "ragged span needs m >= 1");
        CPULLM_ASSERT(sp.pos0 == cache.seqLen(sp.seq),
                      "span pos0 ", sp.pos0,
                      " is not the sequence length ",
                      cache.seqLen(sp.seq));
        CPULLM_ASSERT(sp.pos0 + sp.m <= spec_.maxSeqLen, "span [",
                      sp.pos0, ", ", sp.pos0 + sp.m,
                      ") reaches past max sequence length ",
                      spec_.maxSeqLen);
        rows += sp.m;
    }
    CPULLM_ASSERT(static_cast<std::int64_t>(tokens.size()) == rows,
                  "token count mismatches the span rows");

    // Reserve every span's slots before touching activations.
    // Abandoned reservations (a later span failing admission) are
    // harmless: the blocks stay with their sequence and the next
    // reserve() call reuses them without allocating.
    for (const RaggedSeqSpan& sp : spans) {
        if (cache.reserve(sp.seq, sp.m) < 0)
            return Tensor();
    }

    std::vector<std::int64_t> positions;
    positions.reserve(static_cast<size_t>(rows));
    for (const RaggedSeqSpan& sp : spans)
        for (std::int64_t i = 0; i < sp.m; ++i)
            positions.push_back(sp.pos0 + i);
    Tensor x = [&] {
        threadreg::ScopedFrame frame("embedding");
        return embedRows(tokens, positions);
    }();

    for (std::int64_t l = 0; l < spec_.numLayers; ++l) {
        const LayerWeights& w = layers_[static_cast<size_t>(l)];
        Tensor normed = [&] {
            threadreg::ScopedFrame frame("attn_norm");
            Tensor n = x.cast(DType::F32);
            if (spec_.norm == NormKind::LayerNorm)
                layerNormInPlace(n, w.attnNormW, w.attnNormB);
            else
                rmsNormInPlace(n, w.attnNormW);
            return n;
        }();
        Tensor attn = attentionRagged(l, normed, spans, cache);
        float* xp = x.data<float>();
        const float* ap = attn.data<float>();
        for (std::int64_t i = 0; i < x.size(); ++i)
            xp[i] += ap[i];

        Tensor normed2 = [&] {
            threadreg::ScopedFrame frame("ffn_norm");
            Tensor n = x.cast(DType::F32);
            if (spec_.norm == NormKind::LayerNorm)
                layerNormInPlace(n, w.ffnNormW, w.ffnNormB);
            else
                rmsNormInPlace(n, w.ffnNormW);
            return n;
        }();
        Tensor f = ffn(l, normed2);
        const float* fp = f.data<float>();
        for (std::int64_t i = 0; i < x.size(); ++i)
            xp[i] += fp[i];
    }

    for (const RaggedSeqSpan& sp : spans)
        cache.commit(sp.seq, sp.m);

    // Each span's last row feeds the head; the rest are cache-only.
    const std::int64_t n_spans =
        static_cast<std::int64_t>(spans.size());
    Tensor last({n_spans, spec_.dModel}, DType::F32);
    float* lp = last.data<float>();
    const float* xp = x.data<float>();
    std::int64_t base = 0;
    for (std::int64_t s = 0; s < n_spans; ++s) {
        const RaggedSeqSpan& sp = spans[static_cast<size_t>(s)];
        const float* row = xp + (base + sp.m - 1) * spec_.dModel;
        for (std::int64_t c = 0; c < spec_.dModel; ++c)
            lp[s * spec_.dModel + c] = row[c];
        base += sp.m;
    }
    {
        threadreg::ScopedFrame frame("final_norm");
        if (spec_.norm == NormKind::LayerNorm)
            layerNormInPlace(last, finalNormW_, finalNormB_);
        else
            rmsNormInPlace(last, finalNormW_);
    }

    threadreg::ScopedFrame frame("lm_head");
    return linear(engine_, last, preparedHead_, nullptr);
}

std::vector<TransformerModel::RaggedSlot>
TransformerModel::prefill(
    const std::vector<std::vector<std::int64_t>>& prompts,
    kv::PagedKvCache& cache)
{
    CPULLM_ASSERT(!prompts.empty(), "empty prompt batch");
    std::vector<std::int64_t> tokens;
    std::vector<RaggedSeqSpan> spans;
    spans.reserve(prompts.size());
    for (const auto& p : prompts) {
        CPULLM_ASSERT(!p.empty(), "empty prompt");
        tokens.insert(tokens.end(), p.begin(), p.end());
        spans.push_back({cache.addSequence(), 0,
                         static_cast<std::int64_t>(p.size())});
    }
    const Tensor logits = forwardRagged(tokens, spans, cache);
    CPULLM_ASSERT(!logits.empty(), "paged pool cannot hold the prompts");
    std::vector<RaggedSlot> slots;
    slots.reserve(spans.size());
    for (std::size_t s = 0; s < spans.size(); ++s)
        slots.push_back({spans[s].seq,
                         argmaxRow(logits, static_cast<std::int64_t>(s))});
    return slots;
}

std::int64_t
TransformerModel::prefillPaged(const std::vector<std::int64_t>& prompt,
                               std::int64_t seq,
                               kv::PagedKvCache& cache)
{
    CPULLM_ASSERT(!prompt.empty(), "empty prompt");
    RaggedSeqSpan sp;
    sp.seq = seq;
    sp.pos0 = cache.seqLen(seq);
    sp.m = static_cast<std::int64_t>(prompt.size());
    Tensor logits = forwardRagged(prompt, {sp}, cache);
    if (logits.empty())
        return -1;
    return argmaxRow(logits, 0);
}

std::vector<std::int64_t>
TransformerModel::decodeStepRagged(const std::vector<RaggedSlot>& slots,
                                   kv::PagedKvCache& cache)
{
    CPULLM_ASSERT(!slots.empty(), "empty ragged decode batch");
    std::vector<std::int64_t> tokens;
    std::vector<RaggedSeqSpan> spans;
    tokens.reserve(slots.size());
    spans.reserve(slots.size());
    for (const RaggedSlot& s : slots) {
        tokens.push_back(s.token);
        RaggedSeqSpan sp;
        sp.seq = s.seq;
        sp.pos0 = cache.seqLen(s.seq);
        sp.m = 1;
        spans.push_back(sp);
    }
    Tensor logits = forwardRagged(tokens, spans, cache);
    if (logits.empty())
        return {};
    std::vector<std::int64_t> next(slots.size());
    for (std::size_t s = 0; s < slots.size(); ++s)
        next[s] = argmaxRow(logits, static_cast<std::int64_t>(s));
    return next;
}

std::vector<std::vector<std::int64_t>>
TransformerModel::generate(
    const std::vector<std::vector<std::int64_t>>& prompts,
    std::int64_t gen_len, kv::PagedKvCache& cache)
{
    CPULLM_ASSERT(gen_len >= 1, "gen_len must be >= 1");
    std::vector<RaggedSlot> slots = prefill(prompts, cache);
    std::vector<std::vector<std::int64_t>> out(slots.size());
    for (std::size_t b = 0; b < slots.size(); ++b)
        out[b].push_back(slots[b].token);
    for (std::int64_t step = 1; step < gen_len; ++step) {
        const std::vector<std::int64_t> next =
            decodeStepRagged(slots, cache);
        CPULLM_ASSERT(!next.empty(),
                      "paged pool cannot hold the generated tokens");
        for (std::size_t b = 0; b < slots.size(); ++b) {
            slots[b].token = next[b];
            out[b].push_back(next[b]);
        }
    }
    return out;
}

} // namespace model
} // namespace cpullm
