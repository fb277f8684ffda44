#include "engine/inference_engine.h"

#include <algorithm>
#include <chrono>

#include "obs/counters.h"
#include "trace/timeline.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_registry.h"
#include "util/units.h"

namespace cpullm {
namespace engine {

std::vector<std::vector<std::int64_t>>
syntheticPrompts(std::int64_t vocab, std::int64_t batch,
                 std::int64_t prompt_len, std::uint64_t seed)
{
    CPULLM_ASSERT(vocab > 0 && batch > 0 && prompt_len > 0,
                  "degenerate prompt request");
    Rng rng(seed);
    std::vector<std::vector<std::int64_t>> prompts(
        static_cast<std::size_t>(batch));
    for (auto& p : prompts) {
        p.resize(static_cast<std::size_t>(prompt_len));
        for (auto& tok : p) {
            tok = static_cast<std::int64_t>(
                rng.uniformInt(static_cast<std::uint64_t>(vocab)));
        }
    }
    return prompts;
}

CpuInferenceEngine::CpuInferenceEngine(const hw::PlatformConfig& platform,
                                       model::ModelSpec spec,
                                       ExecutionMode mode,
                                       std::uint64_t seed,
                                       gemm::WeightDtype wquant)
    : spec_(std::move(spec)), mode_(mode), perf_(platform),
      seed_(seed), wquant_(wquant)
{
    spec_.validate();
    if (mode_ == ExecutionMode::FunctionalAndTiming) {
        const std::uint64_t wbytes = spec_.weightBytes(DType::F32);
        if (wbytes > kMaxFunctionalWeightBytes) {
            CPULLM_FATAL(
                "functional execution of ", spec_.name, " needs ",
                formatBytes(wbytes),
                " of host memory; use ExecutionMode::TimingOnly");
        }
        functional_.emplace(spec_, gemmEngine(), seed_, wquant_);
    }
}

gemm::Engine
CpuInferenceEngine::gemmEngine() const
{
    return platform().cpu.compute.hasAmx() ? gemm::Engine::AmxBf16
                                           : gemm::Engine::Avx512Bf16;
}

InferenceResult
CpuInferenceEngine::infer(const perf::Workload& workload)
{
    InferenceResult result;
    result.timing = perf_.run(spec_, workload);
    result.attribution =
        obs::attributeCpuRun(perf_, spec_, workload);

    // Whole-run counters: prefill plus the decode-step sums.
    result.counters = result.timing.prefill.counters;
    result.counters += result.timing.decodeStep.counters;
    const double total_time = result.timing.e2eLatency;
    result.counters.coreUtilization = std::min(
        1.0,
        (result.timing.prefill.computeTime +
         result.timing.decodeStep.computeTime *
             std::max<std::int64_t>(0, workload.genLen - 1)) /
            std::max(1e-12, total_time));
    const double upi_bw =
        2.0 * platform().cpu.upi.effectiveBandwidth();
    result.counters.upiUtilization = std::min(
        1.0, result.counters.upiBytes / (total_time * upi_bw));

    mem::RegionSizes sizes;
    sizes.weights = spec_.weightBytes(workload.dtype);
    sizes.kvCache = spec_.kvCacheBytes(
        workload.finalSeqLen(), workload.batch, workload.kvDtype);
    sizes.activations = spec_.activationBytes(
        workload.batch * workload.promptLen, workload.finalSeqLen(),
        workload.dtype);
    result.regions = sizes;
    result.weightsHbmFraction =
        perf_.memorySystem().plan(sizes).weights.hbmFraction();

    stats_.scalar("engine.requests", "requests simulated") += 1.0;
    stats_.scalar("engine.tokens_generated",
                  "greedy tokens produced (simulated)") +=
        static_cast<double>(workload.generatedTokens());
    stats_.scalar("engine.sim_seconds",
                  "simulated wall time accumulated") +=
        result.timing.e2eLatency;
    stats_.distribution("engine.ttft", "time to first token, s")
        .sample(result.timing.ttft);
    if (workload.genLen > 1) {
        stats_.distribution("engine.tpot", "time per output token, s")
            .sample(result.timing.tpot);
    }

    if (tracer_)
        traceRequest(workload, result);

    if (functional_) {
        if (workload.finalSeqLen() > spec_.maxSeqLen) {
            CPULLM_FATAL("workload sequence ", workload.finalSeqLen(),
                         " exceeds ", spec_.name, " max ",
                         spec_.maxSeqLen);
        }
        auto prompts = syntheticPrompts(spec_.vocabSize, workload.batch,
                                        workload.promptLen, seed_ + 1);
        // A 16-token-block pool that holds every sequence's whole
        // run, so neither phase can be refused admission.
        constexpr std::int64_t kBlock = 16;
        const std::int64_t blocks_per_seq =
            (workload.finalSeqLen() + kBlock - 1) / kBlock;
        kv::PagedKvCache cache = functional_->makePagedKvCache(
            kBlock, workload.batch * blocks_per_seq);
        // Phase-split generation (the greedy loop of generate()) so
        // measured hardware counters attribute to prefill vs decode —
        // the split every paper figure is built on. The scopes are
        // inert unless a pmu::Session is active.
        std::vector<std::vector<std::int64_t>> out(prompts.size());
        std::vector<model::TransformerModel::RaggedSlot> slots;
        {
            obs::pmu::CounterScope scope("prefill");
            threadreg::ScopedFrame frame("prefill");
            slots = functional_->prefill(prompts, cache);
        }
        for (std::size_t b = 0; b < out.size(); ++b)
            out[b].push_back(slots[b].token);
        {
            obs::pmu::CounterScope scope("decode");
            threadreg::ScopedFrame frame("decode");
            for (std::int64_t step = 1; step < workload.genLen;
                 ++step) {
                const std::vector<std::int64_t> next =
                    functional_->decodeStepRagged(slots, cache);
                CPULLM_ASSERT(next.size() == out.size(),
                              "KV pool sized for the workload "
                              "refused it");
                for (std::size_t b = 0; b < out.size(); ++b) {
                    slots[b].token = next[b];
                    out[b].push_back(next[b]);
                }
            }
        }
        result.generatedTokens = std::move(out);
    }
    return result;
}

HostBatchResult
CpuInferenceEngine::runContinuousBatch(const perf::Workload& workload,
                                       const serve::BatcherConfig& cfg)
{
    CPULLM_ASSERT(functional_,
                  "continuous batching executes real kernels; "
                  "construct the engine in FunctionalAndTiming mode");
    CPULLM_ASSERT(workload.batch >= 1 && workload.promptLen >= 1 &&
                      workload.genLen >= 1,
                  "continuous batching needs batch/prompt/gen >= 1");
    if (workload.finalSeqLen() > spec_.maxSeqLen) {
        CPULLM_FATAL("workload sequence ", workload.finalSeqLen(),
                     " exceeds ", spec_.name, " max ",
                     spec_.maxSeqLen);
    }

    // Chatbot-style synthetic workload: a shared system-prompt
    // prefix (half the prompt) with unique per-request tails, so the
    // prefix cache has real blocks to reuse while every request
    // still decodes its own continuation.
    const std::int64_t shared = workload.promptLen / 2;
    const auto prefix = syntheticPrompts(spec_.vocabSize, 1, shared,
                                         seed_ + 2)[0];
    const auto tails =
        syntheticPrompts(spec_.vocabSize, workload.batch,
                         workload.promptLen - shared, seed_ + 3);

    serve::ContinuousBatcher batcher(*functional_, cfg);
    for (const auto& tail : tails) {
        serve::BatchRequest req;
        req.prompt = prefix;
        req.prompt.insert(req.prompt.end(), tail.begin(), tail.end());
        req.genLen = workload.genLen;
        batcher.submit(std::move(req));
    }

    HostBatchResult r;
    const auto t0 = std::chrono::steady_clock::now();
    {
        obs::pmu::CounterScope scope("continuous_batch");
        threadreg::ScopedFrame frame("continuous_batch");
        r.completions = batcher.run();
    }
    r.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    r.stats = batcher.stats();
    r.snapshot = serve::hostBatchSnapshot();
    serve::recordHostBatchStats(stats_);
    stats_.scalar("engine.requests", "requests simulated") +=
        static_cast<double>(workload.batch);
    stats_.scalar("engine.tokens_generated",
                  "greedy tokens produced (simulated)") +=
        static_cast<double>(r.stats.decodedTokens + r.stats.admitted);
    return r;
}

double
CpuInferenceEngine::tracePhaseSpans(obs::TrackId track,
                                    perf::Phase phase,
                                    const perf::Workload& workload,
                                    std::int64_t ctx_len, double t0,
                                    const std::string& label,
                                    const perf::PhaseBreakdown& breakdown)
{
    obs::Tracer& tr = *tracer_;
    const auto ops =
        perf::buildPhaseOps(spec_, phase, workload, ctx_len);
    const auto costs =
        perf_.costPhaseOps(spec_, phase, workload, ctx_len);
    CPULLM_ASSERT(ops.size() == costs.size(),
                  "op/cost arity mismatch");

    obs::Span phase_span = tr.begin(
        label, phase == perf::Phase::Prefill ? "prefill" : "decode",
        track, t0);
    phase_span.annotate("ctx_len", static_cast<double>(ctx_len));

    double t = t0;
    std::string cur_layer;
    obs::Span layer_span;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        // Group "layerN.*" operators under one layer span.
        std::string layer;
        if (ops[i].name.rfind("layer", 0) == 0) {
            const auto dot = ops[i].name.find('.');
            if (dot != std::string::npos)
                layer = ops[i].name.substr(0, dot);
        }
        if (layer != cur_layer) {
            layer_span.close(t);
            cur_layer = layer;
            if (!layer.empty())
                layer_span = tr.begin(layer, "layer", track, t);
        }
        obs::Span op = tr.begin(ops[i].name,
                                trace::opKindCategory(ops[i].kind),
                                track, t);
        op.annotate("bound_by",
                    costs[i].memoryBound ? "memory" : "compute");
        op.annotate("gflops", ops[i].flops / 1e9);
        op.annotate("mbytes",
                    static_cast<double>(ops[i].weightBytes +
                                        ops[i].kvBytes +
                                        ops[i].actBytes) /
                        1e6);
        t += costs[i].total;
        op.close(t);
    }
    layer_span.close(t);
    phase_span.close(t);

    const auto totals = perf::sumOps(ops);
    obs::emitPhaseCounters(
        tr, track.pid, t0, t, breakdown.counters, totals.flops,
        static_cast<double>(totals.weightBytes + totals.kvBytes),
        static_cast<double>(totals.actBytes));
    return t;
}

void
CpuInferenceEngine::traceRequest(const perf::Workload& workload,
                                 const InferenceResult& result)
{
    obs::Tracer& tr = *tracer_;
    const obs::TrackId track =
        tr.track("engine: " + platform().label(), "operators");

    const double t0 = tr.time();
    obs::Span request = tr.begin(
        strformat("request (batch %lld, %lld+%lld)",
                  static_cast<long long>(workload.batch),
                  static_cast<long long>(workload.promptLen),
                  static_cast<long long>(workload.genLen)),
        "request", track, t0);
    request.annotate("model", spec_.name);
    request.annotate("ttft_s", result.timing.ttft);
    request.annotate("tpot_s", result.timing.tpot);
    request.annotate("e2e_s", result.timing.e2eLatency);

    if (const auto* prefill = result.attribution.phase("prefill"))
        obs::emitAttributionShares(tr, track.pid, t0, *prefill);
    double t = tracePhaseSpans(track, perf::Phase::Prefill, workload,
                               workload.promptLen, t0, "prefill",
                               result.timing.prefill);
    if (const auto* decode = result.attribution.phase("decode"))
        obs::emitAttributionShares(tr, track.pid, t, *decode);
    for (std::int64_t s = 0; s < workload.genLen - 1; ++s) {
        t = tracePhaseSpans(
            track, perf::Phase::Decode, workload,
            workload.promptLen + s + 1, t,
            strformat("decode%lld", static_cast<long long>(s)),
            result.timing.decodeStep);
    }
    obs::closeCounters(tr, track.pid, t);
    obs::closeAttributionShares(tr, track.pid, t);
    request.close(t);
    tr.setTime(t);
}

} // namespace engine
} // namespace cpullm
