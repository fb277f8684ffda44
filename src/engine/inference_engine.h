#ifndef CPULLM_ENGINE_INFERENCE_ENGINE_H
#define CPULLM_ENGINE_INFERENCE_ENGINE_H

/**
 * @file
 * The CPU inference engine: the user-facing entry point combining the
 * functional transformer (real math through the emulated AMX/AVX-512
 * kernels) with the analytical timing model. Paper-scale models run
 * timing-only; small models can additionally execute functionally so
 * the computation being timed is demonstrably the real computation.
 */

#include <optional>
#include <vector>

#include "hw/platform.h"
#include "mem/memory_system.h"
#include "model/spec.h"
#include "model/transformer.h"
#include "obs/attribution.h"
#include "obs/span.h"
#include "perf/cpu_model.h"
#include "perf/timing.h"
#include "perf/workload.h"
#include "serve/batcher.h"
#include "stats/stats.h"

namespace cpullm {
namespace engine {

/** How much of the stack actually executes. */
enum class ExecutionMode {
    TimingOnly,          ///< operator graph + timing model only
    FunctionalAndTiming, ///< also run real forward passes
};

/** Outcome of one simulated (and optionally executed) request. */
struct InferenceResult
{
    perf::InferenceTiming timing;
    /** Whole-run counters (prefill + all decode steps). */
    perf::Counters counters;
    /**
     * Bottleneck attribution of the run (run -> phase -> layer ->
     * op kind; see obs/attribution.h).
     */
    obs::Attribution attribution;
    /** Solved memory placement of the run. */
    mem::RegionSizes regions;
    double weightsHbmFraction = 0.0;

    /** Greedy tokens, present only in FunctionalAndTiming mode. */
    std::vector<std::vector<std::int64_t>> generatedTokens;
};

/**
 * Upper weight-size bound for functional execution; beyond this the
 * engine refuses (user error) since host memory would be exhausted.
 */
inline constexpr std::uint64_t kMaxFunctionalWeightBytes =
    2ULL * 1024 * 1024 * 1024;

/** Deterministic synthetic prompts (uniform token ids). */
std::vector<std::vector<std::int64_t>>
syntheticPrompts(std::int64_t vocab, std::int64_t batch,
                 std::int64_t prompt_len, std::uint64_t seed);

/**
 * Outcome of one continuous-batching host session: real kernels,
 * iteration-level scheduling (serve::ContinuousBatcher) instead of
 * the lockstep batch loop infer() runs.
 */
struct HostBatchResult
{
    /** Greedy completions, in submit order. */
    std::vector<std::vector<std::int64_t>> completions;
    serve::BatchStats stats;
    /** Paged-pool view at session end (watermarks, prefix reuse). */
    serve::HostBatchSnapshot snapshot;
    double wallSeconds = 0.0;

    /** Aggregate generated-token rate over the whole session. */
    double
    tokensPerSecond() const
    {
        // Every admission's prefill yields one output token (also
        // after a preemption re-admit: the requeued prompt resumes
        // exactly where the eviction cut).
        const double tokens = static_cast<double>(
            stats.decodedTokens + stats.admitted);
        return wallSeconds > 0.0 ? tokens / wallSeconds : 0.0;
    }
};

/** LLM inference on one CPU platform. */
class CpuInferenceEngine
{
  public:
    /** Functional-weight RNG seed unless the caller picks one. */
    static constexpr std::uint64_t kDefaultSeed = 7;

    /**
     * @param platform validated platform (see hw::platformByName)
     * @param spec     model architecture
     * @param mode     TimingOnly for paper-scale models
     * @param seed     RNG seed for functional-mode weights
     * @param wquant   weight-only quantization of the functional
     *                 model's weight caches (the CLI passes --wquant /
     *                 CPULLM_WQUANT here)
     */
    CpuInferenceEngine(const hw::PlatformConfig& platform,
                       model::ModelSpec spec,
                       ExecutionMode mode = ExecutionMode::TimingOnly,
                       std::uint64_t seed = kDefaultSeed,
                       gemm::WeightDtype wquant =
                           gemm::WeightDtype::Native);

    const hw::PlatformConfig& platform() const
    {
        return perf_.platform();
    }
    const model::ModelSpec& spec() const { return spec_; }
    const perf::CpuPerfModel& perfModel() const { return perf_; }
    ExecutionMode mode() const { return mode_; }

    /** The GEMM engine the platform maps to (AMX on SPR, AVX-512 on
     *  ICL). */
    gemm::Engine gemmEngine() const;

    /** Weight quantization applied to the functional weight caches. */
    gemm::WeightDtype weightQuant() const { return wquant_; }

    /** The functional model, when FunctionalAndTiming built one. */
    const model::TransformerModel* functionalModel() const
    {
        return functional_ ? &*functional_ : nullptr;
    }

    /** Simulate (and in functional mode also execute) one request. */
    InferenceResult infer(const perf::Workload& workload);

    /**
     * Execute @p workload.batch requests through the real
     * continuous-batching decode runtime (FunctionalAndTiming mode
     * only; asserts otherwise). The synthetic serving workload is
     * chatbot-style: every request shares a system-prompt prefix of
     * half the prompt length with a unique tail, so --prefix-cache
     * has real blocks to reuse. Publishes the HostBatchSnapshot the
     * host-series table (serve/host_stats.h) exports.
     */
    HostBatchResult runContinuousBatch(const perf::Workload& workload,
                                       const serve::BatcherConfig& cfg);

    /**
     * Lifetime statistics of this engine ("engine.requests",
     * "engine.tokens_generated", "engine.sim_seconds", TTFT/TPOT
     * distributions), dumpable via stats::Registry::dump.
     */
    const stats::Registry& statistics() const { return stats_; }
    stats::Registry& statistics() { return stats_; }

    /**
     * Attach a tracer (non-owning; nullptr detaches). Subsequent
     * infer() calls emit one request span with nested prefill /
     * per-decode-step phase spans, per-layer spans, per-operator
     * spans, and per-phase counter-track samples (bandwidth, GFLOP/s,
     * LLC MPKI, core/UPI utilization) on the tracer's simulated
     * timeline, starting at the tracer's current clock.
     */
    void setTracer(obs::Tracer* tracer) { tracer_ = tracer; }
    obs::Tracer* tracer() const { return tracer_; }

  private:
    /** Emit the span/counter timeline of one simulated request. */
    void traceRequest(const perf::Workload& workload,
                      const InferenceResult& result);

    /** Emit one phase's spans/counters; returns its end time. */
    double tracePhaseSpans(obs::TrackId track, perf::Phase phase,
                           const perf::Workload& workload,
                           std::int64_t ctx_len, double t0,
                           const std::string& label,
                           const perf::PhaseBreakdown& breakdown);

    model::ModelSpec spec_;
    ExecutionMode mode_;
    perf::CpuPerfModel perf_;
    std::optional<model::TransformerModel> functional_;
    std::uint64_t seed_;
    gemm::WeightDtype wquant_ = gemm::WeightDtype::Native;
    stats::Registry stats_;
    obs::Tracer* tracer_ = nullptr;
};

} // namespace engine
} // namespace cpullm

#endif // CPULLM_ENGINE_INFERENCE_ENGINE_H
