#ifndef CPULLM_SERVE_SERVING_SIM_H
#define CPULLM_SERVE_SERVING_SIM_H

/**
 * @file
 * Event-driven inference *serving* simulator. The paper's metrics
 * discussion (Section II-C) distinguishes chatbot (TTFT), translation
 * (TPOT), and batch-analytics (throughput) use cases; this module
 * turns the single-request timing models into a served-system view:
 * Poisson arrivals, a bounded batching window, static batches, and
 * tail-latency statistics.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gpu/gpu_model.h"
#include "hw/platform.h"
#include "model/spec.h"
#include "obs/run_report.h"
#include "obs/span.h"
#include "perf/cpu_model.h"
#include "perf/workload.h"
#include "stats/stats.h"

namespace cpullm {
namespace serve {

class ServingTelemetry; // serve/telemetry.h

/** Latency of one batched execution. */
struct BatchLatency
{
    double ttft = 0.0; ///< prefill completion for the whole batch
    double e2e = 0.0;  ///< full generation for the whole batch
};

/** Device latency oracle: batch size -> batch latency. */
using LatencyFn = std::function<BatchLatency(std::int64_t batch)>;

/** Memoizing oracle over the CPU timing model. */
LatencyFn cpuLatencyFn(const hw::PlatformConfig& platform,
                       const model::ModelSpec& spec,
                       const perf::Workload& per_request);

/** Memoizing oracle over the GPU (+offload) timing model. */
LatencyFn gpuLatencyFn(const hw::GpuConfig& gpu,
                       const model::ModelSpec& spec,
                       const perf::Workload& per_request);

/** Serving-system configuration. */
struct ServingConfig
{
    /** Mean request arrival rate, requests/second (Poisson). */
    double arrivalRate = 1.0;
    /** Maximum batch size the server forms. */
    std::int64_t maxBatch = 16;
    /**
     * Batching window: after the first queued request, wait at most
     * this long for more arrivals before launching (0 = greedy).
     */
    double maxWait = 0.0;
    /** Requests to simulate. */
    std::int64_t numRequests = 500;
    std::uint64_t seed = 1;
};

/** Per-request observable timings. */
struct RequestStats
{
    double arrival = 0.0;
    double start = 0.0;      ///< batch launch
    double firstToken = 0.0; ///< arrival-relative TTFT is ttft()
    double finish = 0.0;
    std::int64_t batchSize = 0;

    double ttft() const { return firstToken - arrival; }
    double e2e() const { return finish - arrival; }
    double queueing() const { return start - arrival; }
};

/** Aggregate outcome of one serving simulation. */
struct ServingResult
{
    std::vector<RequestStats> requests;
    double makespan = 0.0;
    double busyTime = 0.0;
    double meanBatchSize = 0.0;

    /** Server busy fraction. */
    double
    utilization() const
    {
        return makespan > 0.0 ? busyTime / makespan : 0.0;
    }

    /** Generated-token throughput over the whole run. */
    double tokenThroughput(std::int64_t gen_len_per_request) const;

    /** Percentile (0-100) of arrival-relative TTFT. */
    double ttftPercentile(double p) const;

    /** Percentile (0-100) of arrival-relative E2E latency. */
    double e2ePercentile(double p) const;
};

/**
 * Simulate a single-server static-batching queue.
 *
 * The server launches a batch whenever it is idle and either
 * maxBatch requests are waiting or the oldest waiting request has
 * aged past maxWait (and at least one request is waiting).
 *
 * With a @p tracer, the run emits one Perfetto track per request
 * (queue / prefill / decode spans inside a request span), a server
 * busy track, and queue-depth / running-request counter tracks; see
 * traceServing().
 *
 * With @p telemetry, the per-request lifecycle (enqueue ->
 * batch-formed -> prefill-done -> decode-done) is streamed into the
 * live telemetry layer as the event loop advances, so its HTTP
 * endpoints observe the run in flight (see serve/telemetry.h).
 */
ServingResult simulateServing(const ServingConfig& cfg,
                              const LatencyFn& device,
                              obs::Tracer* tracer = nullptr,
                              ServingTelemetry* telemetry = nullptr);

/** @name Continuous batching (Orca-style iteration scheduling) */
/// @{

/** Per-step cost oracles for iteration-level scheduling. */
struct StepCosts
{
    /** Prefill time for @p batch newly admitted requests. */
    std::function<double(std::int64_t batch)> prefill;
    /** One decode iteration over @p batch active sequences. */
    std::function<double(std::int64_t batch)> decode;
    /** Output tokens each request generates. */
    std::int64_t genLen = 32;
};

/** Memoizing step-cost oracles over the CPU timing model. */
StepCosts cpuStepCosts(const hw::PlatformConfig& platform,
                       const model::ModelSpec& spec,
                       const perf::Workload& per_request);

/**
 * Simulate iteration-level (continuous) batching, the scheduling of
 * Orca/vLLM (related work [56]/[28]): requests join the running batch
 * at iteration boundaries as soon as a slot is free and leave the
 * moment they finish, instead of waiting for whole static batches.
 * maxWait is ignored (admission is continuous).
 *
 * Tracing and live telemetry as in simulateServing(); continuous
 * batching additionally reports per-iteration batch occupancy.
 */
ServingResult
simulateContinuousBatching(const ServingConfig& cfg,
                           const StepCosts& costs,
                           obs::Tracer* tracer = nullptr,
                           ServingTelemetry* telemetry = nullptr);
/// @}

/** @name Observability */
/// @{

/**
 * Emit the request-lifecycle view of a finished simulation into
 * @p tracer: per request one "requests" track holding a request span
 * with nested queue ([arrival, start]) / prefill ([start, first
 * token]) / decode ([first token, finish]) spans plus an arrival
 * marker; a "serving" process with the server's merged busy
 * intervals; and counter tracks for queue depth and running
 * requests. @p policy labels the scheduler ("static batching", ...).
 */
void traceServing(obs::Tracer& tracer, const ServingResult& result,
                  const std::string& policy);

/**
 * Build the machine-readable run report of a serving simulation.
 * TTFT / E2E / queueing percentiles (p50/p95/p99) are sourced from
 * stats::Registry histograms registered into @p reg ("serve.ttft",
 * "serve.e2e", "serve.queueing", seconds), alongside throughput,
 * utilization, and batch-size metrics. The host series
 * (serve/host_stats.h) are recorded into @p reg and copied into the
 * report under their `host.*` keys.
 */
obs::RunReport buildRunReport(const ServingResult& result,
                              const ServingConfig& cfg,
                              const std::string& platform_label,
                              const std::string& model_name,
                              const perf::Workload& per_request,
                              const std::string& policy,
                              stats::Registry& reg);

/// @}

} // namespace serve
} // namespace cpullm

#endif // CPULLM_SERVE_SERVING_SIM_H
