#include "serve/serving_sim.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "serve/host_stats.h"
#include "serve/telemetry.h"
#include "stats/stats.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace cpullm {
namespace serve {

LatencyFn
cpuLatencyFn(const hw::PlatformConfig& platform,
             const model::ModelSpec& spec,
             const perf::Workload& per_request)
{
    auto perf_model = std::make_shared<perf::CpuPerfModel>(platform);
    auto spec_copy = std::make_shared<model::ModelSpec>(spec);
    auto cache =
        std::make_shared<std::map<std::int64_t, BatchLatency>>();
    return [=](std::int64_t batch) {
        auto it = cache->find(batch);
        if (it != cache->end())
            return it->second;
        perf::Workload w = per_request;
        w.batch = batch;
        const perf::InferenceTiming t =
            perf_model->run(*spec_copy, w);
        const BatchLatency lat{t.ttft, t.e2eLatency};
        (*cache)[batch] = lat;
        return lat;
    };
}

LatencyFn
gpuLatencyFn(const hw::GpuConfig& gpu_config,
             const model::ModelSpec& spec,
             const perf::Workload& per_request)
{
    auto gpu_model = std::make_shared<gpu::GpuPerfModel>(gpu_config);
    auto spec_copy = std::make_shared<model::ModelSpec>(spec);
    auto cache =
        std::make_shared<std::map<std::int64_t, BatchLatency>>();
    return [=](std::int64_t batch) {
        auto it = cache->find(batch);
        if (it != cache->end())
            return it->second;
        perf::Workload w = per_request;
        w.batch = batch;
        const auto r = gpu_model->run(*spec_copy, w);
        const BatchLatency lat{r.timing.ttft, r.timing.e2eLatency};
        (*cache)[batch] = lat;
        return lat;
    };
}

double
ServingResult::tokenThroughput(std::int64_t gen_len_per_request) const
{
    if (makespan <= 0.0)
        return 0.0;
    return static_cast<double>(requests.size()) *
           static_cast<double>(gen_len_per_request) / makespan;
}

double
ServingResult::ttftPercentile(double p) const
{
    std::vector<double> v;
    v.reserve(requests.size());
    for (const auto& r : requests)
        v.push_back(r.ttft());
    return stats::percentile(std::move(v), p);
}

double
ServingResult::e2ePercentile(double p) const
{
    std::vector<double> v;
    v.reserve(requests.size());
    for (const auto& r : requests)
        v.push_back(r.e2e());
    return stats::percentile(std::move(v), p);
}

ServingResult
simulateServing(const ServingConfig& cfg, const LatencyFn& device,
                obs::Tracer* tracer, ServingTelemetry* telemetry)
{
    CPULLM_ASSERT(cfg.arrivalRate > 0.0, "arrival rate must be > 0");
    CPULLM_ASSERT(cfg.maxBatch >= 1, "maxBatch must be >= 1");
    CPULLM_ASSERT(cfg.numRequests >= 1, "need at least one request");

    // Arrival times (Poisson process).
    Rng rng(cfg.seed);
    std::vector<RequestStats> requests(
        static_cast<std::size_t>(cfg.numRequests));
    double t = 0.0;
    for (auto& r : requests) {
        double u = rng.uniform();
        if (u < 1e-12)
            u = 1e-12;
        t += -std::log(u) / cfg.arrivalRate;
        r.arrival = t;
    }

    ServingResult result;
    double server_free = 0.0;
    std::size_t next = 0; // first request not yet dispatched
    double batch_count = 0.0;
    double batch_sum = 0.0;

    while (next < requests.size()) {
        // The server can look at the queue once it is free and at
        // least one request has arrived.
        const double head_arrival = requests[next].arrival;
        double launch = std::max(server_free, head_arrival);

        // Batching window: wait (bounded) for followers to arrive.
        if (cfg.maxWait > 0.0) {
            const double deadline =
                std::max(head_arrival, server_free) + cfg.maxWait;
            launch = deadline;
        }

        // Collect everything that has arrived by the launch instant,
        // up to the batch cap.
        std::size_t count = 0;
        while (next + count < requests.size() &&
               count < static_cast<std::size_t>(cfg.maxBatch) &&
               requests[next + count].arrival <= launch) {
            ++count;
        }
        if (count == 0) {
            // Window expired with nothing queued (only possible with
            // maxWait > 0 when launch < head arrival): move to the
            // head request.
            launch = head_arrival;
            count = 1;
        }
        // Greedy launch may begin exactly when the batch is complete.
        launch = std::max(launch,
                          requests[next + count - 1].arrival);
        launch = std::max(launch, server_free);

        const BatchLatency lat =
            device(static_cast<std::int64_t>(count));
        for (std::size_t i = 0; i < count; ++i) {
            RequestStats& r = requests[next + i];
            r.start = launch;
            r.firstToken = launch + lat.ttft;
            r.finish = launch + lat.e2e;
            r.batchSize = static_cast<std::int64_t>(count);
        }
        if (telemetry) {
            for (std::size_t i = 0; i < count; ++i)
                telemetry->onEnqueue(requests[next + i].arrival);
            // Requests that arrived before the launch but did not
            // fit the batch stay behind as backlog.
            std::size_t backlog = 0;
            while (next + count + backlog < requests.size() &&
                   requests[next + count + backlog].arrival <=
                       launch) {
                ++backlog;
            }
            telemetry->onBatchFormed(
                launch, static_cast<std::int64_t>(count),
                static_cast<std::int64_t>(backlog));
            for (std::size_t i = 0; i < count; ++i) {
                const RequestStats& r = requests[next + i];
                telemetry->onPrefillDone(r.firstToken, r.ttft());
                telemetry->onDecodeDone(r.finish, r.ttft(),
                                        r.e2e());
            }
        }
        server_free = launch + lat.e2e;
        result.busyTime += lat.e2e;
        batch_sum += static_cast<double>(count);
        batch_count += 1.0;
        next += count;
    }

    result.makespan = server_free;
    result.meanBatchSize =
        batch_count > 0.0 ? batch_sum / batch_count : 0.0;
    result.requests = std::move(requests);
    if (tracer)
        traceServing(*tracer, result, "static batching");
    return result;
}

StepCosts
cpuStepCosts(const hw::PlatformConfig& platform,
             const model::ModelSpec& spec,
             const perf::Workload& per_request)
{
    auto perf_model = std::make_shared<perf::CpuPerfModel>(platform);
    auto spec_copy = std::make_shared<model::ModelSpec>(spec);
    auto prefill_cache =
        std::make_shared<std::map<std::int64_t, double>>();
    auto decode_cache =
        std::make_shared<std::map<std::int64_t, double>>();
    const std::int64_t mid_ctx =
        per_request.promptLen + per_request.genLen / 2;

    StepCosts costs;
    costs.genLen = per_request.genLen;
    costs.prefill = [=](std::int64_t batch) {
        auto it = prefill_cache->find(batch);
        if (it != prefill_cache->end())
            return it->second;
        perf::Workload w = per_request;
        w.batch = batch;
        const double t =
            perf_model
                ->timePhase(*spec_copy, perf::Phase::Prefill, w,
                            w.promptLen)
                .totalTime;
        (*prefill_cache)[batch] = t;
        return t;
    };
    costs.decode = [=](std::int64_t batch) {
        auto it = decode_cache->find(batch);
        if (it != decode_cache->end())
            return it->second;
        perf::Workload w = per_request;
        w.batch = batch;
        const double t =
            perf_model
                ->timePhase(*spec_copy, perf::Phase::Decode, w,
                            mid_ctx)
                .totalTime;
        (*decode_cache)[batch] = t;
        return t;
    };
    return costs;
}

ServingResult
simulateContinuousBatching(const ServingConfig& cfg,
                           const StepCosts& costs,
                           obs::Tracer* tracer,
                           ServingTelemetry* telemetry)
{
    CPULLM_ASSERT(cfg.arrivalRate > 0.0, "arrival rate must be > 0");
    CPULLM_ASSERT(cfg.maxBatch >= 1, "maxBatch must be >= 1");
    CPULLM_ASSERT(cfg.numRequests >= 1, "need at least one request");
    CPULLM_ASSERT(costs.prefill && costs.decode,
                  "step cost oracles required");

    Rng rng(cfg.seed);
    std::vector<RequestStats> requests(
        static_cast<std::size_t>(cfg.numRequests));
    double t = 0.0;
    for (auto& r : requests) {
        double u = rng.uniform();
        if (u < 1e-12)
            u = 1e-12;
        t += -std::log(u) / cfg.arrivalRate;
        r.arrival = t;
    }

    struct Active
    {
        std::size_t index;
        std::int64_t remaining; // decode tokens still to produce
    };

    ServingResult result;
    std::vector<Active> active;
    std::size_t next = 0;
    std::size_t done = 0;
    double now = 0.0;
    double batch_sum = 0.0;
    double batch_steps = 0.0;

    while (done < requests.size()) {
        // Idle with nothing queued: jump to the next arrival.
        if (active.empty() && next < requests.size() &&
            requests[next].arrival > now) {
            now = requests[next].arrival;
        }

        // Admit arrivals into free slots at this iteration boundary.
        std::size_t admit = 0;
        while (next + admit < requests.size() &&
               active.size() + admit <
                   static_cast<std::size_t>(cfg.maxBatch) &&
               requests[next + admit].arrival <= now) {
            ++admit;
        }
        if (admit > 0) {
            const double start = now;
            const std::size_t running_before = active.size();
            now += costs.prefill(static_cast<std::int64_t>(admit));
            if (telemetry) {
                for (std::size_t i = 0; i < admit; ++i)
                    telemetry->onEnqueue(
                        requests[next + i].arrival);
                std::size_t backlog = 0;
                while (next + admit + backlog < requests.size() &&
                       requests[next + admit + backlog].arrival <=
                           start) {
                    ++backlog;
                }
                telemetry->onBatchFormed(
                    start,
                    static_cast<std::int64_t>(running_before +
                                              admit),
                    static_cast<std::int64_t>(backlog));
            }
            for (std::size_t i = 0; i < admit; ++i) {
                RequestStats& r = requests[next + i];
                r.start = start;
                r.firstToken = now; // prefill emits token #1
                r.batchSize = static_cast<std::int64_t>(
                    running_before + admit);
                if (telemetry)
                    telemetry->onPrefillDone(r.firstToken,
                                             r.ttft());
                if (costs.genLen <= 1) {
                    r.finish = now;
                    ++done;
                    if (telemetry)
                        telemetry->onDecodeDone(r.finish, r.ttft(),
                                                r.e2e());
                } else {
                    active.push_back(
                        Active{next + i, costs.genLen - 1});
                }
            }
            result.busyTime += now - start;
            next += admit;
        }

        if (active.empty())
            continue;

        // One decode iteration over the running batch.
        const double step =
            costs.decode(static_cast<std::int64_t>(active.size()));
        now += step;
        result.busyTime += step;
        batch_sum += static_cast<double>(active.size());
        batch_steps += 1.0;
        if (telemetry)
            telemetry->onStep(
                now, static_cast<std::int64_t>(active.size()));

        for (std::size_t i = 0; i < active.size();) {
            Active& a = active[i];
            if (--a.remaining == 0) {
                requests[a.index].finish = now;
                ++done;
                if (telemetry) {
                    const RequestStats& r = requests[a.index];
                    telemetry->onDecodeDone(r.finish, r.ttft(),
                                            r.e2e());
                }
                active[i] = active.back();
                active.pop_back();
            } else {
                ++i;
            }
        }
    }

    result.makespan = now;
    result.meanBatchSize =
        batch_steps > 0.0 ? batch_sum / batch_steps : 0.0;
    result.requests = std::move(requests);
    if (tracer)
        traceServing(*tracer, result, "continuous batching");
    return result;
}

void
traceServing(obs::Tracer& tracer, const ServingResult& result,
             const std::string& policy)
{
    // One Perfetto track per request: a request span wrapping queue /
    // prefill / decode child spans plus an arrival marker.
    for (std::size_t i = 0; i < result.requests.size(); ++i) {
        const RequestStats& r = result.requests[i];
        const obs::TrackId track = tracer.track(
            "requests", strformat("req %04zu", i));
        tracer.instant("arrival", track, r.arrival);
        obs::Span req = tracer.begin(
            strformat("request %zu", i), "request", track, r.arrival);
        req.annotate("batch_size",
                     static_cast<double>(r.batchSize));
        req.annotate("ttft_s", r.ttft());
        req.annotate("e2e_s", r.e2e());
        tracer.complete("queue", "queue", track, r.arrival,
                        r.queueing());
        tracer.complete("prefill", "prefill", track, r.start,
                        r.firstToken - r.start);
        tracer.complete("decode", "decode", track, r.firstToken,
                        r.finish - r.firstToken);
        req.close(r.finish);
    }

    // Server busy track: merged [start, finish] execution intervals.
    const obs::TrackId server =
        tracer.track("serving (" + policy + ")", "server");
    std::vector<std::pair<double, double>> exec;
    exec.reserve(result.requests.size());
    for (const auto& r : result.requests)
        exec.emplace_back(r.start, r.finish);
    std::sort(exec.begin(), exec.end());
    std::size_t batch_no = 0;
    for (std::size_t i = 0; i < exec.size();) {
        double lo = exec[i].first;
        double hi = exec[i].second;
        std::size_t j = i + 1;
        while (j < exec.size() && exec[j].first <= hi) {
            hi = std::max(hi, exec[j].second);
            ++j;
        }
        tracer.complete(
            strformat("busy %zu (%zu reqs)", batch_no, j - i),
            "busy", server, lo, hi - lo);
        ++batch_no;
        i = j;
    }

    // Counter tracks: queue depth (arrived, not yet launched) and
    // running requests (launched, not yet finished) over time.
    struct Edge
    {
        double time;
        int queue_delta;
        int running_delta;
    };
    std::vector<Edge> edges;
    edges.reserve(result.requests.size() * 3);
    for (const auto& r : result.requests) {
        edges.push_back({r.arrival, +1, 0});
        edges.push_back({r.start, -1, +1});
        edges.push_back({r.finish, 0, -1});
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge& a, const Edge& b) {
                  return a.time < b.time;
              });
    int queued = 0;
    int running = 0;
    std::size_t k = 0;
    while (k < edges.size()) {
        const double t = edges[k].time;
        while (k < edges.size() && edges[k].time == t) {
            queued += edges[k].queue_delta;
            running += edges[k].running_delta;
            ++k;
        }
        tracer.counter("queue_depth", server.pid, t,
                       static_cast<double>(queued));
        tracer.counter("running_requests", server.pid, t,
                       static_cast<double>(running));
    }
}

obs::RunReport
buildRunReport(const ServingResult& result, const ServingConfig& cfg,
               const std::string& platform_label,
               const std::string& model_name,
               const perf::Workload& per_request,
               const std::string& policy, stats::Registry& reg)
{
    // Histogram bounds: [0, 4x the observed p100] keeps every sample
    // in range while giving the buckets useful resolution.
    auto register_hist = [&](const std::string& name,
                             const std::string& desc,
                             auto&& sample_of) {
        double hi = 0.0;
        for (const auto& r : result.requests)
            hi = std::max(hi, sample_of(r));
        stats::Histogram& h = reg.histogram(
            name, 0.0, std::max(hi, 1e-9) * 1.000001, 512, desc);
        for (const auto& r : result.requests)
            h.sample(sample_of(r));
        return &h;
    };

    const stats::Histogram* ttft = register_hist(
        "serve.ttft", "arrival-relative time to first token, s",
        [](const RequestStats& r) { return r.ttft(); });
    const stats::Histogram* e2e = register_hist(
        "serve.e2e", "arrival-relative request latency, s",
        [](const RequestStats& r) { return r.e2e(); });
    const stats::Histogram* queueing = register_hist(
        "serve.queueing", "time from arrival to batch launch, s",
        [](const RequestStats& r) { return r.queueing(); });

    reg.scalar("serve.requests", "requests served")
        .set(static_cast<double>(result.requests.size()));
    reg.scalar("serve.makespan", "simulated wall time, s")
        .set(result.makespan);
    reg.scalar("serve.utilization", "server busy fraction")
        .set(result.utilization());
    reg.scalar("serve.mean_batch", "mean launched batch size")
        .set(result.meanBatchSize);
    recordHostStats(reg);

    obs::RunReport report;
    report.kind = "serving";
    report.platform = platform_label;
    report.model = model_name;
    report.setWorkload(per_request);
    report.info["policy"] = policy;
    report.metrics["arrival_rate_rps"] = cfg.arrivalRate;
    report.metrics["max_batch"] =
        static_cast<double>(cfg.maxBatch);
    report.metrics["requests"] =
        static_cast<double>(result.requests.size());
    report.metrics["makespan_s"] = result.makespan;
    report.metrics["utilization"] = result.utilization();
    report.metrics["mean_batch_size"] = result.meanBatchSize;
    report.metrics["tokens_per_s"] =
        result.tokenThroughput(per_request.genLen);

    // Percentiles come from the upgraded Registry histograms, so the
    // report and `stats dump` can never disagree.
    auto quantiles = [&](const std::string& prefix,
                         const stats::Histogram& h) {
        report.metrics[prefix + "_p50_s"] = h.quantile(50.0);
        report.metrics[prefix + "_p95_s"] = h.quantile(95.0);
        report.metrics[prefix + "_p99_s"] = h.quantile(99.0);
    };
    quantiles("ttft", *ttft);
    quantiles("e2e", *e2e);
    quantiles("queueing", *queueing);

    addHostMetrics(report, reg);

    // TPOT per request is (e2e - ttft) / (genLen - 1).
    if (per_request.genLen > 1) {
        std::vector<double> tpot;
        tpot.reserve(result.requests.size());
        for (const auto& r : result.requests)
            tpot.push_back((r.e2e() - r.ttft()) /
                           static_cast<double>(per_request.genLen -
                                               1));
        double hi = 0.0;
        for (double v : tpot)
            hi = std::max(hi, v);
        stats::Histogram& h = reg.histogram(
            "serve.tpot", 0.0, std::max(hi, 1e-9) * 1.000001, 512,
            "per-request time per output token, s");
        for (double v : tpot)
            h.sample(v);
        quantiles("tpot", h);
    }
    return report;
}

} // namespace serve
} // namespace cpullm
