#include "serve/telemetry.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "serve/host_stats.h"
#include "util/json.h"

namespace cpullm {
namespace serve {

namespace {

double
ratioOrNaN(std::uint64_t violations, std::uint64_t total)
{
    return total ? static_cast<double>(violations) /
                       static_cast<double>(total)
                 : std::numeric_limits<double>::quiet_NaN();
}

SloVerdict
makeVerdict(const char* metric, double target, double budget,
            std::uint64_t total, std::uint64_t violations)
{
    SloVerdict v;
    v.metric = metric;
    v.target_s = target;
    v.total = total;
    v.violations = violations;
    v.violationRatio = ratioOrNaN(violations, total);
    v.burnRate = total ? v.violationRatio / budget
                       : std::numeric_limits<double>::quiet_NaN();
    // No samples yet: the objective is trivially met.
    v.met = !total || v.violationRatio <= budget;
    return v;
}

} // namespace

ServingTelemetry::ServingTelemetry(const Options& opt)
    : opt_(opt),
      arrivals_(opt.window_s, opt.slices),
      completions_(opt.window_s, opt.slices),
      tokens_(opt.window_s, opt.slices),
      queueDepth_(opt.window_s, opt.slices),
      batchOccupancy_(opt.window_s, opt.slices),
      ttftWin_(opt.window_s, opt.slices, 0.0, opt.latencyHi_s,
               opt.latencyBuckets),
      tpotWin_(opt.window_s, opt.slices, 0.0, opt.tpotHi_s,
               opt.latencyBuckets),
      e2eWin_(opt.window_s, opt.slices, 0.0, opt.latencyHi_s,
              opt.latencyBuckets)
{
    // Register the cumulative statistics up front so an early scrape
    // sees the full (zero-valued) metric surface, not a shifting one.
    reg_.counter("serve.live.arrivals", "requests enqueued");
    reg_.counter("serve.live.batches", "batches launched");
    reg_.counter("serve.live.completions", "requests finished");
    reg_.counter("serve.live.tokens", "output tokens generated");
    reg_.distribution("serve.live.queue_depth",
                      "queued requests after each batch launch");
    reg_.distribution("serve.live.batch_occupancy",
                      "requests per launched batch / iteration");
    reg_.histogram("serve.live.ttft", 0.0, opt.latencyHi_s,
                   opt.latencyBuckets,
                   "arrival-relative time to first token, s");
    reg_.histogram("serve.live.tpot", 0.0, opt.tpotHi_s,
                   opt.latencyBuckets,
                   "per-request time per output token, s");
    reg_.histogram("serve.live.e2e", 0.0, opt.latencyHi_s,
                   opt.latencyBuckets,
                   "arrival-relative request latency, s");
}

void
ServingTelemetry::onEnqueue(double t)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        now_ = std::max(now_, t);
        arrivals_.record(t);
        reg_.scalar("serve.live.arrivals") += 1.0;
    }
    obs::flightrec::record(obs::flightrec::EventType::Telemetry,
                           "enqueue",
                           static_cast<std::int64_t>(t * 1e3), 0);
}

void
ServingTelemetry::onBatchFormed(double t, std::int64_t batchSize,
                                std::int64_t backlog)
{
    std::lock_guard<std::mutex> lock(mu_);
    now_ = std::max(now_, t);
    reg_.scalar("serve.live.batches") += 1.0;
    queueDepth_.record(t, static_cast<double>(backlog));
    reg_.distribution("serve.live.queue_depth")
        .sample(static_cast<double>(backlog));
    batchOccupancy_.record(t, static_cast<double>(batchSize));
    reg_.distribution("serve.live.batch_occupancy")
        .sample(static_cast<double>(batchSize));
}

void
ServingTelemetry::onStep(double t, std::int64_t active)
{
    std::lock_guard<std::mutex> lock(mu_);
    now_ = std::max(now_, t);
    batchOccupancy_.record(t, static_cast<double>(active));
    reg_.distribution("serve.live.batch_occupancy")
        .sample(static_cast<double>(active));
}

void
ServingTelemetry::onPrefillDone(double t, double ttft_s)
{
    std::lock_guard<std::mutex> lock(mu_);
    now_ = std::max(now_, t);
    ttftWin_.record(t, ttft_s);
    reg_.histogram("serve.live.ttft", 0.0, opt_.latencyHi_s,
                   opt_.latencyBuckets)
        .sample(ttft_s);
    if (opt_.slo.ttft_s > 0.0) {
        ++ttftTotal_;
        if (ttft_s > opt_.slo.ttft_s)
            ++ttftViol_;
    }
}

void
ServingTelemetry::onDecodeDone(double t, double ttft_s, double e2e_s)
{
    std::vector<std::string> fired;
    {
        std::lock_guard<std::mutex> lock(mu_);
        now_ = std::max(now_, t);
        ++completed_;
        completions_.record(t);
        reg_.scalar("serve.live.completions") += 1.0;
        e2eWin_.record(t, e2e_s);
        reg_.histogram("serve.live.e2e", 0.0, opt_.latencyHi_s,
                       opt_.latencyBuckets)
            .sample(e2e_s);
        if (opt_.slo.e2e_s > 0.0) {
            ++e2eTotal_;
            if (e2e_s > opt_.slo.e2e_s)
                ++e2eViol_;
        }
        if (opt_.genLen > 0) {
            tokens_.record(t, static_cast<double>(opt_.genLen));
            reg_.scalar("serve.live.tokens") +=
                static_cast<double>(opt_.genLen);
        }
        if (opt_.genLen > 1) {
            const double tpot =
                (e2e_s - ttft_s) /
                static_cast<double>(opt_.genLen - 1);
            tpotWin_.record(t, tpot);
            reg_.histogram("serve.live.tpot", 0.0, opt_.tpotHi_s,
                           opt_.latencyBuckets)
                .sample(tpot);
            if (opt_.slo.tpot_s > 0.0) {
                ++tpotTotal_;
                if (tpot > opt_.slo.tpot_s)
                    ++tpotViol_;
            }
        }

        // Latency outlier: z-score of this sample against the running
        // mean/variance of all *prior* completions (Welford), so the
        // outlier itself does not inflate the baseline it is judged
        // against.
        if (opt_.incidentZscore > 0.0 &&
            e2eN_ >= std::max<std::uint64_t>(2, opt_.zscoreMinSamples)) {
            const double var =
                e2eM2_ / static_cast<double>(e2eN_ - 1);
            if (var > 0.0) {
                const double z = (e2e_s - e2eMean_) / std::sqrt(var);
                if (z >= opt_.incidentZscore)
                    fireLocked("latency_zscore_e2e", &fired);
            }
        }
        ++e2eN_;
        const double delta = e2e_s - e2eMean_;
        e2eMean_ += delta / static_cast<double>(e2eN_);
        e2eM2_ += delta * (e2e_s - e2eMean_);

        // SLO burn-rate breach on any armed objective.
        if (opt_.incidentBurnRate > 0.0) {
            for (const SloVerdict& v : verdictsLocked()) {
                if (v.total >= opt_.burnMinSamples &&
                    v.burnRate > opt_.incidentBurnRate) {
                    fireLocked("burn_rate_" + v.metric, &fired);
                }
            }
        }
    }
    obs::flightrec::record(obs::flightrec::EventType::Telemetry,
                           "request_done",
                           static_cast<std::int64_t>(e2e_s * 1e3),
                           static_cast<std::int64_t>(ttft_s * 1e3));
    // Callbacks run unlocked: an incident sink that dumps the flight
    // recorder (or scrapes this telemetry) must not deadlock.
    for (const std::string& reason : fired) {
        obs::flightrec::record(obs::flightrec::EventType::Marker,
                               reason.c_str(), 0, 0);
        if (opt_.onIncident)
            opt_.onIncident(reason);
    }
}

std::vector<std::string>
ServingTelemetry::incidents() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return incidents_;
}

void
ServingTelemetry::fireLocked(const std::string& reason,
                             std::vector<std::string>* fired)
{
    for (const std::string& seen : incidents_) {
        if (seen == reason)
            return; // fire-once per distinct reason
    }
    incidents_.push_back(reason);
    fired->push_back(reason);
}

double
ServingTelemetry::now() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return now_;
}

std::uint64_t
ServingTelemetry::completed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return completed_;
}

stats::Registry
ServingTelemetry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return reg_.snapshot();
}

std::vector<SloVerdict>
ServingTelemetry::verdictsLocked() const
{
    std::vector<SloVerdict> out;
    const SloTargets& slo = opt_.slo;
    if (slo.ttft_s > 0.0)
        out.push_back(makeVerdict("ttft", slo.ttft_s, slo.budget,
                                  ttftTotal_, ttftViol_));
    if (slo.tpot_s > 0.0)
        out.push_back(makeVerdict("tpot", slo.tpot_s, slo.budget,
                                  tpotTotal_, tpotViol_));
    if (slo.e2e_s > 0.0)
        out.push_back(makeVerdict("e2e", slo.e2e_s, slo.budget,
                                  e2eTotal_, e2eViol_));
    return out;
}

std::vector<SloVerdict>
ServingTelemetry::sloVerdicts() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return verdictsLocked();
}

void
ServingTelemetry::writePrometheus(std::ostream& os) const
{
    stats::Registry host;
    recordHostStats(host);
    std::lock_guard<std::mutex> lock(mu_);
    obs::writePrometheus(os, reg_);
    obs::writePrometheus(os, host);

    const double now = now_;
    auto gauge = [&](const char* name, const char* help, double v) {
        obs::writePromHeader(os, name, help, "gauge");
        obs::writePromSample(os, name, {}, v);
    };
    gauge("cpullm_window_seconds", "trailing telemetry window",
          arrivals_.window());
    gauge("cpullm_window_arrival_rate_rps",
          "windowed request arrival rate", arrivals_.rate(now));
    gauge("cpullm_window_completion_rate_rps",
          "windowed request completion rate", completions_.rate(now));
    gauge("cpullm_window_tokens_per_second",
          "windowed output-token throughput", tokens_.rate(now));

    auto gaugeStats = [&](const char* name, const char* help,
                          const obs::WindowedGauge& g) {
        obs::writePromHeader(os, name, help, "gauge");
        obs::writePromSample(os, name, {{"stat", "last"}}, g.last());
        obs::writePromSample(os, name, {{"stat", "mean"}},
                             g.mean(now));
        obs::writePromSample(os, name, {{"stat", "max"}},
                             g.max(now));
    };
    gaugeStats("cpullm_window_queue_depth", "windowed queue depth",
               queueDepth_);
    gaugeStats("cpullm_window_batch_occupancy",
               "windowed batch occupancy", batchOccupancy_);

    auto quantiles = [&](const char* name, const char* help,
                         const obs::RollingHistogram& h) {
        obs::writePromHeader(os, name, help, "gauge");
        obs::writePromSample(os, name, {{"quantile", "0.5"}},
                             h.quantile(now, 50.0));
        obs::writePromSample(os, name, {{"quantile", "0.95"}},
                             h.quantile(now, 95.0));
        obs::writePromSample(os, name, {{"quantile", "0.99"}},
                             h.quantile(now, 99.0));
    };
    quantiles("cpullm_window_ttft_seconds",
              "windowed time-to-first-token quantiles", ttftWin_);
    quantiles("cpullm_window_tpot_seconds",
              "windowed time-per-output-token quantiles", tpotWin_);
    quantiles("cpullm_window_e2e_seconds",
              "windowed end-to-end latency quantiles", e2eWin_);

    const auto verdicts = verdictsLocked();
    if (!verdicts.empty()) {
        auto sloFamily = [&](const char* name, const char* help,
                             auto&& value_of) {
            obs::writePromHeader(os, name, help, "gauge");
            for (const auto& v : verdicts) {
                obs::writePromSample(os, name,
                                     {{"slo", v.metric}},
                                     value_of(v));
            }
        };
        sloFamily("cpullm_slo_target_seconds", "SLO latency target",
                  [](const SloVerdict& v) { return v.target_s; });
        sloFamily("cpullm_slo_violation_ratio",
                  "fraction of requests over target",
                  [](const SloVerdict& v) {
                      return v.violationRatio;
                  });
        sloFamily("cpullm_slo_burn_rate",
                  "violation ratio / error budget",
                  [](const SloVerdict& v) { return v.burnRate; });
        sloFamily("cpullm_slo_met", "1 when within budget",
                  [](const SloVerdict& v) {
                      return v.met ? 1.0 : 0.0;
                  });
    }
}

void
ServingTelemetry::windowJsonLocked(std::ostream& os) const
{
    const double now = now_;
    os << "{\"seconds\":" << jsonNumber(arrivals_.window())
       << ",\"arrival_rate_rps\":"
       << jsonNumber(arrivals_.rate(now))
       << ",\"completion_rate_rps\":"
       << jsonNumber(completions_.rate(now))
       << ",\"tokens_per_second\":" << jsonNumber(tokens_.rate(now))
       << ",\"queue_depth_last\":"
       << jsonNumber(queueDepth_.last())
       << ",\"queue_depth_mean\":"
       << jsonNumber(queueDepth_.mean(now))
       << ",\"batch_occupancy_mean\":"
       << jsonNumber(batchOccupancy_.mean(now));
    auto hist = [&](const char* key,
                    const obs::RollingHistogram& h) {
        os << ",\"" << key
           << "\":{\"p50\":" << jsonNumber(h.quantile(now, 50.0))
           << ",\"p95\":" << jsonNumber(h.quantile(now, 95.0))
           << ",\"p99\":" << jsonNumber(h.quantile(now, 99.0))
           << ",\"n\":" << h.count(now) << "}";
    };
    hist("ttft_s", ttftWin_);
    hist("tpot_s", tpotWin_);
    hist("e2e_s", e2eWin_);
    os << "}";
}

void
ServingTelemetry::writeStatsJson(std::ostream& os) const
{
    stats::Registry host;
    recordHostStats(host);
    std::lock_guard<std::mutex> lock(mu_);
    os << "{\"now_s\":" << jsonNumber(now_) << ",\"completed\":"
       << completed_ << ",\"window\":";
    windowJsonLocked(os);
    os << ",\"slo\":[";
    bool first = true;
    for (const auto& v : verdictsLocked()) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"metric\":" << jsonQuote(v.metric)
           << ",\"target_s\":" << jsonNumber(v.target_s)
           << ",\"total\":" << v.total << ",\"violations\":"
           << v.violations << ",\"violation_ratio\":"
           << jsonNumber(v.violationRatio) << ",\"burn_rate\":"
           << jsonNumber(v.burnRate) << ",\"met\":"
           << (v.met ? "true" : "false") << "}";
    }
    os << "],\"incidents\":[";
    first = true;
    for (const std::string& reason : incidents_) {
        if (!first)
            os << ',';
        first = false;
        os << jsonQuote(reason);
    }
    os << "],\"stats\":";
    obs::writeRegistryJson(os, reg_);
    os << ",\"host\":";
    obs::writeRegistryJson(os, host);
    os << "}";
}

void
ServingTelemetry::annotateReport(obs::RunReport& report) const
{
    const auto verdicts = sloVerdicts();
    if (verdicts.empty())
        return;
    bool all_met = true;
    for (const auto& v : verdicts) {
        report.metrics["slo_" + v.metric + "_target_s"] = v.target_s;
        report.metrics["slo_" + v.metric + "_violation_ratio"] =
            v.violationRatio;
        report.metrics["slo_" + v.metric + "_burn_rate"] =
            v.burnRate;
        report.metrics["slo_" + v.metric + "_violations"] =
            static_cast<double>(v.violations);
        report.info["slo_" + v.metric] =
            v.met ? "met" : "violated";
        all_met = all_met && v.met;
    }
    report.metrics["slo_budget"] = opt_.slo.budget;
    report.info["slo"] = all_met ? "met" : "violated";
}

void
ServingTelemetry::setLatestReportJson(const std::string& json)
{
    std::lock_guard<std::mutex> lock(mu_);
    latestReport_ = json;
}

std::string
ServingTelemetry::latestReportJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return latestReport_;
}

} // namespace serve
} // namespace cpullm
