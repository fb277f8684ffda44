#ifndef CPULLM_SERVE_TELEMETRY_H
#define CPULLM_SERVE_TELEMETRY_H

/**
 * @file
 * Live serving telemetry: per-request lifecycle instrumentation
 * (enqueue -> batch-formed -> prefill-done -> decode-done) recorded
 * into cumulative stats::Registry statistics plus sliding-window
 * time-series (obs/timeseries.h), with SLO targets and a burn-rate
 * evaluator. The paper's Section II-C use-case metrics — TTFT for
 * chatbots, TPOT for translation, throughput for batch analytics —
 * become continuously observable signals instead of end-of-run
 * summaries: an HTTP endpoint (util/http_server.h) can scrape
 * Prometheus text or JSON *while* the simulation runs.
 *
 * Threading: every method is safe to call concurrently; one mutex
 * serializes the simulation thread's hooks against HTTP readers.
 * Timestamps are simulated seconds and must be (approximately)
 * non-decreasing per caller; samples older than one window are
 * dropped from the windowed series but always land in the
 * cumulative registry.
 */

#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/run_report.h"
#include "obs/timeseries.h"
#include "stats/stats.h"

namespace cpullm {
namespace serve {

/** SLO targets in seconds; 0 disables that objective. */
struct SloTargets
{
    double ttft_s = 0.0;
    double tpot_s = 0.0;
    double e2e_s = 0.0;
    /**
     * Error budget: tolerated violation fraction (0.01 = "99% of
     * requests meet the target"). Burn rate is the observed
     * violation fraction divided by this budget; > 1 means the
     * budget is being consumed faster than provisioned.
     */
    double budget = 0.01;

    bool any() const
    {
        return ttft_s > 0.0 || tpot_s > 0.0 || e2e_s > 0.0;
    }
};

/** Outcome of one objective's evaluation. */
struct SloVerdict
{
    std::string metric; ///< "ttft" / "tpot" / "e2e"
    double target_s = 0.0;
    std::uint64_t total = 0;
    std::uint64_t violations = 0;
    double violationRatio = 0.0; ///< NaN until a sample arrives
    double burnRate = 0.0;       ///< violationRatio / budget
    bool met = true;             ///< violationRatio <= budget
};

/** Live telemetry for one serving run. */
class ServingTelemetry
{
  public:
    struct Options
    {
        SloTargets slo;
        /** Trailing window for rates/rolling quantiles, seconds. */
        double window_s = 60.0;
        /** Ring slots per window (resolution of expiry). */
        std::size_t slices = 12;
        /** Upper bound of the live TTFT/E2E histograms, seconds. */
        double latencyHi_s = 120.0;
        /** Upper bound of the live TPOT histogram, seconds. */
        double tpotHi_s = 5.0;
        std::size_t latencyBuckets = 256;
        /** Output tokens per request, for tokens/s (0 = unknown). */
        std::int64_t genLen = 0;

        /** @name Incident triggers (flight-recorder integration)
         *  Each distinct reason fires at most once per run; the
         *  callback runs outside the telemetry mutex. */
        /// @{

        /** An e2e latency sample more than this many standard
         *  deviations above the running mean fires an incident
         *  "latency_zscore_e2e" (0 disables). */
        double incidentZscore = 0.0;
        /** Completed requests required before z-score arming (the
         *  running variance is meaningless on a handful of samples). */
        std::uint64_t zscoreMinSamples = 32;
        /** Any enabled SLO whose burn rate exceeds this fires
         *  "burn_rate_<metric>" (0 disables). 1.0 = "budget consumed
         *  faster than provisioned". */
        double incidentBurnRate = 0.0;
        /** Samples required per objective before burn-rate arming. */
        std::uint64_t burnMinSamples = 16;
        /** Incident sink; typically dumps the flight recorder. */
        std::function<void(const std::string& reason)> onIncident;

        /// @}
    };

    ServingTelemetry() : ServingTelemetry(Options{}) {}
    explicit ServingTelemetry(const Options& opt);

    /** @name Lifecycle hooks (called by the serving simulators) */
    /// @{

    /** A request joined the queue at time @p t. */
    void onEnqueue(double t);

    /** A batch of @p batchSize launched; @p backlog requests remain
     *  queued after the launch. */
    void onBatchFormed(double t, std::int64_t batchSize,
                       std::int64_t backlog);

    /** One scheduler iteration ran with @p active requests (batch
     *  occupancy of continuous batching). */
    void onStep(double t, std::int64_t active);

    /** A request's prefill finished; @p ttft_s is arrival-relative. */
    void onPrefillDone(double t, double ttft_s);

    /** A request finished; latencies are arrival-relative. TPOT is
     *  derived from Options::genLen when known. */
    void onDecodeDone(double t, double ttft_s, double e2e_s);

    /// @}

    /** @name Views (safe concurrently with the hooks) */
    /// @{

    /** Latest event timestamp (the window's "now"). */
    double now() const;

    /** Requests that completed so far. */
    std::uint64_t completed() const;

    /** Deep copy of the cumulative serve.live.* statistics. */
    stats::Registry snapshot() const;

    /** Verdicts for every enabled objective (empty if none). */
    std::vector<SloVerdict> sloVerdicts() const;

    /** Incident reasons fired so far, in firing order. */
    std::vector<std::string> incidents() const;

    /** Prometheus 0.0.4 exposition: cumulative registry, the host
     *  series (serve/host_stats.h), windowed gauges and SLO series. */
    void writePrometheus(std::ostream& os) const;

    /** JSON view: cumulative stats, windowed aggregates, SLO block,
     *  and the host-series registry under "host". */
    void writeStatsJson(std::ostream& os) const;

    /** Add the SLO verdict block (slo_* metrics, met/violated info
     *  strings) to a run report. No-op with no enabled objective. */
    void annotateReport(obs::RunReport& report) const;

    /** Publish the finished run report for the /report endpoint. */
    void setLatestReportJson(const std::string& json);

    /** Latest published report ("" while the run is in flight). */
    std::string latestReportJson() const;

    /// @}

  private:
    std::vector<SloVerdict> verdictsLocked() const;
    void windowJsonLocked(std::ostream& os) const;
    /** Record @p reason once; appends to @p fired when new. */
    void fireLocked(const std::string& reason,
                    std::vector<std::string>* fired);

    mutable std::mutex mu_;
    Options opt_;
    stats::Registry reg_;

    obs::WindowedCounter arrivals_;
    obs::WindowedCounter completions_;
    obs::WindowedCounter tokens_;
    obs::WindowedGauge queueDepth_;
    obs::WindowedGauge batchOccupancy_;
    obs::RollingHistogram ttftWin_;
    obs::RollingHistogram tpotWin_;
    obs::RollingHistogram e2eWin_;

    double now_ = 0.0;
    std::uint64_t completed_ = 0;
    std::uint64_t ttftTotal_ = 0, ttftViol_ = 0;
    std::uint64_t tpotTotal_ = 0, tpotViol_ = 0;
    std::uint64_t e2eTotal_ = 0, e2eViol_ = 0;

    /** Welford running mean/variance of e2e latency (z-score). */
    double e2eMean_ = 0.0, e2eM2_ = 0.0;
    std::uint64_t e2eN_ = 0;
    std::vector<std::string> incidents_; ///< fired reasons, in order

    std::string latestReport_;
};

} // namespace serve
} // namespace cpullm

#endif // CPULLM_SERVE_TELEMETRY_H
