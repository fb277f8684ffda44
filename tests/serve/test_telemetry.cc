#include "serve/telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/inference_engine.h"
#include "model/spec.h"
#include "obs/prometheus.h"
#include "serve/batcher.h"
#include "serve/host_stats.h"
#include "serve/serving_sim.h"
#include "util/json.h"
#include "util/string_util.h"

namespace cpullm {
namespace serve {
namespace {

/** Synthetic device: TTFT 0.2 s, E2E 1.0 s, batch-independent. */
LatencyFn
flatLatency()
{
    return [](std::int64_t) {
        BatchLatency l;
        l.ttft = 0.2;
        l.e2e = 1.0;
        return l;
    };
}

ServingConfig
smallConfig()
{
    ServingConfig cfg;
    cfg.arrivalRate = 4.0;
    cfg.maxBatch = 4;
    cfg.numRequests = 40;
    cfg.seed = 7;
    return cfg;
}

TEST(ServingTelemetry, LifecycleCountsMatchSimulation)
{
    ServingTelemetry::Options opt;
    opt.genLen = 32;
    ServingTelemetry t(opt);
    const auto cfg = smallConfig();
    const auto res =
        simulateServing(cfg, flatLatency(), nullptr, &t);

    EXPECT_EQ(t.completed(), static_cast<std::uint64_t>(
                                 res.requests.size()));
    const auto snap = t.snapshot();
    EXPECT_DOUBLE_EQ(snap.getScalar("serve.live.arrivals").value(),
                     static_cast<double>(cfg.numRequests));
    EXPECT_DOUBLE_EQ(
        snap.getScalar("serve.live.completions").value(),
        static_cast<double>(cfg.numRequests));
    EXPECT_DOUBLE_EQ(snap.getScalar("serve.live.tokens").value(),
                     static_cast<double>(cfg.numRequests * 32));
    EXPECT_GT(snap.getScalar("serve.live.batches").value(), 0.0);
    EXPECT_EQ(snap.getHistogram("serve.live.ttft").count(),
              static_cast<std::uint64_t>(cfg.numRequests));
}

TEST(ServingTelemetry, CumulativeQuantilesTrackPostHocResult)
{
    ServingTelemetry t;
    const auto res =
        simulateServing(smallConfig(), flatLatency(), nullptr, &t);

    const auto snap = t.snapshot();
    const double live_p95 =
        snap.getHistogram("serve.live.ttft").quantile(95.0);
    const double posthoc_p95 = res.ttftPercentile(95.0);
    // Same samples, binned vs. exact: agree within bin width.
    EXPECT_NEAR(live_p95, posthoc_p95, 0.5 + posthoc_p95 * 0.1);
}

TEST(ServingTelemetry, ContinuousBatchingFeedsOccupancy)
{
    StepCosts costs;
    costs.prefill = [](std::int64_t b) { return 0.05 * b; };
    costs.decode = [](std::int64_t) { return 0.01; };
    costs.genLen = 8;
    ServingTelemetry::Options opt;
    opt.genLen = costs.genLen;
    ServingTelemetry t(opt);
    const auto res = simulateContinuousBatching(
        smallConfig(), costs, nullptr, &t);

    EXPECT_EQ(t.completed(), static_cast<std::uint64_t>(
                                 res.requests.size()));
    const auto snap = t.snapshot();
    // onStep ran once per decode iteration.
    EXPECT_GT(snap.getDistribution("serve.live.batch_occupancy")
                  .count(),
              0u);
}

TEST(ServingTelemetry, SloVerdictsMetAndViolated)
{
    ServingTelemetry::Options opt;
    opt.slo.ttft_s = 10.0;  // generous: met
    opt.slo.e2e_s = 0.001;  // impossible: violated
    opt.slo.tpot_s = 0.0;   // disabled
    opt.slo.budget = 0.01;
    ServingTelemetry t(opt);
    simulateServing(smallConfig(), flatLatency(), nullptr, &t);

    const auto verdicts = t.sloVerdicts();
    ASSERT_EQ(verdicts.size(), 2u); // tpot disabled
    for (const auto& v : verdicts) {
        EXPECT_GT(v.total, 0u);
        if (v.metric == "ttft") {
            EXPECT_TRUE(v.met);
            EXPECT_DOUBLE_EQ(v.violationRatio, 0.0);
        } else {
            ASSERT_EQ(v.metric, "e2e");
            EXPECT_FALSE(v.met);
            EXPECT_DOUBLE_EQ(v.violationRatio, 1.0);
            EXPECT_DOUBLE_EQ(v.burnRate, 100.0); // 1.0 / 0.01
        }
    }
}

TEST(ServingTelemetry, NoSamplesYieldsNaNRatio)
{
    ServingTelemetry::Options opt;
    opt.slo.ttft_s = 1.0;
    ServingTelemetry t(opt);
    const auto verdicts = t.sloVerdicts();
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].total, 0u);
    EXPECT_TRUE(std::isnan(verdicts[0].violationRatio));
    EXPECT_TRUE(verdicts[0].met); // no evidence of violation
}

TEST(ServingTelemetry, AnnotateReportAddsVerdictBlock)
{
    ServingTelemetry::Options opt;
    opt.slo.ttft_s = 10.0;
    opt.slo.e2e_s = 0.001;
    ServingTelemetry t(opt);
    const auto cfg = smallConfig();
    stats::Registry reg;
    const auto res =
        simulateServing(cfg, flatLatency(), nullptr, &t);
    obs::RunReport report = buildRunReport(
        res, cfg, "test", "model", perf::Workload{}, "static", reg);
    t.annotateReport(report);

    const std::string json = report.toJson();
    EXPECT_TRUE(jsonValid(json)) << json;
    EXPECT_NE(json.find("\"slo_ttft_target_s\":10"),
              std::string::npos);
    EXPECT_NE(json.find("\"slo_ttft\":\"met\""), std::string::npos);
    EXPECT_NE(json.find("\"slo_e2e\":\"violated\""),
              std::string::npos);
    EXPECT_NE(json.find("\"slo\":\"violated\""), std::string::npos);
}

TEST(ServingTelemetry, AnnotateReportNoOpWithoutObjectives)
{
    ServingTelemetry t; // all targets default 0 = disabled
    obs::RunReport report;
    report.kind = "serving";
    t.annotateReport(report);
    EXPECT_EQ(report.toJson().find("slo_"), std::string::npos);
}

TEST(ServingTelemetry, PrometheusViewValidates)
{
    ServingTelemetry::Options opt;
    opt.slo.ttft_s = 1.0;
    opt.genLen = 16;
    ServingTelemetry t(opt);
    simulateServing(smallConfig(), flatLatency(), nullptr, &t);
    // A published batcher snapshot puts the cpullm_host_batch_*
    // families in the view.
    HostBatchSnapshot snap;
    snap.stats.steps = 3;
    snap.blocksTotal = 64;
    publishHostBatchStats(snap);

    std::ostringstream os;
    t.writePrometheus(os);
    std::vector<std::string> errors;
    EXPECT_TRUE(obs::promValid(os.str(), &errors))
        << (errors.empty() ? os.str() : errors.front());
    // Every monotonic `_total` family is typed counter, not gauge.
    std::istringstream lines(os.str());
    std::string line;
    int totals = 0;
    while (std::getline(lines, line)) {
        if (!startsWith(line, "# TYPE "))
            continue;
        std::istringstream fields(line.substr(7));
        std::string name, type;
        fields >> name >> type;
        if (name.size() > 6 &&
            name.compare(name.size() - 6, 6, "_total") == 0) {
            ++totals;
            EXPECT_EQ(type, "counter") << name;
        }
    }
    EXPECT_GE(totals, 12); // 3 pool + 9 batch families
    // Pool capacity is a level, not a count.
    EXPECT_NE(os.str().find("# TYPE cpullm_host_batch_kv_blocks_capacity "
                            "gauge"),
              std::string::npos);
    EXPECT_NE(os.str().find("cpullm_window_arrival_rate_rps"),
              std::string::npos);
    EXPECT_NE(os.str().find("cpullm_slo_burn_rate{slo=\"ttft\"}"),
              std::string::npos);
    EXPECT_NE(os.str().find("cpullm_host_pool_size"),
              std::string::npos);
    EXPECT_NE(os.str().find("cpullm_host_pool_steals_total"),
              std::string::npos);
}

TEST(ServingTelemetry, StatsJsonViewValidates)
{
    ServingTelemetry t;
    simulateServing(smallConfig(), flatLatency(), nullptr, &t);
    std::ostringstream os;
    t.writeStatsJson(os);
    EXPECT_TRUE(jsonValid(os.str())) << os.str();
    EXPECT_NE(os.str().find("\"window\""), std::string::npos);
    EXPECT_NE(os.str().find("\"completed\":40"), std::string::npos);
}

TEST(ServingTelemetry, ReportPublication)
{
    ServingTelemetry t;
    EXPECT_EQ(t.latestReportJson(), "");
    t.setLatestReportJson("{\"x\":1}");
    EXPECT_EQ(t.latestReportJson(), "{\"x\":1}");
}

TEST(ServingTelemetry, ConcurrentReadersDuringHooks)
{
    // Hammer the views from reader threads while the simulation
    // drives the hooks; TSan/ASan builds catch races, and the final
    // counts must still be exact.
    ServingTelemetry::Options opt;
    opt.slo.ttft_s = 1.0;
    ServingTelemetry t(opt);

    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int i = 0; i < 2; ++i) {
        readers.emplace_back([&t, &stop] {
            while (!stop.load()) {
                std::ostringstream os;
                t.writePrometheus(os);
                t.writeStatsJson(os);
                (void)t.snapshot();
                (void)t.sloVerdicts();
            }
        });
    }
    auto cfg = smallConfig();
    cfg.numRequests = 200;
    simulateServing(cfg, flatLatency(), nullptr, &t);
    stop.store(true);
    for (auto& th : readers)
        th.join();
    EXPECT_EQ(t.completed(), 200u);
}

TEST(ServingTelemetry, ScrapesRaceBatcherPublication)
{
    // One thread runs the real batcher on INT8 weights, publishing a
    // snapshot every step and moving the pool, attention and quant
    // counters; this thread scrapes /metrics and the host table
    // meanwhile. TSan builds catch races on the scrape path, and
    // every scrape must stay a valid exposition.
    const model::ModelSpec spec = model::tinyTestModel();
    model::TransformerModel m(spec, gemm::Engine::AmxBf16, 33,
                              gemm::WeightDtype::I8Grouped);
    BatcherConfig cfg;
    cfg.maxBatch = 3;
    cfg.blockSize = 4;
    cfg.numBlocks = 48;
    ContinuousBatcher b(m, cfg);
    for (std::uint64_t i = 0; i < 6; ++i)
        b.submit({engine::syntheticPrompts(spec.vocabSize, 1, 7,
                                           50 + i)[0],
                  8});

    ServingTelemetry t;
    std::atomic<bool> done{false};
    std::thread runner([&b, &done] {
        b.run();
        done.store(true);
    });
    int scrapes = 0;
    do {
        std::ostringstream os;
        t.writePrometheus(os);
        std::vector<std::string> errors;
        EXPECT_TRUE(obs::promValid(os.str(), &errors))
            << (errors.empty() ? os.str() : errors.front());
        stats::Registry host;
        recordHostStats(host);
        EXPECT_TRUE(host.has("host.quant.gemm_calls"));
        ++scrapes;
    } while (!done.load());
    runner.join();
    EXPECT_GE(scrapes, 1);
    EXPECT_EQ(b.stats().retired, 6);
}

TEST(TelemetryIncidents, ZscoreOutlierFiresOnce)
{
    ServingTelemetry::Options opt;
    opt.incidentZscore = 4.0;
    opt.zscoreMinSamples = 8;
    std::vector<std::string> fired;
    opt.onIncident = [&fired](const std::string& reason) {
        fired.push_back(reason);
    };
    ServingTelemetry t(opt);

    // Tight latency distribution, then a gross outlier — twice.
    for (int i = 0; i < 20; ++i)
        t.onDecodeDone(i, 0.2, 1.0 + 0.001 * (i % 3));
    EXPECT_TRUE(t.incidents().empty()) << "no outlier yet";
    t.onDecodeDone(21.0, 0.2, 50.0);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], "latency_zscore_e2e");
    t.onDecodeDone(22.0, 0.2, 60.0);
    EXPECT_EQ(fired.size(), 1u) << "fires at most once per run";
    EXPECT_EQ(t.incidents(),
              std::vector<std::string>{"latency_zscore_e2e"});
}

TEST(TelemetryIncidents, ZscoreNeedsMinSamplesToArm)
{
    ServingTelemetry::Options opt;
    opt.incidentZscore = 3.0;
    opt.zscoreMinSamples = 100;
    ServingTelemetry t(opt);
    for (int i = 0; i < 20; ++i)
        t.onDecodeDone(i, 0.2, 1.0);
    t.onDecodeDone(21.0, 0.2, 1000.0); // below the arming threshold
    EXPECT_TRUE(t.incidents().empty());
}

TEST(TelemetryIncidents, BurnRateBreachFiresPerMetric)
{
    ServingTelemetry::Options opt;
    opt.slo.ttft_s = 0.1;  // every request violates TTFT
    opt.slo.e2e_s = 100.0; // E2E comfortably met
    opt.slo.budget = 0.01;
    opt.incidentBurnRate = 1.0;
    opt.burnMinSamples = 16;
    std::vector<std::string> fired;
    opt.onIncident = [&fired](const std::string& reason) {
        fired.push_back(reason);
    };
    ServingTelemetry t(opt);

    for (int i = 0; i < 32; ++i) {
        t.onPrefillDone(i, 0.2); // TTFT samples arm the ttft verdict
        t.onDecodeDone(i, 0.2, 1.0);
    }
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], "burn_rate_ttft");
    for (int i = 32; i < 64; ++i) {
        t.onPrefillDone(i, 0.2);
        t.onDecodeDone(i, 0.2, 1.0);
    }
    EXPECT_EQ(fired.size(), 1u) << "breach reported once";
    EXPECT_EQ(t.incidents(), std::vector<std::string>{"burn_rate_ttft"});
}

TEST(TelemetryIncidents, DisabledTriggersNeverFire)
{
    ServingTelemetry::Options opt; // both thresholds default to 0
    opt.slo.ttft_s = 0.1;
    std::vector<std::string> fired;
    opt.onIncident = [&fired](const std::string& reason) {
        fired.push_back(reason);
    };
    ServingTelemetry t(opt);
    for (int i = 0; i < 64; ++i)
        t.onDecodeDone(i, 0.2, i == 40 ? 1000.0 : 1.0);
    EXPECT_TRUE(fired.empty());
    EXPECT_TRUE(t.incidents().empty());
}

TEST(TelemetryIncidents, IncidentsAppearInStatsJson)
{
    ServingTelemetry::Options opt;
    opt.slo.ttft_s = 0.1;
    opt.incidentBurnRate = 1.0;
    opt.burnMinSamples = 4;
    ServingTelemetry t(opt);
    for (int i = 0; i < 8; ++i) {
        t.onPrefillDone(i, 0.2);
        t.onDecodeDone(i, 0.2, 1.0);
    }
    ASSERT_FALSE(t.incidents().empty());

    std::ostringstream os;
    t.writeStatsJson(os);
    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(os.str(), &doc));
    const JsonValue* incidents = doc.find("incidents");
    ASSERT_NE(incidents, nullptr);
    ASSERT_TRUE(incidents->isArray());
    ASSERT_EQ(incidents->asArray().size(), 1u);
    EXPECT_EQ(incidents->asArray()[0].asString(), "burn_rate_ttft");
}

} // namespace
} // namespace serve
} // namespace cpullm
