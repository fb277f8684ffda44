#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <vector>

#include "gemm/attention.h"
#include "obs/perf_events.h"
#include "serve/host_stats.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace cpullm {
namespace obs {
namespace {

stats::Registry
sampleRegistry()
{
    stats::Registry reg;
    reg.scalar("serve.requests", "requests served") += 100.0;
    auto& d = reg.distribution("serve.batch", "launched batch sizes");
    d.sample(1.0);
    d.sample(3.0);
    auto& h = reg.histogram("serve.ttft", 0.0, 10.0, 100,
                            "time to first token, s");
    for (int i = 0; i < 100; ++i)
        h.sample(i * 0.05); // 0 .. 4.95
    return reg;
}

TEST(RegistryJson, ValidAndComplete)
{
    const auto reg = sampleRegistry();
    std::ostringstream os;
    writeRegistryJson(os, reg);
    const std::string json = os.str();
    EXPECT_TRUE(jsonValid(json)) << json;
    EXPECT_NE(json.find("\"serve.requests\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"scalar\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"distribution\""),
              std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
    EXPECT_NE(json.find("time to first token, s"), std::string::npos);
}

TEST(RegistryJson, EmptyRegistryIsEmptyObject)
{
    stats::Registry reg;
    std::ostringstream os;
    writeRegistryJson(os, reg);
    EXPECT_EQ(os.str(), "{}");
}

TEST(RegistryCsv, HeaderAndOneRowPerStat)
{
    const auto reg = sampleRegistry();
    std::ostringstream os;
    writeRegistryCsv(os, reg);
    const std::string csv = os.str();
    EXPECT_EQ(csv.rfind("name,kind,value,mean,min,max,"
                        "p50,p95,p99,n,desc",
                        0),
              0u);
    std::size_t lines = 0;
    for (char c : csv)
        if (c == '\n')
            ++lines;
    EXPECT_EQ(lines, 1u + reg.names().size());
    EXPECT_NE(csv.find("serve.ttft,histogram"), std::string::npos);
    EXPECT_NE(csv.find("serve.batch,distribution"),
              std::string::npos);
}

TEST(RegistryJson, HistogramQuantilesAreOrdered)
{
    const auto reg = sampleRegistry();
    const auto& h = reg.getHistogram("serve.ttft");
    EXPECT_LE(h.quantile(50.0), h.quantile(95.0));
    EXPECT_LE(h.quantile(95.0), h.quantile(99.0));
    EXPECT_NEAR(h.quantile(50.0), 2.5, 0.2);
}

TEST(RegistryJson, EmptyHistogramEmitsNullNotNaN)
{
    // Regression: an empty histogram's quantiles are NaN, which is
    // not a JSON literal. The JSON view must stay machine-parseable.
    stats::Registry reg;
    reg.histogram("serve.ttft", 0.0, 10.0, 16, "no samples yet");
    std::ostringstream os;
    writeRegistryJson(os, reg);
    const std::string json = os.str();
    EXPECT_TRUE(jsonValid(json)) << json;
    EXPECT_NE(json.find("\"p50\":null"), std::string::npos) << json;
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(RegistryJson, NaNScalarAndDistributionEmitNull)
{
    // Regression: scalars and distribution moments holding NaN (the
    // pmu "unavailable" marker) used to be printed with raw %g,
    // producing `nan` — not a JSON literal.
    stats::Registry reg;
    reg.scalar("host.pmu.run.ipc", "measured IPC") +=
        std::nan("");
    reg.distribution("host.pmu.run.mpki", "measured MPKI")
        .sample(std::nan(""));
    std::ostringstream os;
    writeRegistryJson(os, reg);
    const std::string json = os.str();
    EXPECT_TRUE(jsonValid(json)) << json;
    EXPECT_NE(json.find("\"value\":null"), std::string::npos) << json;
    EXPECT_NE(json.find("\"mean\":null"), std::string::npos) << json;
    EXPECT_EQ(json.find("nan"), std::string::npos) << json;
}

TEST(RegistryCsv, NaNScalarLeavesValueCellBlank)
{
    stats::Registry reg;
    reg.scalar("host.pmu.run.ipc", "measured IPC") += std::nan("");
    std::ostringstream os;
    writeRegistryCsv(os, reg);
    const std::string csv = os.str();
    EXPECT_EQ(csv.find("nan"), std::string::npos) << csv;
    EXPECT_NE(csv.find("host.pmu.run.ipc,scalar,,"),
              std::string::npos)
        << csv;
}

TEST(HostPmuStats, RecordedFromSessionSlots)
{
    auto& session = pmu::Session::instance();
    session.end();
    session.clearSlots();

    // No active session: nothing to record.
    {
        stats::Registry reg;
        serve::recordHostStats(reg);
        for (const std::string& name : reg.names())
            EXPECT_NE(name.rfind("host.pmu.", 0), 0u) << name;
    }

    ASSERT_EQ(session.begin(pmu::Mode::Soft), pmu::Backend::Soft);
    {
        pmu::CounterScope scope("run");
        volatile double acc = 0.0;
        for (int i = 0; i < 4 * 1000 * 1000; ++i)
            acc = acc + 1.0;
        (void)acc;
    }

    stats::Registry reg;
    serve::recordHostStats(reg);
    EXPECT_EQ(reg.getScalar("host.pmu.backend_perf").value(), 0.0);
    EXPECT_GE(reg.getScalar("host.pmu.run.wall_seconds").value(), 0.0);
    // Hardware-only fields stay NaN under the software backend and
    // must survive the JSON export as null.
    std::ostringstream os;
    writeRegistryJson(os, reg);
    EXPECT_TRUE(jsonValid(os.str())) << os.str();
    EXPECT_EQ(os.str().find("nan"), std::string::npos);

    session.end();
    session.clearSlots();
}

TEST(HostPoolStats, RecordedAsScalars)
{
    // Drive at least one loop through the pool backend so the
    // counters are live, then snapshot them into a registry.
    std::atomic<std::uint64_t> sum{0};
    parallelFor(0, 2048, [&](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    stats::Registry reg;
    serve::recordHostStats(reg);
    const ThreadPool::Stats s = ThreadPool::instance().stats();
    EXPECT_EQ(reg.getScalar("host.pool.size").value(),
              static_cast<double>(s.poolSize));
    EXPECT_GE(reg.getScalar("host.pool.parallel_ops").value() +
                  reg.getScalar("host.pool.serial_ops").value(),
              1.0);
    for (const char* name :
         {"host.pool.size", "host.pool.parallel_ops",
          "host.pool.serial_ops", "host.pool.inline_ops",
          "host.pool.tasks", "host.pool.chunks",
          "host.pool.steals"})
        EXPECT_EQ(reg.kind(name), stats::StatKind::Scalar) << name;

    // The snapshot also survives the machine-readable exports.
    std::ostringstream os;
    writeRegistryJson(os, reg);
    EXPECT_TRUE(jsonValid(os.str()));
    EXPECT_NE(os.str().find("\"host.pool.steals\""),
              std::string::npos);
}

TEST(HostAttnStats, RecordedAsScalars)
{
    // Run one fused decode step so the kernel counters are live.
    const gemm::AttnShape shape{2, 2, 8};
    std::vector<float> q(16, 0.5f), out(16, 0.0f);
    std::vector<float> kv(4 * 16, 0.25f); // 4 cached rows of d_kv=16
    kv::KvSpan span;
    span.data = kv.data();
    span.dtype = DType::F32;
    span.len = 4;
    span.rowElems = 16;
    span.stride = 16;
    gemm::AttnRaggedSeq slot;
    slot.view.q = q.data();
    slot.view.out = out.data();
    slot.view.k = &span;
    slot.view.v = &span;
    slot.view.chunks = 1;
    slot.pos0 = 3;
    slot.m = 1;
    gemm::attnFusedRagged(shape, &slot, 1);

    stats::Registry reg;
    serve::recordHostStats(reg);
    const gemm::AttnStats s = gemm::attnStats();
    EXPECT_GE(s.decodeCalls, 1u);
    EXPECT_EQ(reg.getScalar("host.attn.decode_calls").value(),
              static_cast<double>(s.decodeCalls));
    EXPECT_EQ(reg.getScalar("host.attn.tasks").value(),
              static_cast<double>(s.tasks));
    for (const char* name :
         {"host.attn.decode_calls", "host.attn.prefill_calls",
          "host.attn.tasks", "host.attn.span_rows",
          "host.attn.scratch_allocs"})
        EXPECT_EQ(reg.kind(name), stats::StatKind::Scalar) << name;

    std::ostringstream os;
    writeRegistryJson(os, reg);
    EXPECT_TRUE(jsonValid(os.str()));
    EXPECT_NE(os.str().find("\"host.attn.span_rows\""),
              std::string::npos);
}

TEST(RegistryCsv, EmptyHistogramLeavesQuantileCellsBlank)
{
    stats::Registry reg;
    reg.histogram("serve.ttft", 0.0, 10.0, 16, "no samples yet");
    std::ostringstream os;
    writeRegistryCsv(os, reg);
    const std::string csv = os.str();
    EXPECT_EQ(csv.find("nan"), std::string::npos) << csv;
    EXPECT_NE(csv.find("serve.ttft,histogram"), std::string::npos);
}

} // namespace
} // namespace obs
} // namespace cpullm
