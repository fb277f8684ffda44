#include "serve/host_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/inference_engine.h"
#include "gemm/attention.h"
#include "gemm/packed_weights.h"
#include "model/spec.h"
#include "model/transformer.h"
#include "obs/perf_events.h"
#include "obs/prometheus.h"
#include "serve/batcher.h"
#include "serve/telemetry.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace cpullm {
namespace serve {
namespace {

/** One fused attention call over a decode slot and a 2-row slot. */
void
runRaggedAttention()
{
    const gemm::AttnShape shape{2, 2, 8}; // d = d_kv = 16
    std::vector<float> kv(4 * 16, 0.25f);  // 4 cached rows
    kv::KvSpan span;
    span.data = kv.data();
    span.dtype = DType::F32;
    span.len = 4;
    span.rowElems = 16;
    span.stride = 16;
    std::vector<float> q(3 * 16, 0.5f), out(3 * 16, 0.0f);
    gemm::AttnRaggedSeq slots[2];
    for (int i = 0; i < 2; ++i) {
        slots[i].view.q = q.data() + 16 * i;
        slots[i].view.out = out.data() + 16 * i;
        slots[i].view.k = &span;
        slots[i].view.v = &span;
        slots[i].view.chunks = 1;
    }
    slots[0].pos0 = 3; // one decode row
    slots[0].m = 1;
    slots[1].pos0 = 2; // two prefill rows
    slots[1].m = 2;
    gemm::attnFusedRagged(shape, slots, 2);
}

/** INT8 and INT4 prepares, a GEMM call on each and an INT4 GEMV. */
void
runQuantizedCalls()
{
    Rng rng(91);
    const Tensor b =
        Tensor::randomUniform({96, 24}, DType::F32, rng, -1.0f, 1.0f);
    const Tensor a3 =
        Tensor::randomUniform({3, 96}, DType::F32, rng, -1.0f, 1.0f);
    const Tensor a1 =
        Tensor::randomUniform({1, 96}, DType::F32, rng, -1.0f, 1.0f);
    const gemm::Engine e = gemm::Engine::AmxBf16;
    const gemm::PreparedB p8(e, b, gemm::WeightDtype::I8Grouped);
    const gemm::PreparedB p4(e, b, gemm::WeightDtype::I4Grouped);
    gemm::matmul(e, a3, p8);
    gemm::matmul(e, a3, p4);
    gemm::matmul(e, a1, p4);
}

// Every row of the table reaches the registry, /metrics and a run
// report under one name, with one type and one help string.
TEST(HostStats, EveryRowReachesEveryView)
{
    parallelFor(0, 4096, [](std::size_t) {});
    runRaggedAttention();
    runQuantizedCalls();
    HostBatchSnapshot snap;
    snap.stats.steps = 3;
    snap.stats.occupancySum = 5;
    snap.maxBatch = 2;
    snap.blockSize = 16;
    snap.blocksTotal = 64;
    publishHostBatchStats(snap);

    obs::pmu::Session& session = obs::pmu::Session::instance();
    session.end();
    session.clearSlots();
    ASSERT_EQ(session.begin(obs::pmu::Mode::Soft),
              obs::pmu::Backend::Soft);
    {
        obs::pmu::CounterScope scope("probe");
        parallelFor(0, 4096, [](std::size_t) {});
    }

    stats::Registry reg;
    recordHostStats(reg);
    obs::RunReport report;
    addHostMetrics(report, reg);
    std::ostringstream prom;
    ServingTelemetry().writePrometheus(prom);
    session.end();
    session.clearSlots();

    obs::PromDoc doc;
    std::vector<std::string> errors;
    ASSERT_TRUE(obs::promParse(prom.str(), &doc, &errors))
        << (errors.empty() ? prom.str() : errors.front());

    struct Row
    {
        std::string key;
        bool counter;
        std::string help;
    };
    std::vector<Row> rows;
    for (const HostSeries& r : hostSeriesTable())
        rows.push_back({std::string("host.") + r.name, r.counter, r.help});
    for (const char* prefix : {"host.pmu.", "host.pmu.probe."}) {
        for (const HostPmuField& f : hostPmuFields())
            rows.push_back({prefix + std::string(f.name), f.counter,
                            f.help});
    }

    std::set<std::string> keys;
    for (const Row& row : rows) {
        SCOPED_TRACE(row.key);
        EXPECT_TRUE(keys.insert(row.key).second) << "duplicate row";
        EXPECT_NE(row.key.substr(row.key.size() - 6), "_total");
        EXPECT_FALSE(row.help.empty());

        ASSERT_TRUE(reg.has(row.key));
        EXPECT_EQ(reg.isCounter(row.key), row.counter);
        EXPECT_EQ(reg.description(row.key), row.help);
        EXPECT_EQ(report.metrics.count(row.key), 1u);

        // A value the soft backend cannot measure is NaN: absent from
        // /metrics under either name.
        const std::string base = obs::promMetricName(row.key, "cpullm");
        const std::string name = row.counter ? base + "_total" : base;
        const std::string other = row.counter ? base : base + "_total";
        EXPECT_EQ(doc.find(other), nullptr);
        if (!std::isfinite(reg.getScalar(row.key).value())) {
            EXPECT_EQ(doc.find(name), nullptr);
            continue;
        }
        ASSERT_NE(doc.find(name), nullptr);
        EXPECT_EQ(doc.types.at(name), row.counter ? "counter" : "gauge");
        EXPECT_EQ(doc.helps.at(name), row.help);
    }
    for (const std::string& key : reg.names())
        EXPECT_EQ(keys.count(key), 1u) << key << " has no table row";

    // The sources were live: each group carries its driven values.
    EXPECT_GE(reg.getScalar("host.attn.ragged_calls").value(), 1.0);
    EXPECT_GE(reg.getScalar("host.quant.tensors_i4").value(), 1.0);
    EXPECT_GE(reg.getScalar("host.quant.gemv_calls").value(), 1.0);
    EXPECT_EQ(reg.getScalar("host.batch.kv_blocks_capacity").value(),
              64.0);
    EXPECT_EQ(reg.getScalar("host.pmu.backend_perf").value(), 0.0);
    EXPECT_GT(reg.getScalar("host.pmu.probe.wall_seconds").value(), 0.0);
}

// Exact dispatch counts of one fused decode step, read through the
// host table: 8 fork/joins per layer (q, k, v, attention, out, gate,
// up, down) plus the head, and one attention task per KV head.
TEST(HostStats, DecodeStepDispatchCountsAreExact)
{
    const model::ModelSpec spec = model::tinyTestModel();
    model::TransformerModel m(spec, gemm::Engine::AmxBf16, 41);
    kv::PagedKvCache cache = m.makePagedKvCache(8, 16);
    const auto prompt =
        engine::syntheticPrompts(spec.vocabSize, 1, 6, 42)[0];
    auto slots = m.prefill({prompt}, cache);
    ASSERT_EQ(slots.size(), 1u);

    const double forkJoins = static_cast<double>(8 * spec.numLayers + 1);
    for (const std::size_t cap : {std::size_t{1}, std::size_t{0}}) {
        SCOPED_TRACE(cap == 1 ? "cap 1" : "default cap");
        setMaxThreads(cap);
        stats::Registry before, after;
        recordHostStats(before);
        const auto next = m.decodeStepRagged(slots, cache);
        recordHostStats(after);
        setMaxThreads(0);
        ASSERT_EQ(next.size(), 1u);
        slots[0].token = next[0];

        auto delta = [&](const char* key) {
            return after.getScalar(key).value() -
                   before.getScalar(key).value();
        };
        EXPECT_EQ(delta("host.pool.parallel_ops") +
                      delta("host.pool.serial_ops") +
                      delta("host.pool.inline_ops"),
                  forkJoins);
        if (cap == 1) {
            EXPECT_EQ(delta("host.pool.serial_ops"), forkJoins);
            EXPECT_EQ(delta("host.pool.parallel_ops"), 0.0);
        }
        EXPECT_EQ(delta("host.attn.decode_calls"),
                  static_cast<double>(spec.numLayers));
        EXPECT_EQ(delta("host.attn.tasks"),
                  static_cast<double>(spec.numLayers * spec.numKvHeads));
    }
}

} // namespace
} // namespace serve
} // namespace cpullm
