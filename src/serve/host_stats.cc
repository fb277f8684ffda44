#include "serve/host_stats.h"

#include <cmath>
#include <map>
#include <string>

#include "gemm/attention.h"
#include "gemm/packed_weights.h"
#include "obs/counters.h"
#include "obs/perf_events.h"
#include "serve/batcher.h"
#include "util/thread_pool.h"

namespace cpullm {
namespace serve {

struct HostSources
{
    ThreadPool::Stats pool;
    gemm::AttnStats attn;
    gemm::QuantStats quant;
    HostBatchSnapshot batch;
    bool pmuActive = false;
    bool pmuPerf = false;
    int pmuHwEvents = 0;
    std::size_t pmuThreadGroups = 0;
    obs::pmu::PmuCounts pmuTotal; ///< live session total
    std::map<std::string, obs::pmu::PmuCounts> pmuSlots;

    bool
    has(HostGroup g) const
    {
        switch (g) {
          case HostGroup::Quant:
            return quant.tensors > 0;
          case HostGroup::Batch:
            return batch.valid;
          case HostGroup::Pmu:
            return pmuActive;
          case HostGroup::Pool:
          case HostGroup::Attn:
            break;
        }
        return true;
    }
};

namespace {

constexpr bool kCounter = true;
constexpr bool kGauge = false;

using S = const HostSources&;
using P = const obs::pmu::PmuCounts&;

template <typename T>
double
num(T v)
{
    return static_cast<double>(v);
}

HostSources
readSources()
{
    HostSources s;
    s.pool = ThreadPool::instance().stats();
    s.attn = gemm::attnStats();
    s.quant = gemm::quantStats();
    s.batch = hostBatchSnapshot();
    const obs::pmu::Session& pmu = obs::pmu::Session::instance();
    s.pmuActive = pmu.active();
    s.pmuPerf = pmu.backend() == obs::pmu::Backend::Perf;
    s.pmuHwEvents = pmu.hardwareEventsOpen();
    s.pmuThreadGroups = pmu.threadGroups();
    s.pmuTotal = pmu.readAll();
    for (const std::string& slot : pmu.slotNames())
        s.pmuSlots.emplace(slot, pmu.slot(slot));
    return s;
}

} // namespace

const std::vector<HostSeries>&
hostSeriesTable()
{
    using G = HostGroup;
    static const std::vector<HostSeries> table = {
        {G::Pool, "pool.size", kGauge, "persistent host worker threads",
         [](S s) { return num(s.pool.poolSize); }},
        {G::Pool, "pool.parallel_ops", kCounter,
         "parallelFor calls executed on the host pool",
         [](S s) { return num(s.pool.parallelOps); }},
        {G::Pool, "pool.serial_ops", kCounter,
         "parallelFor calls that ran serial (small range or "
         "single-thread cap)",
         [](S s) { return num(s.pool.serialOps); }},
        {G::Pool, "pool.inline_ops", kCounter,
         "nested parallelFor calls inlined on a pool thread",
         [](S s) { return num(s.pool.inlineOps); }},
        {G::Pool, "pool.tasks", kCounter,
         "loop indices executed via the host pool",
         [](S s) { return num(s.pool.tasks); }},
        {G::Pool, "pool.chunks", kCounter,
         "work chunks dealt to worker deques",
         [](S s) { return num(s.pool.chunks); }},
        {G::Pool, "pool.steals", kCounter,
         "work chunks stolen between host workers",
         [](S s) { return num(s.pool.steals); }},

        {G::Attn, "attn.decode_calls", kCounter,
         "fused attention calls whose slots all have m == 1",
         [](S s) { return num(s.attn.decodeCalls); }},
        {G::Attn, "attn.prefill_calls", kCounter,
         "fused attention calls whose slots all have m > 1",
         [](S s) { return num(s.attn.prefillCalls); }},
        {G::Attn, "attn.ragged_calls", kCounter,
         "fused attention calls mixing m == 1 and m > 1 slots",
         [](S s) { return num(s.attn.raggedCalls); }},
        {G::Attn, "attn.tasks", kCounter,
         "(sequence x kv-head) attention grid tasks",
         [](S s) { return num(s.attn.tasks); }},
        {G::Attn, "attn.span_rows", kCounter,
         "K/V rows streamed across all tasks",
         [](S s) { return num(s.attn.spanRows); }},
        {G::Attn, "attn.scratch_allocs", kCounter,
         "per-thread attention scratch growths (0 in steady state)",
         [](S s) { return num(s.attn.scratchAllocs); }},

        {G::Quant, "quant.tensors", kGauge,
         "weight tensors quantized group-wise",
         [](S s) { return num(s.quant.tensors); }},
        {G::Quant, "quant.tensors_i4", kGauge,
         "of which nibble-packed INT4 (rest INT8)",
         [](S s) { return num(s.quant.tensorsI4); }},
        {G::Quant, "quant.packed_bytes", kGauge,
         "quantized weight bytes resident (codes + scales)",
         [](S s) { return num(s.quant.packedBytes); }},
        {G::Quant, "quant.native_bytes", kGauge,
         "packed BF16 tile bytes the quantized forms replace",
         [](S s) { return num(s.quant.nativeBytes); }},
        {G::Quant, "quant.bytes_ratio", kGauge,
         "packed / native weight bytes (lower is better)",
         [](S s) {
             return s.quant.nativeBytes > 0
                        ? num(s.quant.packedBytes) /
                              num(s.quant.nativeBytes)
                        : std::nan("");
         }},
        {G::Quant, "quant.gemm_calls", kCounter,
         "fused-dequant GEMM calls: every INT8 call, INT4 m > 1",
         [](S s) { return num(s.quant.gemmCalls); }},
        {G::Quant, "quant.gemv_calls", kCounter,
         "fused INT4 decode GEMV calls (m == 1)",
         [](S s) { return num(s.quant.gemvCalls); }},
        {G::Quant, "quant.bytes_streamed", kCounter,
         "packed weight bytes streamed by the fused kernels",
         [](S s) { return num(s.quant.bytesStreamed); }},
        {G::Quant, "quant.max_abs_err", kGauge,
         "worst per-weight dequantization error",
         [](S s) { return s.quant.maxAbsErr; }},
        {G::Quant, "quant.rms_err", kGauge,
         "RMS dequantization error over all quantized weights",
         [](S s) { return s.quant.rmsErr; }},

        {G::Batch, "batch.steps", kCounter,
         "fused ragged decode steps executed",
         [](S s) { return num(s.batch.stats.steps); }},
        {G::Batch, "batch.decoded_tokens", kCounter,
         "tokens produced by fused decode steps",
         [](S s) { return num(s.batch.stats.decodedTokens); }},
        {G::Batch, "batch.prefill_tokens", kCounter,
         "prompt tokens prefilled (prefix-cache suffixes only)",
         [](S s) { return num(s.batch.stats.prefillTokens); }},
        {G::Batch, "batch.admitted", kCounter,
         "sequence admissions incl. preemption re-admits",
         [](S s) { return num(s.batch.stats.admitted); }},
        {G::Batch, "batch.retired", kCounter, "sequences completed",
         [](S s) { return num(s.batch.stats.retired); }},
        {G::Batch, "batch.preemptions", kCounter,
         "evict-and-requeue events under pool pressure",
         [](S s) { return num(s.batch.stats.preemptions); }},
        {G::Batch, "batch.admission_rejections", kCounter,
         "admissions refused because the paged pool was full",
         [](S s) { return num(s.batch.stats.admissionRejections); }},
        {G::Batch, "batch.prefix_hits", kCounter,
         "admissions that reused a cached prompt prefix",
         [](S s) { return num(s.batch.stats.prefixHits); }},
        {G::Batch, "batch.prefix_tokens_reused", kCounter,
         "prompt tokens served from shared prefix blocks",
         [](S s) { return num(s.batch.stats.prefixTokensReused); }},
        {G::Batch, "batch.occupancy_sum", kCounter,
         "in-flight sequences summed over fused decode steps",
         [](S s) { return num(s.batch.stats.occupancySum); }},
        {G::Batch, "batch.mean_occupancy", kGauge,
         "mean in-flight sequences per fused decode step",
         [](S s) { return s.batch.stats.meanOccupancy(); }},
        {G::Batch, "batch.peak_occupancy", kGauge,
         "max in-flight sequences",
         [](S s) { return num(s.batch.stats.peakOccupancy); }},
        {G::Batch, "batch.max_batch", kGauge,
         "configured in-flight sequence cap",
         [](S s) { return num(s.batch.maxBatch); }},
        {G::Batch, "batch.live_sequences", kGauge,
         "sequences in flight at the last publish",
         [](S s) { return num(s.batch.liveSequences); }},
        {G::Batch, "batch.kv_block_size", kGauge,
         "paged-KV tokens per block",
         [](S s) { return num(s.batch.blockSize); }},
        {G::Batch, "batch.kv_blocks_capacity", kGauge,
         "paged-KV pool capacity in blocks",
         [](S s) { return num(s.batch.blocksTotal); }},
        {G::Batch, "batch.kv_blocks_in_use", kGauge,
         "paged-KV blocks held at the last publish",
         [](S s) { return num(s.batch.blocksInUse); }},
        {G::Batch, "batch.kv_blocks_peak", kGauge,
         "paged-KV pool high watermark",
         [](S s) { return num(s.batch.peakBlocksInUse); }},
        {G::Batch, "batch.kv_prefix_shared_blocks", kGauge,
         "paged-KV blocks reused via shared prefixes",
         [](S s) { return num(s.batch.prefixSharedBlocks); }},

        {G::Pmu, "pmu.backend_perf", kGauge,
         "1 when the perf_event backend is live, 0 under soft",
         [](S s) { return s.pmuPerf ? 1.0 : 0.0; }},
        {G::Pmu, "pmu.hw_events", kGauge,
         "hardware counter events open per thread group",
         [](S s) { return num(s.pmuHwEvents); }},
        {G::Pmu, "pmu.thread_groups", kGauge,
         "per-thread perf counter groups open",
         [](S s) { return num(s.pmuThreadGroups); }},
    };
    return table;
}

const std::vector<HostPmuField>&
hostPmuFields()
{
    // Tokens are unknown at this layer; per-token metrics are derived
    // where the workload is in hand (cpullm counters).
    static const std::vector<HostPmuField> fields = {
        {"wall_seconds", kCounter, "measured wall time",
         [](P c) { return c.wallNs / 1e9; }},
        {"task_clock_seconds", kCounter,
         "measured CPU time across threads",
         [](P c) { return c.taskClockNs / 1e9; }},
        {"cycles", kCounter, "measured core cycles",
         [](P c) { return c.cycles; }},
        {"instructions", kCounter, "measured retired instructions",
         [](P c) { return c.instructions; }},
        {"llc_misses", kCounter, "measured last-level cache misses",
         [](P c) { return c.llcMisses; }},
        {"llc_references", kCounter,
         "measured last-level cache references",
         [](P c) { return c.llcReferences; }},
        {"branch_misses", kCounter, "measured mispredicted branches",
         [](P c) { return c.branchMisses; }},
        {"page_faults", kCounter, "measured minor+major page faults",
         [](P c) { return c.pageFaults; }},
        {"context_switches", kCounter, "measured context switches",
         [](P c) { return c.contextSwitches; }},
        {"ipc", kGauge, "measured instructions per cycle",
         [](P c) { return obs::deriveCounterMetrics(c, 0.0).ipc; }},
        {"llc_mpki", kGauge, "measured LLC misses per kilo-instruction",
         [](P c) { return obs::deriveCounterMetrics(c, 0.0).llcMpki; }},
        {"gbps", kGauge,
         "measured DRAM GB/s (IMC when available, else LLC-miss-line "
         "estimate)",
         [](P c) { return obs::deriveCounterMetrics(c, 0.0).gbps; }},
    };
    return fields;
}

void
recordHostStats(stats::Registry& reg)
{
    const HostSources src = readSources();
    auto record = [&reg](const std::string& name, bool counter,
                         const char* help, double v) {
        (counter ? reg.counter(name, help) : reg.scalar(name, help))
            .set(v);
    };
    for (const HostSeries& row : hostSeriesTable()) {
        if (src.has(row.group))
            record(std::string("host.") + row.name, row.counter,
                   row.help, row.read(src));
    }
    auto recordPmu = [&](const std::string& prefix,
                         const obs::pmu::PmuCounts& c) {
        for (const HostPmuField& f : hostPmuFields())
            record(prefix + f.name, f.counter, f.help, f.read(c));
    };
    if (src.pmuActive)
        recordPmu("host.pmu.", src.pmuTotal);
    for (const auto& [slot, c] : src.pmuSlots)
        recordPmu("host.pmu." + slot + ".", c);
}

void
addHostMetrics(obs::RunReport& report, const stats::Registry& host)
{
    for (const std::string& name : host.names()) {
        if (name.rfind("host.", 0) == 0 &&
            host.kind(name) == stats::StatKind::Scalar)
            report.metrics[name] = host.getScalar(name).value();
    }
}

} // namespace serve
} // namespace cpullm
