#include "obs/metrics.h"

#include <cmath>
#include <fstream>

#include "gemm/attention.h"
#include "gemm/packed_weights.h"
#include "obs/counters.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace cpullm {
namespace obs {

void
writeRegistryJson(std::ostream& os, const stats::Registry& reg)
{
    os << '{';
    bool first = true;
    for (const auto& name : reg.names()) {
        if (!first)
            os << ',';
        first = false;
        os << jsonQuote(name) << ":{";
        switch (reg.kind(name)) {
          case stats::StatKind::Scalar: {
            // Counter ratios with a zero denominator (IPC with 0
            // cycles, MPKI with 0 instructions) are stored as NaN;
            // jsonNumber maps non-finite to null so the document
            // stays parseable, matching the histogram-quantile
            // convention below.
            const auto& s = reg.getScalar(name);
            os << strformat("\"kind\":\"scalar\",\"value\":%s,"
                            "\"samples\":%llu",
                            jsonNumber(s.value()).c_str(),
                            static_cast<unsigned long long>(
                                s.samples()));
            break;
          }
          case stats::StatKind::Distribution: {
            const auto& d = reg.getDistribution(name);
            os << strformat(
                "\"kind\":\"distribution\",\"mean\":%s,"
                "\"min\":%s,\"max\":%s,\"stddev\":%s,"
                "\"n\":%llu",
                jsonNumber(d.mean()).c_str(),
                jsonNumber(d.min()).c_str(),
                jsonNumber(d.max()).c_str(),
                jsonNumber(d.stddev()).c_str(),
                static_cast<unsigned long long>(d.count()));
            break;
          }
          case stats::StatKind::Histogram: {
            // Quantiles of an empty histogram are NaN; jsonNumber
            // turns them into null so the document stays parseable.
            const auto& h = reg.getHistogram(name);
            os << strformat(
                "\"kind\":\"histogram\",\"p50\":%s,\"p95\":%s,"
                "\"p99\":%s,\"sum\":%s,\"n\":%llu,"
                "\"underflow\":%llu,\"overflow\":%llu",
                jsonNumber(h.quantile(50.0)).c_str(),
                jsonNumber(h.quantile(95.0)).c_str(),
                jsonNumber(h.quantile(99.0)).c_str(),
                jsonNumber(h.sum()).c_str(),
                static_cast<unsigned long long>(h.count()),
                static_cast<unsigned long long>(h.underflow()),
                static_cast<unsigned long long>(h.overflow()));
            break;
          }
        }
        const std::string& desc = reg.description(name);
        if (!desc.empty())
            os << ",\"desc\":" << jsonQuote(desc);
        os << '}';
    }
    os << '}';
}

void
writeRegistryCsv(std::ostream& os, const stats::Registry& reg)
{
    CsvWriter csv({"name", "kind", "value", "mean", "min", "max",
                   "p50", "p95", "p99", "n", "desc"});
    // Empty cells, not "nan", for unavailable values: empty
    // quantiles, and counter ratios whose denominator was zero.
    auto cell = [](double v) {
        return std::isfinite(v) ? formatNumber(v, 9) : std::string();
    };
    for (const auto& name : reg.names()) {
        std::vector<std::string> row(11);
        row[0] = name;
        row[10] = reg.description(name);
        switch (reg.kind(name)) {
          case stats::StatKind::Scalar: {
            const auto& s = reg.getScalar(name);
            row[1] = "scalar";
            row[2] = cell(s.value());
            row[9] = strformat(
                "%llu",
                static_cast<unsigned long long>(s.samples()));
            break;
          }
          case stats::StatKind::Distribution: {
            const auto& d = reg.getDistribution(name);
            row[1] = "distribution";
            row[3] = cell(d.mean());
            row[4] = cell(d.min());
            row[5] = cell(d.max());
            row[9] = strformat(
                "%llu",
                static_cast<unsigned long long>(d.count()));
            break;
          }
          case stats::StatKind::Histogram: {
            const auto& h = reg.getHistogram(name);
            row[1] = "histogram";
            row[6] = cell(h.quantile(50.0));
            row[7] = cell(h.quantile(95.0));
            row[8] = cell(h.quantile(99.0));
            row[9] = strformat(
                "%llu",
                static_cast<unsigned long long>(h.count()));
            break;
          }
        }
        csv.addRow(std::move(row));
    }
    csv.write(os);
}

namespace {

template <typename WriteFn>
bool
writeFile(const std::string& path, WriteFn&& fn)
{
    std::ofstream ofs(path);
    if (!ofs) {
        warn("could not open '", path, "' for writing");
        return false;
    }
    fn(ofs);
    return static_cast<bool>(ofs);
}

} // namespace

bool
writeRegistryJsonFile(const std::string& path,
                      const stats::Registry& reg)
{
    return writeFile(path,
                     [&](std::ostream& os) {
                         writeRegistryJson(os, reg);
                     });
}

bool
writeRegistryCsvFile(const std::string& path,
                     const stats::Registry& reg)
{
    return writeFile(path,
                     [&](std::ostream& os) {
                         writeRegistryCsv(os, reg);
                     });
}

void
recordHostPoolStats(stats::Registry& reg)
{
    const ThreadPool::Stats s = ThreadPool::instance().stats();
    auto set = [&reg](const char* name, const char* desc,
                      std::uint64_t v) {
        reg.scalar(name, desc).set(static_cast<double>(v));
    };
    set("host.pool.size", "persistent host worker threads",
        s.poolSize);
    set("host.pool.parallel_ops",
        "parallelFor calls executed on the pool", s.parallelOps);
    set("host.pool.serial_ops",
        "parallelFor calls that ran serial (small range or "
        "single-thread cap)",
        s.serialOps);
    set("host.pool.inline_ops",
        "nested parallelFor calls inlined on a pool thread",
        s.inlineOps);
    set("host.pool.tasks", "loop indices executed via the pool",
        s.tasks);
    set("host.pool.chunks", "work chunks dealt to worker deques",
        s.chunks);
    set("host.pool.steals", "chunks stolen from another worker",
        s.steals);
}

void
recordHostAttnStats(stats::Registry& reg)
{
    const gemm::AttnStats s = gemm::attnStats();
    auto set = [&reg](const char* name, const char* desc,
                      std::uint64_t v) {
        reg.scalar(name, desc).set(static_cast<double>(v));
    };
    set("host.attn.decode_calls",
        "fused attention calls whose slots all have m == 1",
        s.decodeCalls);
    set("host.attn.prefill_calls",
        "fused attention calls whose slots all have m > 1",
        s.prefillCalls);
    set("host.attn.tasks", "(sequence x kv-head) attention grid tasks",
        s.tasks);
    set("host.attn.span_rows", "K/V rows streamed across all tasks",
        s.spanRows);
    set("host.attn.scratch_allocs",
        "per-thread attention scratch growths (0 in steady state)",
        s.scratchAllocs);
}

void
recordHostQuantStats(stats::Registry& reg)
{
    const gemm::QuantStats s = gemm::quantStats();
    if (s.tensors == 0)
        return;
    auto set = [&reg](const char* name, const char* desc, double v) {
        reg.scalar(name, desc).set(v);
    };
    set("host.quant.tensors", "weight tensors quantized group-wise",
        static_cast<double>(s.tensors));
    set("host.quant.tensors_i4",
        "of which nibble-packed INT4 (rest INT8)",
        static_cast<double>(s.tensorsI4));
    set("host.quant.packed_bytes",
        "quantized weight bytes resident (codes + scales)",
        static_cast<double>(s.packedBytes));
    set("host.quant.native_bytes",
        "packed BF16 tile bytes the quantized forms replace",
        static_cast<double>(s.nativeBytes));
    set("host.quant.bytes_ratio",
        "packed_bytes / native_bytes (lower is better)",
        s.nativeBytes > 0 ? static_cast<double>(s.packedBytes) /
                                static_cast<double>(s.nativeBytes)
                          : std::nan(""));
    set("host.quant.gemm_calls",
        "fused-dequant GEMM calls: every INT8 call, INT4 m > 1",
        static_cast<double>(s.gemmCalls));
    set("host.quant.gemv_calls",
        "fused INT4 decode GEMV calls (m == 1)",
        static_cast<double>(s.gemvCalls));
    set("host.quant.bytes_streamed",
        "packed weight bytes streamed by the fused kernels",
        static_cast<double>(s.bytesStreamed));
    set("host.quant.max_abs_err",
        "worst per-weight dequantization error",
        s.maxAbsErr);
    set("host.quant.rms_err",
        "RMS dequantization error over all quantized weights",
        s.rmsErr);
}

void
recordHostPmuStats(stats::Registry& reg)
{
    pmu::Session& session = pmu::Session::instance();
    const std::vector<std::string> slots = session.slotNames();
    if (!session.active() && slots.empty())
        return;
    auto set = [&reg](const std::string& name, const char* desc,
                      double v) {
        reg.scalar(name, desc).set(v);
    };
    set("host.pmu.backend_perf",
        "1 when the perf_event backend is live, 0 under soft",
        session.backend() == pmu::Backend::Perf ? 1.0 : 0.0);
    set("host.pmu.hw_events",
        "hardware counter events open per thread group",
        static_cast<double>(session.hardwareEventsOpen()));
    set("host.pmu.thread_groups",
        "per-thread perf counter groups open",
        static_cast<double>(session.threadGroups()));
    for (const std::string& slot : slots) {
        const pmu::PmuCounts c = session.slot(slot);
        const std::string p = "host.pmu." + slot + ".";
        set(p + "wall_ms", "measured scope wall time (ms)",
            c.wallNs / 1e6);
        set(p + "task_clock_ms",
            "measured CPU time across threads (ms)",
            c.taskClockNs / 1e6);
        set(p + "cycles", "measured core cycles", c.cycles);
        set(p + "instructions", "measured retired instructions",
            c.instructions);
        set(p + "llc_misses", "measured last-level cache misses",
            c.llcMisses);
        set(p + "llc_references",
            "measured last-level cache references", c.llcReferences);
        set(p + "branch_misses", "measured mispredicted branches",
            c.branchMisses);
        set(p + "page_faults", "measured minor+major page faults",
            c.pageFaults);
        set(p + "context_switches", "measured context switches",
            c.contextSwitches);
        // Tokens are unknown at this layer; per-token metrics are
        // derived where the workload is in hand (cpullm counters).
        const CounterMetrics m = deriveCounterMetrics(c, 0.0);
        set(p + "ipc", "measured instructions per cycle", m.ipc);
        set(p + "llc_mpki",
            "measured LLC misses per kilo-instruction", m.llcMpki);
        set(p + "gbps",
            "measured DRAM GB/s (IMC when available, else "
            "LLC-miss-line estimate)",
            m.gbps);
    }
}

} // namespace obs
} // namespace cpullm
