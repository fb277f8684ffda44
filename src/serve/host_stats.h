#ifndef CPULLM_SERVE_HOST_STATS_H
#define CPULLM_SERVE_HOST_STATS_H

/**
 * @file
 * The host-series table: each process-wide host counter declared once,
 * with its name under `host.`, its type (monotonic counter or gauge),
 * its help text, and a read from one snapshot of its source: util's
 * ThreadPool, gemm's attention and quantized-weight counters, obs's
 * PMU session, and the ContinuousBatcher snapshot. It lives in serve,
 * the lowest layer that sees all five.
 *
 * recordHostStats() turns the table into registry scalars, and every
 * view is generated from that registry: `/metrics` and `--prom-out`
 * (`cpullm_host_<name>`, `_total` on counters), `/stats.json`,
 * `cpullm bench`'s stat dump, and the run-report `host.*` keys
 * (addHostMetrics). Units stay in the names (`_seconds`, `_bytes`).
 */

#include <vector>

#include "obs/run_report.h"
#include "stats/stats.h"

namespace cpullm {
namespace obs {
namespace pmu {
struct PmuCounts;
} // namespace pmu
} // namespace obs

namespace serve {

/** One snapshot of every host source (defined in host_stats.cc). */
struct HostSources;

/**
 * Rows recorded together, or not at all: quant before any quantized
 * prepare, batch before the first publish, and the PMU session rows
 * while no session is active have no data.
 */
enum class HostGroup { Pool, Attn, Quant, Batch, Pmu };

/** One row of the host-series table. */
struct HostSeries
{
    HostGroup group;
    const char* name; ///< registry key below "host." ("pool.steals")
    bool counter;     ///< monotonic: Prometheus `counter` + `_total`
    const char* help;
    double (*read)(const HostSources&);
};

/** One PMU field, read from one measured interval. */
struct HostPmuField
{
    const char* name; ///< "cycles" -> host.pmu[.<slot>].cycles
    bool counter;
    const char* help;
    double (*read)(const obs::pmu::PmuCounts&);
};

/**
 * One row per field of ThreadPool::Stats, gemm::AttnStats,
 * gemm::QuantStats and HostBatchSnapshot, the derived
 * quant.bytes_ratio and batch.mean_occupancy, and the PMU session's
 * backend_perf, hw_events and thread_groups.
 */
const std::vector<HostSeries>& hostSeriesTable();

/**
 * The PMU fields, applied to the live session total (host.pmu.<field>,
 * while a session is active) and to each accumulated scope slot
 * (host.pmu.<slot>.<field>). A field the backend cannot measure reads
 * NaN: null in JSON, absent from /metrics.
 */
const std::vector<HostPmuField>& hostPmuFields();

/**
 * Snapshot every source once and record each row with data as a
 * `host.<name>` scalar in @p reg (Registry::counter for counter rows).
 * Safe to call from any thread while the sources are written.
 */
void recordHostStats(stats::Registry& reg);

/** Copy every `host.*` scalar of @p host into @p report's metrics. */
void addHostMetrics(obs::RunReport& report, const stats::Registry& host);

} // namespace serve
} // namespace cpullm

#endif // CPULLM_SERVE_HOST_STATS_H
