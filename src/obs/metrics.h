#ifndef CPULLM_OBS_METRICS_H
#define CPULLM_OBS_METRICS_H

/**
 * @file
 * Machine-readable export of a stats::Registry: JSON (one object,
 * keyed by statistic name) and CSV (one row per statistic). Scalars
 * export value/samples (kind "counter" for a monotonic one, else
 * "scalar"), distributions mean/min/max/stddev/n, and
 * histograms interpolated p50/p95/p99 quantiles plus bucket counts —
 * the serving-simulator tail-latency surface.
 */

#include <ostream>
#include <string>

#include "stats/stats.h"

namespace cpullm {
namespace obs {

/** Write @p reg as a single JSON object. */
void writeRegistryJson(std::ostream& os, const stats::Registry& reg);

/** Write @p reg as CSV (header + one row per statistic). */
void writeRegistryCsv(std::ostream& os, const stats::Registry& reg);

/** File variants; false on I/O failure. */
bool writeRegistryJsonFile(const std::string& path,
                           const stats::Registry& reg);
bool writeRegistryCsvFile(const std::string& path,
                          const stats::Registry& reg);

} // namespace obs
} // namespace cpullm

#endif // CPULLM_OBS_METRICS_H
