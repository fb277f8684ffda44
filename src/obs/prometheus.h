#ifndef CPULLM_OBS_PROMETHEUS_H
#define CPULLM_OBS_PROMETHEUS_H

/**
 * @file
 * Prometheus text exposition (format version 0.0.4) of a
 * stats::Registry, plus a strict line-level parse-back validator in
 * the spirit of util/json.h's jsonValid: the telemetry self-checks
 * and the telemetry_check ctest prove every exposition we serve is
 * scrapeable without pulling in a Prometheus client library.
 *
 * Mapping: Scalar -> gauge, or `counter` with a `_total` suffix when
 * the registry marks it monotonic (stats::Registry::counter); a
 * non-finite scalar (an unmeasurable value) is left out, an absent
 * series rather than a fake zero. Distribution -> a small gauge family
 * (_mean/_min/_max/_stddev/_count); Histogram -> a native Prometheus
 * histogram with cumulative `_bucket{le="..."}` series (downsampled
 * to a bounded number of boundaries), `_sum` and `_count`. Stat
 * names are sanitized ("serve.ttft" -> prefix_serve_ttft, hostile
 * characters -> '_'), HELP text and label values are escaped.
 */

#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "stats/stats.h"

namespace cpullm {
namespace obs {

/** Content-Type an HTTP /metrics endpoint must declare. */
extern const char* const kPromContentType;

/** Exposition options. */
struct PromWriteOptions
{
    /** Prepended (with '_') to every metric name. */
    std::string prefix = "cpullm";
    /** Histogram boundaries emitted per histogram (excl. +Inf). */
    std::size_t maxHistogramBuckets = 16;
};

/**
 * Sanitize @p raw into a legal Prometheus metric name
 * ([a-zA-Z_:][a-zA-Z0-9_:]*): dots and hostile characters become
 * '_', a leading digit gains a '_' prefix. @p prefix, when
 * non-empty, is joined in front with '_'.
 */
std::string promMetricName(const std::string& raw,
                           const std::string& prefix = "");

/** Escape a label value (backslash, double-quote, newline). */
std::string promEscapeLabel(const std::string& value);

/** Emit `# HELP` (when @p help non-empty) and `# TYPE` lines. */
void writePromHeader(std::ostream& os, const std::string& name,
                     const std::string& help, const std::string& type);

/** One sample line: name{labels} value. Non-finite values emit the
 *  format's NaN/+Inf/-Inf literals. */
void writePromSample(
    std::ostream& os, const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels,
    double value);

/** Write every statistic of @p reg in exposition format 0.0.4. */
void writePrometheus(std::ostream& os, const stats::Registry& reg,
                     const PromWriteOptions& opt = {});

/** File variant; false on I/O failure. */
bool writePrometheusFile(const std::string& path,
                         const stats::Registry& reg,
                         const PromWriteOptions& opt = {});

/** @name Parse-back validation */
/// @{

/** One parsed sample line. */
struct PromSample
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> labels;
    double value = 0.0;

    /** Label value by name; "" when absent. */
    std::string label(const std::string& key) const;
};

/** A parsed exposition document. */
struct PromDoc
{
    std::vector<PromSample> samples;
    std::map<std::string, std::string> types; ///< name -> TYPE
    std::map<std::string, std::string> helps; ///< name -> HELP text

    /** First sample with @p name (and @p key == @p value when
     *  non-empty); nullptr when absent. */
    const PromSample* find(const std::string& name,
                           const std::string& key = "",
                           const std::string& value = "") const;
};

/**
 * Strict parser for exposition format 0.0.4. Checks metric/label
 * name grammar, label-value escaping, float syntax (incl. NaN/+Inf),
 * TYPE-before-samples ordering, single TYPE per metric, and for
 * every `histogram` family: cumulative bucket monotonicity, the
 * mandatory `le="+Inf"` bucket, and `_count` == the +Inf bucket.
 * On failure appends "line N: why" strings to @p errors.
 */
bool promParse(const std::string& text, PromDoc* doc,
               std::vector<std::string>* errors = nullptr);

/** promParse without keeping the document. */
bool promValid(const std::string& text,
               std::vector<std::string>* errors = nullptr);

/// @}

} // namespace obs
} // namespace cpullm

#endif // CPULLM_OBS_PROMETHEUS_H
