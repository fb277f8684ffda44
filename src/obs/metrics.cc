#include "obs/metrics.h"

#include <cmath>
#include <fstream>

#include "util/csv.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/string_util.h"

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
            os << strformat("\"kind\":\"%s\",\"value\":%s,"
                            "\"samples\":%llu",
                            reg.isCounter(name) ? "counter" : "scalar",
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
            row[1] = reg.isCounter(name) ? "counter" : "scalar";
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

} // namespace obs
} // namespace cpullm
