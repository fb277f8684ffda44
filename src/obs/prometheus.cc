#include "obs/prometheus.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>

#include "util/logging.h"
#include "util/string_util.h"

namespace cpullm {
namespace obs {

const char* const kPromContentType =
    "text/plain; version=0.0.4; charset=utf-8";

namespace {

bool
nameStartChar(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
}

bool
nameChar(char c)
{
    return nameStartChar(c) ||
           std::isdigit(static_cast<unsigned char>(c));
}

bool
labelStartChar(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
labelChar(char c)
{
    return labelStartChar(c) ||
           std::isdigit(static_cast<unsigned char>(c));
}

std::string
promValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    return strformat("%.9g", v);
}

/** Escape HELP text (backslash and line-feed, per the format spec). */
std::string
escapeHelp(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

} // namespace

std::string
promMetricName(const std::string& raw, const std::string& prefix)
{
    std::string name;
    name.reserve(raw.size());
    for (char c : raw)
        name += nameChar(c) ? c : '_';
    if (name.empty())
        name = "_";
    if (!nameStartChar(name[0]))
        name.insert(name.begin(), '_');
    if (prefix.empty())
        return name;
    return prefix + "_" + name;
}

std::string
promEscapeLabel(const std::string& value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

void
writePromHeader(std::ostream& os, const std::string& name,
                const std::string& help, const std::string& type)
{
    if (!help.empty())
        os << "# HELP " << name << ' ' << escapeHelp(help) << '\n';
    os << "# TYPE " << name << ' ' << type << '\n';
}

void
writePromSample(
    std::ostream& os, const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels,
    double value)
{
    os << name;
    if (!labels.empty()) {
        os << '{';
        bool first = true;
        for (const auto& [k, v] : labels) {
            if (!first)
                os << ',';
            first = false;
            os << k << "=\"" << promEscapeLabel(v) << '"';
        }
        os << '}';
    }
    os << ' ' << promValue(value) << '\n';
}

void
writePrometheus(std::ostream& os, const stats::Registry& reg,
                const PromWriteOptions& opt)
{
    for (const auto& name : reg.names()) {
        const std::string base = promMetricName(name, opt.prefix);
        const std::string& desc = reg.description(name);
        switch (reg.kind(name)) {
          case stats::StatKind::Scalar: {
            const double v = reg.getScalar(name).value();
            if (!std::isfinite(v))
                break;
            if (reg.isCounter(name)) {
                writePromHeader(os, base + "_total", desc, "counter");
                writePromSample(os, base + "_total", {}, v);
            } else {
                writePromHeader(os, base, desc, "gauge");
                writePromSample(os, base, {}, v);
            }
            break;
          }
          case stats::StatKind::Distribution: {
            const auto& d = reg.getDistribution(name);
            const std::pair<const char*, double> parts[] = {
                {"_mean", d.mean()},
                {"_min", d.min()},
                {"_max", d.max()},
                {"_stddev", d.stddev()},
                {"_count", static_cast<double>(d.count())},
            };
            for (const auto& [suffix, value] : parts) {
                writePromHeader(os, base + suffix,
                                suffix == std::string("_mean")
                                    ? desc
                                    : std::string(),
                                "gauge");
                writePromSample(os, base + suffix, {}, value);
            }
            break;
          }
          case stats::StatKind::Histogram: {
            const auto& h = reg.getHistogram(name);
            writePromHeader(os, base, desc, "histogram");
            const std::size_t nb = h.buckets().size();
            const std::size_t step =
                std::max<std::size_t>(
                    1, (nb + opt.maxHistogramBuckets - 1) /
                           opt.maxHistogramBuckets);
            // `le` is inclusive-cumulative; underflow samples (< lo)
            // are below every emitted boundary, overflow samples only
            // land in +Inf.
            std::uint64_t cum = h.underflow();
            for (std::size_t i = 0; i < nb; ++i) {
                cum += h.buckets()[i];
                if ((i + 1) % step == 0 || i + 1 == nb) {
                    writePromSample(
                        os, base + "_bucket",
                        {{"le", strformat("%.9g", h.bucketHigh(i))}},
                        static_cast<double>(cum));
                }
            }
            writePromSample(os, base + "_bucket", {{"le", "+Inf"}},
                            static_cast<double>(h.count()));
            writePromSample(os, base + "_sum", {}, h.sum());
            writePromSample(os, base + "_count", {},
                            static_cast<double>(h.count()));
            break;
          }
        }
    }
}

bool
writePrometheusFile(const std::string& path,
                    const stats::Registry& reg,
                    const PromWriteOptions& opt)
{
    std::ofstream ofs(path);
    if (!ofs) {
        warn("could not open '", path, "' for writing");
        return false;
    }
    writePrometheus(ofs, reg, opt);
    return static_cast<bool>(ofs);
}

std::string
PromSample::label(const std::string& key) const
{
    for (const auto& [k, v] : labels) {
        if (k == key)
            return v;
    }
    return "";
}

const PromSample*
PromDoc::find(const std::string& name, const std::string& key,
              const std::string& value) const
{
    for (const auto& s : samples) {
        if (s.name != name)
            continue;
        if (!key.empty() && s.label(key) != value)
            continue;
        return &s;
    }
    return nullptr;
}

namespace {

/** Line-level recursive-descent parser state. */
struct LineParser
{
    const std::string& line;
    std::size_t pos = 0;

    explicit LineParser(const std::string& l) : line(l) {}

    bool done() const { return pos >= line.size(); }
    char peek() const { return done() ? '\0' : line[pos]; }

    void
    skipSpace()
    {
        while (!done() && (line[pos] == ' ' || line[pos] == '\t'))
            ++pos;
    }

    bool
    readName(std::string* out, bool label_grammar)
    {
        const std::size_t start = pos;
        auto first = label_grammar ? labelStartChar : nameStartChar;
        auto rest = label_grammar ? labelChar : nameChar;
        if (done() || !first(line[pos]))
            return false;
        ++pos;
        while (!done() && rest(line[pos]))
            ++pos;
        *out = line.substr(start, pos - start);
        return true;
    }

    /** Quoted, escaped label value. */
    bool
    readLabelValue(std::string* out)
    {
        if (peek() != '"')
            return false;
        ++pos;
        out->clear();
        while (!done() && line[pos] != '"') {
            char c = line[pos];
            if (c == '\\') {
                ++pos;
                if (done())
                    return false;
                const char e = line[pos];
                if (e == '\\')
                    c = '\\';
                else if (e == '"')
                    c = '"';
                else if (e == 'n')
                    c = '\n';
                else
                    return false; // unknown escape
            }
            *out += c;
            ++pos;
        }
        if (done())
            return false; // unterminated
        ++pos;            // closing quote
        return true;
    }

    bool
    readValue(double* out)
    {
        const std::size_t start = pos;
        while (!done() && line[pos] != ' ' && line[pos] != '\t')
            ++pos;
        const std::string tok = line.substr(start, pos - start);
        if (tok.empty())
            return false;
        if (tok == "NaN") {
            *out = std::numeric_limits<double>::quiet_NaN();
            return true;
        }
        if (tok == "+Inf" || tok == "Inf") {
            *out = std::numeric_limits<double>::infinity();
            return true;
        }
        if (tok == "-Inf") {
            *out = -std::numeric_limits<double>::infinity();
            return true;
        }
        char* end = nullptr;
        *out = std::strtod(tok.c_str(), &end);
        return end && *end == '\0';
    }
};

void
addError(std::vector<std::string>* errors, std::size_t lineno,
         const std::string& msg)
{
    if (errors)
        errors->push_back(strformat("line %zu: %s", lineno,
                                    msg.c_str()));
}

/** Label set minus `le`, serialized as a histogram-series group key. */
std::string
groupKey(const PromSample& s)
{
    std::string key;
    for (const auto& [k, v] : s.labels) {
        if (k != "le")
            key += k + "=" + v + ";";
    }
    return key;
}

} // namespace

bool
promParse(const std::string& text, PromDoc* doc,
          std::vector<std::string>* errors)
{
    bool ok = true;
    std::set<std::string> sampled; // metric names with samples seen
    std::size_t lineno = 0;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            if (start == text.size())
                break;
            end = text.size();
        }
        std::string line = text.substr(start, end - start);
        start = end + 1;
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;

        if (line[0] == '#') {
            const bool is_help = startsWith(line, "# HELP ");
            const bool is_type = startsWith(line, "# TYPE ");
            if (!is_help && !is_type)
                continue; // plain comment
            LineParser p(line);
            p.pos = 7;
            std::string name;
            if (!p.readName(&name, /*label_grammar=*/false)) {
                addError(errors, lineno, "bad metric name in " +
                                             line.substr(0, 6));
                ok = false;
                continue;
            }
            if (is_help) {
                p.skipSpace();
                doc->helps[name] = line.substr(p.pos);
                continue;
            }
            p.skipSpace();
            std::string type;
            p.readName(&type, /*label_grammar=*/true);
            static const std::set<std::string> kTypes = {
                "counter", "gauge", "histogram", "summary",
                "untyped"};
            if (!kTypes.count(type) || !p.done()) {
                addError(errors, lineno,
                         "bad TYPE '" + type + "' for " + name);
                ok = false;
                continue;
            }
            if (doc->types.count(name)) {
                addError(errors, lineno,
                         "duplicate TYPE for " + name);
                ok = false;
                continue;
            }
            // TYPE must precede every sample of its family
            // (including the _bucket/_sum/_count series).
            for (const char* suffix :
                 {"", "_bucket", "_sum", "_count"}) {
                if (sampled.count(name + suffix)) {
                    addError(errors, lineno,
                             "TYPE for " + name +
                                 " after its samples");
                    ok = false;
                }
            }
            doc->types[name] = type;
            continue;
        }

        // Sample line: name[{labels}] value [timestamp]
        LineParser p(line);
        PromSample s;
        if (!p.readName(&s.name, /*label_grammar=*/false)) {
            addError(errors, lineno, "bad metric name");
            ok = false;
            continue;
        }
        if (p.peek() == '{') {
            ++p.pos;
            bool bad = false;
            while (p.peek() != '}') {
                std::string k, v;
                if (!p.readName(&k, /*label_grammar=*/true) ||
                    p.peek() != '=') {
                    bad = true;
                    break;
                }
                ++p.pos;
                if (!p.readLabelValue(&v)) {
                    bad = true;
                    break;
                }
                s.labels.emplace_back(std::move(k), std::move(v));
                if (p.peek() == ',')
                    ++p.pos; // trailing comma is legal
                else if (p.peek() != '}') {
                    bad = true;
                    break;
                }
            }
            if (bad || p.peek() != '}') {
                addError(errors, lineno, "bad label set");
                ok = false;
                continue;
            }
            ++p.pos;
        }
        p.skipSpace();
        if (!p.readValue(&s.value)) {
            addError(errors, lineno, "bad sample value");
            ok = false;
            continue;
        }
        p.skipSpace();
        if (!p.done()) {
            // Optional timestamp: integer milliseconds.
            std::size_t ts_start = p.pos;
            if (p.peek() == '-')
                ++p.pos;
            while (!p.done() &&
                   std::isdigit(static_cast<unsigned char>(p.peek())))
                ++p.pos;
            p.skipSpace();
            if (p.pos == ts_start || !p.done()) {
                addError(errors, lineno, "trailing garbage");
                ok = false;
                continue;
            }
        }
        sampled.insert(s.name);
        doc->samples.push_back(std::move(s));
    }

    // Histogram-family invariants.
    for (const auto& [name, type] : doc->types) {
        if (type != "histogram")
            continue;
        // series group (labels minus le) -> le-sorted buckets
        std::map<std::string,
                 std::vector<std::pair<double, double>>> groups;
        for (const auto& s : doc->samples) {
            if (s.name != name + "_bucket")
                continue;
            const std::string le = s.label("le");
            double bound;
            if (le == "+Inf") {
                bound = std::numeric_limits<double>::infinity();
            } else {
                char* end = nullptr;
                bound = std::strtod(le.c_str(), &end);
                if (le.empty() || !end || *end != '\0') {
                    addError(errors, 0,
                             name + "_bucket has bad le '" + le +
                                 "'");
                    ok = false;
                    continue;
                }
            }
            groups[groupKey(s)].emplace_back(bound, s.value);
        }
        if (groups.empty()) {
            addError(errors, 0,
                     "histogram " + name + " has no _bucket series");
            ok = false;
            continue;
        }
        for (auto& [key, buckets] : groups) {
            std::sort(buckets.begin(), buckets.end());
            bool has_inf = false;
            double prev = -1.0;
            for (const auto& [bound, cum] : buckets) {
                if (std::isinf(bound))
                    has_inf = true;
                if (cum < prev) {
                    addError(errors, 0,
                             "histogram " + name +
                                 " buckets not monotone");
                    ok = false;
                    break;
                }
                prev = cum;
            }
            if (!has_inf) {
                addError(errors, 0,
                         "histogram " + name +
                             " missing le=\"+Inf\" bucket");
                ok = false;
            } else {
                const PromSample* count =
                    doc->find(name + "_count");
                if (count &&
                    count->value != buckets.back().second) {
                    addError(errors, 0,
                             "histogram " + name +
                                 " _count != +Inf bucket");
                    ok = false;
                }
            }
        }
    }
    return ok;
}

bool
promValid(const std::string& text, std::vector<std::string>* errors)
{
    PromDoc doc;
    return promParse(text, &doc, errors);
}

} // namespace obs
} // namespace cpullm
