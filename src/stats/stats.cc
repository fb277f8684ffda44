#include "stats/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace cpullm {
namespace stats {

double
percentile(std::vector<double> values, double p)
{
    CPULLM_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 *
                        static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

void
Distribution::sample(double v)
{
    ++count_;
    if (count_ == 1) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (v - mean_);
}

void
Distribution::reset()
{
    count_ = 0;
    min_ = max_ = mean_ = m2_ = 0.0;
}

void
Distribution::merge(const Distribution& other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    const double total =
        static_cast<double>(count_ + other.count_);
    const double delta = other.mean_ - mean_;
    // Chan et al. parallel variance combine.
    m2_ += other.m2_ + delta * delta *
                           static_cast<double>(count_) *
                           static_cast<double>(other.count_) / total;
    mean_ += delta * static_cast<double>(other.count_) / total;
    count_ += other.count_;
}

double
Distribution::variance() const
{
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double
Distribution::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), buckets_(buckets, 0)
{
    CPULLM_ASSERT(hi > lo && buckets > 0, "invalid histogram bounds");
}

void
Histogram::sample(double v)
{
    ++count_;
    sum_ += v;
    if (v < lo_) {
        ++underflow_;
        return;
    }
    if (v >= hi_) {
        ++overflow_;
        return;
    }
    const double frac = (v - lo_) / (hi_ - lo_);
    auto idx = static_cast<std::size_t>(
        frac * static_cast<double>(buckets_.size()));
    if (idx >= buckets_.size())
        idx = buckets_.size() - 1;
    ++buckets_[idx];
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = underflow_ = overflow_ = 0;
    sum_ = 0.0;
}

void
Histogram::merge(const Histogram& other)
{
    CPULLM_ASSERT(lo_ == other.lo_ && hi_ == other.hi_ &&
                      buckets_.size() == other.buckets_.size(),
                  "merging histograms with different bounds");
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    sum_ += other.sum_;
}

double
Histogram::bucketLow(std::size_t i) const
{
    return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                     static_cast<double>(buckets_.size());
}

double
Histogram::bucketHigh(std::size_t i) const
{
    return bucketLow(i + 1);
}

double
Histogram::quantile(double p) const
{
    CPULLM_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
    if (count_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    const double rank = p / 100.0 * static_cast<double>(count_);
    double cum = static_cast<double>(underflow_);
    if (rank <= cum)
        return lo_;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const double n = static_cast<double>(buckets_[i]);
        if (rank <= cum + n && n > 0.0) {
            const double frac = (rank - cum) / n;
            return bucketLow(i) +
                   frac * (bucketHigh(i) - bucketLow(i));
        }
        cum += n;
    }
    return hi_;
}

Scalar&
Registry::scalar(const std::string& name, const std::string& desc)
{
    Entry& e = entries_[name];
    if (!e.scalar) {
        e.scalar = std::make_unique<Scalar>();
        if (!desc.empty())
            e.desc = desc;
    }
    return *e.scalar;
}

Scalar&
Registry::counter(const std::string& name, const std::string& desc)
{
    Scalar& s = scalar(name, desc);
    entries_[name].counter = true;
    return s;
}

Distribution&
Registry::distribution(const std::string& name, const std::string& desc)
{
    Entry& e = entries_[name];
    if (!e.dist) {
        e.dist = std::make_unique<Distribution>();
        if (!desc.empty())
            e.desc = desc;
    }
    return *e.dist;
}

Histogram&
Registry::histogram(const std::string& name, double lo, double hi,
                    std::size_t buckets, const std::string& desc)
{
    Entry& e = entries_[name];
    if (!e.hist) {
        e.hist = std::make_unique<Histogram>(lo, hi, buckets);
        if (!desc.empty())
            e.desc = desc;
    }
    return *e.hist;
}

bool
Registry::has(const std::string& name) const
{
    return entries_.count(name) != 0;
}

const Scalar&
Registry::getScalar(const std::string& name) const
{
    auto it = entries_.find(name);
    CPULLM_ASSERT(it != entries_.end() && it->second.scalar,
                  "unknown scalar stat '", name, "'");
    return *it->second.scalar;
}

const Distribution&
Registry::getDistribution(const std::string& name) const
{
    auto it = entries_.find(name);
    CPULLM_ASSERT(it != entries_.end() && it->second.dist,
                  "unknown distribution stat '", name, "'");
    return *it->second.dist;
}

const Histogram&
Registry::getHistogram(const std::string& name) const
{
    auto it = entries_.find(name);
    CPULLM_ASSERT(it != entries_.end() && it->second.hist,
                  "unknown histogram stat '", name, "'");
    return *it->second.hist;
}

const std::string&
Registry::description(const std::string& name) const
{
    auto it = entries_.find(name);
    CPULLM_ASSERT(it != entries_.end(), "unknown stat '", name, "'");
    return it->second.desc;
}

StatKind
Registry::kind(const std::string& name) const
{
    auto it = entries_.find(name);
    CPULLM_ASSERT(it != entries_.end(), "unknown stat '", name, "'");
    if (it->second.scalar)
        return StatKind::Scalar;
    if (it->second.dist)
        return StatKind::Distribution;
    CPULLM_ASSERT(it->second.hist, "empty stat entry '", name, "'");
    return StatKind::Histogram;
}

bool
Registry::isCounter(const std::string& name) const
{
    auto it = entries_.find(name);
    return it != entries_.end() && it->second.counter;
}

void
Registry::resetAll()
{
    for (auto& [name, e] : entries_) {
        if (e.scalar)
            e.scalar->reset();
        if (e.dist)
            e.dist->reset();
        if (e.hist)
            e.hist->reset();
    }
}

void
Registry::merge(const Registry& other)
{
    const auto lock = lockIfPresent();
    for (const auto& [name, oe] : other.entries_) {
        Entry& e = entries_[name];
        if (e.desc.empty())
            e.desc = oe.desc;
        e.counter = e.counter || oe.counter;
        if (oe.scalar) {
            CPULLM_ASSERT(!e.dist && !e.hist,
                          "stat kind mismatch merging '", name, "'");
            if (!e.scalar)
                e.scalar = std::make_unique<Scalar>();
            e.scalar->merge(*oe.scalar);
        } else if (oe.dist) {
            CPULLM_ASSERT(!e.scalar && !e.hist,
                          "stat kind mismatch merging '", name, "'");
            if (!e.dist)
                e.dist = std::make_unique<Distribution>();
            e.dist->merge(*oe.dist);
        } else if (oe.hist) {
            CPULLM_ASSERT(!e.scalar && !e.dist,
                          "stat kind mismatch merging '", name, "'");
            if (!e.hist) {
                e.hist = std::make_unique<Histogram>(
                    oe.hist->lo(), oe.hist->hi(),
                    oe.hist->buckets().size());
            }
            e.hist->merge(*oe.hist);
        }
    }
}

Registry
Registry::snapshot() const
{
    const auto lock = lockIfPresent();
    Registry out;
    for (const auto& [name, e] : entries_) {
        Entry& ne = out.entries_[name];
        ne.desc = e.desc;
        ne.counter = e.counter;
        if (e.scalar)
            ne.scalar = std::make_unique<Scalar>(*e.scalar);
        if (e.dist)
            ne.dist = std::make_unique<Distribution>(*e.dist);
        if (e.hist)
            ne.hist = std::make_unique<Histogram>(*e.hist);
    }
    return out;
}

void
Registry::dump(std::ostream& os) const
{
    for (const auto& [name, e] : entries_) {
        if (e.scalar) {
            os << strformat("%-48s %18s", name.c_str(),
                            formatNumber(e.scalar->value(), 6).c_str());
        } else if (e.dist) {
            os << strformat("%-48s mean=%s min=%s max=%s n=%llu",
                            name.c_str(),
                            formatNumber(e.dist->mean(), 6).c_str(),
                            formatNumber(e.dist->min(), 6).c_str(),
                            formatNumber(e.dist->max(), 6).c_str(),
                            static_cast<unsigned long long>(
                                e.dist->count()));
        } else if (e.hist) {
            os << strformat(
                "%-48s p50=%s p95=%s p99=%s n=%llu (uf=%llu of=%llu)",
                name.c_str(),
                formatNumber(e.hist->quantile(50.0), 6).c_str(),
                formatNumber(e.hist->quantile(95.0), 6).c_str(),
                formatNumber(e.hist->quantile(99.0), 6).c_str(),
                static_cast<unsigned long long>(e.hist->count()),
                static_cast<unsigned long long>(e.hist->underflow()),
                static_cast<unsigned long long>(e.hist->overflow()));
        }
        if (!e.desc.empty())
            os << "  # " << e.desc;
        os << '\n';
    }
}

std::vector<std::string>
Registry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, e] : entries_)
        out.push_back(name);
    return out;
}

} // namespace stats
} // namespace cpullm
