#ifndef CPULLM_STATS_STATS_H
#define CPULLM_STATS_STATS_H

/**
 * @file
 * Lightweight statistics package in the spirit of gem5's Stats. A
 * Registry owns named statistics; simulation components register
 * scalars/distributions and the harness dumps them as a table.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace cpullm {
namespace stats {

/**
 * Linearly interpolated percentile (0-100) over raw samples; the one
 * definition shared by the serving simulator, the metrics exporters,
 * and the run reports. An empty sample set has no percentiles:
 * returns quiet NaN (JSON writers must map it to null, see
 * obs::writeRegistryJson).
 */
double percentile(std::vector<double> values, double p);

/** A named scalar accumulator (sum; also tracks sample count). */
class Scalar
{
  public:
    Scalar() = default;

    Scalar& operator+=(double v)
    {
        sum_ += v;
        ++samples_;
        return *this;
    }

    void set(double v)
    {
        sum_ = v;
        samples_ = 1;
    }

    void reset()
    {
        sum_ = 0.0;
        samples_ = 0;
    }

    /** Fold another accumulator in (sum and sample counts add). */
    void merge(const Scalar& other)
    {
        sum_ += other.sum_;
        samples_ += other.samples_;
    }

    double value() const { return sum_; }
    std::uint64_t samples() const { return samples_; }
    double mean() const { return samples_ ? sum_ / samples_ : 0.0; }

  private:
    double sum_ = 0.0;
    std::uint64_t samples_ = 0;
};

/** Running min/max/mean/variance (Welford) over samples. */
class Distribution
{
  public:
    void sample(double v);
    void reset();

    /** Fold another distribution in (parallel Welford combine). */
    void merge(const Distribution& other);

    std::uint64_t count() const { return count_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return mean_; }
    double variance() const;
    double stddev() const;

  private:
    std::uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/** Fixed-bucket histogram over [lo, hi) with overflow/underflow bins. */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    void sample(double v);
    void reset();

    /** Fold another histogram in; bounds must match (panic if not). */
    void merge(const Histogram& other);

    std::uint64_t count() const { return count_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    const std::vector<std::uint64_t>& buckets() const { return buckets_; }
    double bucketLow(std::size_t i) const;
    double bucketHigh(std::size_t i) const;

    double lo() const { return lo_; }
    double hi() const { return hi_; }

    /** Sum of all samples (incl. under/overflow), for mean and the
     *  Prometheus `_sum` series. */
    double sum() const { return sum_; }
    double mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /**
     * Estimated percentile (0-100), linearly interpolated within the
     * containing bucket. Underflow samples clamp to lo(), overflow
     * samples to hi(). An empty histogram has no quantiles: returns
     * quiet NaN (JSON writers must map it to null).
     */
    double quantile(double p) const;

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    double sum_ = 0.0;
};

/** Which concrete statistic a Registry entry holds. */
enum class StatKind { Scalar, Distribution, Histogram };

/**
 * Owns named statistics. Names are hierarchical, dot-separated
 * ("engine.decode.tokens"); dump() emits them in sorted order. A
 * scalar registered through counter() is marked monotonic, so the
 * exporters can type it as a counter (Prometheus `counter` with
 * `_total`) instead of a gauge; the mark survives merge() and
 * snapshot().
 *
 * Threading: recording through the references returned by
 * scalar()/distribution()/histogram() is NOT synchronized — each
 * simulation thread records into its own shard registry. The
 * supported concurrent pattern is shard-and-merge: merge() and
 * snapshot() serialize on an internal mutex, so a reader (e.g. the
 * telemetry HTTP endpoint) takes snapshot() copies while writer
 * threads fold their shards in via merge().
 */
class Registry
{
  public:
    /** Register (or fetch) a scalar by name. */
    Scalar& scalar(const std::string& name, const std::string& desc = "");

    /**
     * Register (or fetch) a scalar and mark it a monotonic counter:
     * its value only grows over the registry's lifetime.
     */
    Scalar& counter(const std::string& name, const std::string& desc = "");

    /** Register (or fetch) a distribution by name. */
    Distribution& distribution(const std::string& name,
                               const std::string& desc = "");

    /**
     * Register (or fetch) a histogram by name. Bounds are fixed at
     * first registration; later calls with the same name return the
     * existing histogram and ignore the bounds.
     */
    Histogram& histogram(const std::string& name, double lo, double hi,
                         std::size_t buckets,
                         const std::string& desc = "");

    /** True if a statistic with this name exists. */
    bool has(const std::string& name) const;

    /** Look up a scalar; panics if absent (internal error). */
    const Scalar& getScalar(const std::string& name) const;

    /** Look up a distribution; panics if absent (internal error). */
    const Distribution& getDistribution(const std::string& name) const;

    /** Look up a histogram; panics if absent (internal error). */
    const Histogram& getHistogram(const std::string& name) const;

    /** Description registered with a statistic ("" if none). */
    const std::string& description(const std::string& name) const;

    /** Kind of a registered statistic; panics if absent. */
    StatKind kind(const std::string& name) const;

    /** True for a scalar registered through counter(). */
    bool isCounter(const std::string& name) const;

    /** Reset all statistics to zero. */
    void resetAll();

    /**
     * Fold every statistic of @p other into this registry, creating
     * entries (with @p other's descriptions) where absent. Same-name
     * entries must hold the same statistic kind — this is how
     * per-thread registries combine after a parallelFor sweep.
     * Serializes with snapshot() on this registry's mutex (@p other
     * is read unlocked: it is the caller's thread-local shard).
     */
    void merge(const Registry& other);

    /**
     * Deep copy of every statistic, taken under the registry mutex —
     * the read side of the shard-and-merge pattern. The copy is
     * private to the caller and safe to read while writers keep
     * merging into this registry.
     */
    Registry snapshot() const;

    /** Emit "name value description" lines, sorted by name. */
    void dump(std::ostream& os) const;

    /** Names in sorted order. */
    std::vector<std::string> names() const;

  private:
    struct Entry
    {
        std::string desc;
        bool counter = false;
        std::unique_ptr<Scalar> scalar;
        std::unique_ptr<Distribution> dist;
        std::unique_ptr<Histogram> hist;
    };

    std::map<std::string, Entry> entries_;
    /** Guards merge()/snapshot(); heap-allocated so the registry
     *  stays movable (null after a move — see lockIfPresent()). */
    mutable std::unique_ptr<std::mutex> mu_ =
        std::make_unique<std::mutex>();

    std::unique_lock<std::mutex> lockIfPresent() const
    {
        return mu_ ? std::unique_lock<std::mutex>(*mu_)
                   : std::unique_lock<std::mutex>();
    }
};

} // namespace stats
} // namespace cpullm

#endif // CPULLM_STATS_STATS_H
