#ifndef CPULLM_PERFBENCH_BENCH_UTIL_H
#define CPULLM_PERFBENCH_BENCH_UTIL_H

/**
 * @file
 * Sample statistics and input generation shared by the serving
 * benchmark and its self-test. Header-only, no dependency beyond
 * util/rng.h.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/rng.h"

namespace perfbench {

/**
 * The tail percentile a sample of @p n supports: the highest
 * nearest-rank percentile with at least 10 samples beyond it. Sorted
 * index i is the 100 * (i + 1) / n percentile and has n - 1 - i
 * samples above it, so the pick is i = n - 11. Fewer than 11 samples
 * support no tail (ok == false).
 */
struct TailPick
{
    bool ok = false;
    std::size_t index = 0;   ///< into the ascending-sorted sample
    double percentile = 0.0; ///< in percent, e.g. 99.0
};

inline TailPick
tailPick(std::size_t n)
{
    constexpr std::size_t kBeyond = 10;
    TailPick t;
    if (n <= kBeyond)
        return t;
    t.ok = true;
    t.index = n - kBeyond - 1;
    t.percentile = 100.0 * static_cast<double>(n - kBeyond) /
                   static_cast<double>(n);
    return t;
}

/** Median, tail and count of one timing sample. */
struct Summary
{
    std::size_t n = 0;
    double p50 = 0.0;
    TailPick tail;
    double tailValue = 0.0;
};

inline Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    s.p50 = v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
    s.tail = tailPick(v.size());
    if (s.tail.ok)
        s.tailValue = v[s.tail.index];
    return s;
}

/** @p n integers evenly spaced over [lo, hi] (both ends included). */
inline std::vector<std::int64_t>
ladder(std::int64_t lo, std::int64_t hi, std::int64_t n)
{
    std::vector<std::int64_t> out;
    for (std::int64_t i = 0; i < n; ++i)
        out.push_back(n == 1 ? lo : lo + (hi - lo) * i / (n - 1));
    return out;
}

/** Fisher-Yates shuffle driven by @p rng. */
template <typename T>
void
shuffle(std::vector<T>& v, cpullm::Rng& rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.uniformInt(i)]);
}

/**
 * Reorder @p v so neighbours come from far apart: element i is
 * v[(i * stride) % n], choosing the nearest stride >= @p stride that
 * is coprime to n so every element appears once.
 */
template <typename T>
std::vector<T>
interleave(const std::vector<T>& v, std::size_t stride)
{
    const std::size_t n = v.size();
    while (n > 1 && std::gcd(stride, n) != 1)
        ++stride;
    std::vector<T> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(v[(i * stride) % n]);
    return out;
}

/** FNV-1a over token ids: the digest of a run's generated tokens. */
inline std::uint64_t
digestTokens(std::uint64_t h, const std::vector<std::int64_t>& tokens)
{
    for (std::int64_t t : tokens) {
        auto u = static_cast<std::uint64_t>(t);
        for (int b = 0; b < 8; ++b) {
            h ^= (u >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

} // namespace perfbench

#endif // CPULLM_PERFBENCH_BENCH_UTIL_H
