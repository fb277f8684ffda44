/**
 * @file
 * Unit checks of the benchmark's statistics helpers. Exits nonzero
 * and names the failed check on any mismatch.
 */

#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.h"

namespace {

int g_failures = 0;

void
expect(bool ok, const char* what)
{
    if (!ok) {
        std::cerr << "FAIL: " << what << '\n';
        ++g_failures;
    }
}

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(static_cast<double>(n - i)); // descending on purpose
    return v;
}

} // namespace

int
main()
{
    using perfbench::summarize;
    using perfbench::tailPick;

    // The tail is the highest nearest-rank percentile with >= 10
    // samples strictly above it.
    expect(!tailPick(0).ok, "no tail of an empty sample");
    expect(!tailPick(10).ok, "10 samples support no tail");
    expect(tailPick(11).ok && tailPick(11).index == 0,
           "11 samples: the tail is the minimum");
    expect(std::fabs(tailPick(11).percentile - 100.0 / 11.0) < 1e-12,
           "11 samples: percentile 100/11");
    expect(tailPick(1000).index == 989, "1000 samples: index 989");
    expect(std::fabs(tailPick(1000).percentile - 99.0) < 1e-12,
           "1000 samples: p99");
    expect(std::fabs(tailPick(20).percentile - 50.0) < 1e-12,
           "20 samples: p50");
    for (std::size_t n = 11; n < 3000; n += 7) {
        const perfbench::TailPick t = tailPick(n);
        const std::size_t beyond = n - 1 - t.index;
        expect(beyond == 10, "exactly 10 samples beyond the tail");
        // One rank higher would leave only 9 beyond.
        expect(100.0 * static_cast<double>(t.index + 1) /
                       static_cast<double>(n) ==
                   t.percentile,
               "percentile is the pick's nearest rank");
    }

    const perfbench::Summary s = summarize(iota(1000));
    expect(s.n == 1000 && s.p50 == 500.5, "median of 1..1000");
    expect(s.tail.ok && s.tailValue == 990.0, "p99 of 1..1000");
    const perfbench::Summary odd = summarize({3.0, 1.0, 2.0});
    expect(odd.p50 == 2.0 && !odd.tail.ok, "median of three, no tail");

    const std::vector<std::int64_t> l = perfbench::ladder(64, 256, 4);
    expect(l == std::vector<std::int64_t>({64, 128, 192, 256}),
           "ladder spans both ends evenly");

    const std::vector<int> mixed =
        perfbench::interleave(std::vector<int>{0, 1, 2, 3, 4, 5}, 4);
    expect(mixed == std::vector<int>({0, 5, 4, 3, 2, 1}),
           "interleave steps to the next coprime stride");

    const std::uint64_t a = perfbench::digestTokens(
        perfbench::kDigestSeed, {1, 2, 3});
    const std::uint64_t b = perfbench::digestTokens(
        perfbench::kDigestSeed, {1, 3, 2});
    expect(a != b, "digest depends on token order");

    if (g_failures == 0)
        std::cout << "perfbench selftest: all checks passed\n";
    return g_failures == 0 ? 0 : 1;
}
