/**
 * @file
 * Overhead guard for the sampling profiler: the same functional
 * inference workload is executed with the profiler off and with it
 * sampling at 97 Hz, interleaved, and the minimum process-CPU-time
 * per arm is compared. The profiler's cost is a SIGPROF delivery plus
 * a bounded memcpy per sample — at 97 Hz that must stay within a few
 * percent of the unprofiled run, and the ctest wired to this binary
 * fails the build when it does not.
 *
 * CPU time (CLOCK_PROCESS_CPUTIME_ID) is compared instead of wall
 * time: the overhead being bounded is compute the handler steals, and
 * CPU time is robust against scheduler noise on shared CI runners.
 * Min-of-R discards interference spikes on both arms alike.
 *
 * Usage: bench_profiler_overhead [--quick] [--reps N] [--tol X]
 * Exit codes: 0 within tolerance, 1 over, 2 usage error.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <limits>
#include <string>

#include "engine/inference_engine.h"
#include "hw/platform.h"
#include "model/spec.h"
#include "obs/profiler.h"
#include "perf/workload.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_registry.h"

using namespace cpullm;

namespace {

/** Tolerated on/off CPU-time ratio. Sanitizer builds intercept every
 *  signal delivery, so the handler costs far more than in production
 *  code; the guard loosens rather than testing the sanitizer. */
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr double kDefaultTol = 1.10;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr double kDefaultTol = 1.10;
#else
constexpr double kDefaultTol = 1.03;
#endif
#else
constexpr double kDefaultTol = 1.03;
#endif

double
cpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[noreturn]] void
usageError(const std::string& msg)
{
    std::cerr << "bench_profiler_overhead: " << msg << "\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    int reps = 9;
    double tol = kDefaultTol;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("missing value for " + a);
            return argv[++i];
        };
        if (a == "--quick") {
            reps = 5;
        } else if (a == "--reps") {
            const std::string v = value();
            std::int64_t n = 0;
            if (!parseInt(v, &n) || n < 1 ||
                n > std::numeric_limits<int>::max())
                usageError("--reps expects a positive integer, got '" +
                           v + "'");
            reps = static_cast<int>(n);
        } else if (a == "--tol") {
            const std::string v = value();
            if (!parseFinite(v, &tol) || tol <= 0.0)
                usageError("--tol expects a finite positive ratio, "
                           "got '" + v + "'");
        } else {
            usageError("unknown flag '" + a + "'");
        }
    }

    threadreg::registerCurrentThread("main");
    const auto platform = hw::sprDefaultPlatform();
    const auto spec = model::modelByName("tiny");
    perf::Workload w;
    w.batch = 1;
    w.promptLen = 32;
    w.genLen = 32;
    engine::CpuInferenceEngine eng(
        platform, spec, engine::ExecutionMode::FunctionalAndTiming);

    auto workload = [&] { (void)eng.infer(w); };

    // Warmup: weight packing, pool spin-up, page faults.
    workload();
    workload();

    obs::prof::Profiler& prof = obs::prof::Profiler::instance();
    obs::prof::Options popt;
    popt.hz = 97.0;

    double min_off = 1e300, min_on = 1e300;
    for (int r = 0; r < reps; ++r) {
        double t0 = cpuSeconds();
        workload();
        const double off = cpuSeconds() - t0;
        if (off < min_off)
            min_off = off;

        if (!prof.start(popt))
            CPULLM_FATAL("cannot start the sampling profiler");
        t0 = cpuSeconds();
        workload();
        const double on = cpuSeconds() - t0;
        prof.stop();
        if (on < min_on)
            min_on = on;
    }
    const obs::prof::FoldedProfile p = prof.collect();

    const double ratio = min_on / std::max(1e-12, min_off);
    std::cout << strformat(
        "profiler overhead: off %.3f ms, on %.3f ms @ %.0f Hz "
        "(%llu samples), ratio %.4f, tolerance %.2f\n",
        min_off * 1e3, min_on * 1e3, popt.hz,
        static_cast<unsigned long long>(p.samples), ratio, tol);
    if (ratio > tol) {
        std::cout << "overhead [FAIL] profiled run "
                  << strformat("%.1f", 100.0 * (ratio - 1.0))
                  << " % slower than unprofiled\n";
        return 1;
    }
    std::cout << "overhead [PASS] within "
              << strformat("%.0f", 100.0 * (tol - 1.0)) << " %\n";
    return 0;
}
