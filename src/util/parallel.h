#ifndef CPULLM_UTIL_PARALLEL_H
#define CPULLM_UTIL_PARALLEL_H

/**
 * @file
 * Host-side parallelism for the *functional* kernels (the emulated AMX
 * and AVX-512 GEMMs). This is about making the emulator usable on the
 * development machine; it has no bearing on simulated timing, which the
 * perf models compute analytically.
 *
 * parallelFor dispatches to one of two backends:
 *  - Pool (default): the persistent work-stealing ThreadPool — loops
 *    reuse long-lived workers instead of spawning threads.
 *  - Spawn: the original spawn-per-call implementation, kept so the
 *    host benchmarks can measure exactly what the pool buys.
 *
 * Both backends capture the first exception a loop body throws and
 * rethrow it on the calling thread.
 */

#include <cstddef>
#include <functional>

namespace cpullm {

/** Number of worker threads parallelFor will use (>= 1). */
std::size_t hardwareThreads();

/** Cap the number of threads parallelFor uses (0 = hardware default). */
void setMaxThreads(std::size_t n);

/** Which implementation executes parallelFor. */
enum class ParallelBackend {
    Pool,  ///< persistent work-stealing ThreadPool (default)
    Spawn, ///< spawn-and-join threads per call (A/B baseline)
};

/** Select the parallelFor backend (process-wide, takes effect on the
 *  next call). */
void setParallelBackend(ParallelBackend backend);

/** Currently selected backend. */
ParallelBackend parallelBackend();

/**
 * Run fn(i) for i in [begin, end) across worker threads, blocking
 * until all iterations complete. Falls back to serial execution for
 * small ranges. If the body throws, the first exception is rethrown
 * on the calling thread once the loop has drained.
 *
 * @param grain minimum iterations per task before splitting further.
 */
void parallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t grain = 1);

/**
 * The Spawn backend, callable directly (the host GEMM benchmark uses
 * it as the pre-pool baseline regardless of the selected backend).
 */
void parallelForSpawn(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t)>& fn,
                      std::size_t grain = 1);

} // namespace cpullm

#endif // CPULLM_UTIL_PARALLEL_H
