#ifndef CPULLM_UTIL_THREAD_POOL_H
#define CPULLM_UTIL_THREAD_POOL_H

/**
 * @file
 * Persistent work-stealing thread pool backing parallelFor. The pool
 * spawns its long-lived workers lazily on first use and keeps them
 * parked on a condition variable between loops, so the per-GEMM cost
 * of host parallelism drops from thread spawn/join to a wakeup.
 *
 * Execution model per loop: the iteration range is split into grain-
 * sized chunks dealt round-robin onto per-lane deques (lane 0 is the
 * submitting thread, lanes 1..L-1 are workers). Each participant pops
 * its own lane from the front and steals from other lanes' backs when
 * it runs dry. Exceptions thrown by the body are captured (first one
 * wins) and rethrown on the submitting thread. Nested parallelFor
 * calls from inside a loop body run inline on the calling thread, so
 * code running on pool workers can never deadlock the pool.
 *
 * The pool lives for the whole process and is never destroyed, so
 * exit() (fatal() included) never joins its workers. A forked child
 * starts with an empty pool: zero workers, no published job and no
 * lock held, so its loops run serially and exit() there returns the
 * requested code. A fork leaves the parent's pool unchanged. Forking
 * from inside a loop body is not supported.
 *
 * Like parallelFor itself, this is purely about host execution speed
 * of the functional kernels; simulated timing (src/perf) is unaffected.
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>

namespace cpullm {

class ThreadPool
{
  public:
    /** Monotonic process-wide counters (snapshot via stats()). */
    struct Stats
    {
        std::size_t poolSize = 0;      ///< long-lived worker threads
        std::uint64_t parallelOps = 0; ///< loops run on the pool
        std::uint64_t serialOps = 0;   ///< loops degraded to serial
        std::uint64_t inlineOps = 0;   ///< nested loops run inline
        std::uint64_t tasks = 0;       ///< iterations run on the pool
        std::uint64_t chunks = 0;      ///< chunks dealt to lanes
        std::uint64_t steals = 0;      ///< chunks taken from other lanes
    };

    /** The process-wide pool; workers start on the first call. */
    static ThreadPool& instance();

    /** Long-lived worker threads (hardware_concurrency - 1; may be 0;
     *  always 0 in a forked child). */
    std::size_t workerCount() const { return workers_; }

    /**
     * Run fn(i) for i in [begin, end) across the pool, blocking until
     * all iterations complete. Honors the setMaxThreads() cap, falls
     * back to serial execution for small ranges or when called from
     * inside another parallel loop, and rethrows the first exception
     * a loop body throws.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)>& fn,
                     std::size_t grain = 1);

    /** Copy of the counters (atomic reads; no lock). */
    Stats stats() const;

    /** True on a thread currently inside a parallelFor body. */
    static bool inParallelRegion();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

  private:
    ThreadPool();
    /** Never destroyed: see the file comment. */
    ~ThreadPool() = delete;

    struct Job;

    void workerLoop(std::size_t id);
    void runJob(Job& job, std::size_t lane);
    bool takeChunk(Job& job, std::size_t lane, std::size_t* begin,
                   std::size_t* end);
    void serialRun(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& fn);
    /** pthread_atfork child handler: empty the pool in the child. */
    static void resetInForkedChild();

    /** Guards job publication; cv_ wakes workers. */
    std::mutex mu_;
    std::condition_variable cv_;
    /** Signals job completion (workers leaving a job) to submitters. */
    std::condition_variable doneCv_;
    Job* job_ = nullptr;
    std::uint64_t generation_ = 0;
    /** Detached long-lived worker threads (0 in a forked child). */
    std::size_t workers_ = 0;
    /** Serializes top-level submissions; a busy pool runs the second
     *  concurrent caller serially instead of blocking it. */
    std::mutex submitMu_;

    std::atomic<std::uint64_t> parallelOps_{0};
    std::atomic<std::uint64_t> serialOps_{0};
    std::atomic<std::uint64_t> inlineOps_{0};
    std::atomic<std::uint64_t> tasks_{0};
    std::atomic<std::uint64_t> chunks_{0};
    std::atomic<std::uint64_t> steals_{0};
};

} // namespace cpullm

#endif // CPULLM_UTIL_THREAD_POOL_H
