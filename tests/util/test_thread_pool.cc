#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.h"

namespace cpullm {
namespace {

/** Restores the thread cap and backend on scope exit. */
struct ParallelConfigGuard
{
    ~ParallelConfigGuard()
    {
        setMaxThreads(0);
        setParallelBackend(ParallelBackend::Pool);
    }
};

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    ThreadPool::instance().parallelFor(0, n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, PoolSizeIsHardwareMinusOne)
{
    std::size_t hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    EXPECT_EQ(ThreadPool::instance().workerCount(), hw - 1);
}

TEST(ThreadPool, NestedCallsRunInlineWithoutDeadlock)
{
    const std::size_t outer = 16, inner = 64;
    std::vector<std::atomic<int>> hits(outer * inner);
    std::atomic<bool> saw_region{false};
    ThreadPool::instance().parallelFor(0, outer, [&](std::size_t o) {
        if (ThreadPool::inParallelRegion())
            saw_region.store(true, std::memory_order_relaxed);
        parallelFor(0, inner, [&](std::size_t i) {
            hits[o * inner + i].fetch_add(1,
                                          std::memory_order_relaxed);
        });
    });
    for (std::size_t i = 0; i < outer * inner; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    // On a single-core host the outer loop runs serial, outside any
    // parallel region; with workers the bodies must have seen one.
    if (ThreadPool::instance().workerCount() > 0) {
        EXPECT_TRUE(saw_region.load());
    }
    EXPECT_FALSE(ThreadPool::inParallelRegion());
}

TEST(ThreadPool, WorkerExceptionRethrownOnCaller)
{
    EXPECT_THROW(
        ThreadPool::instance().parallelFor(
            0, 1000,
            [](std::size_t i) {
                if (i == 500)
                    throw std::runtime_error("boom at 500");
            }),
        std::runtime_error);
}

TEST(ThreadPool, FirstExceptionMessageSurvives)
{
    try {
        ThreadPool::instance().parallelFor(0, 64, [](std::size_t i) {
            throw std::runtime_error("from index " +
                                     std::to_string(i));
        });
        FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("from index"),
                  std::string::npos);
    }
}

TEST(ThreadPool, SpawnBackendAlsoRethrows)
{
    EXPECT_THROW(parallelForSpawn(0, 1000,
                                  [](std::size_t i) {
                                      if (i >= 100)
                                          throw std::domain_error("x");
                                  }),
                 std::domain_error);
}

TEST(ThreadPool, SerialFallbackPropagatesException)
{
    ParallelConfigGuard guard;
    setMaxThreads(1);
    EXPECT_THROW(parallelFor(0, 100,
                             [](std::size_t) {
                                 throw std::logic_error("serial");
                             }),
                 std::logic_error);
}

TEST(ThreadPool, StatsCountPooledWork)
{
    if (ThreadPool::instance().workerCount() == 0)
        GTEST_SKIP() << "single-core host: everything runs serial";
    const ThreadPool::Stats before = ThreadPool::instance().stats();
    const std::size_t n = 4096;
    std::atomic<std::uint64_t> sum{0};
    ThreadPool::instance().parallelFor(0, n, [&](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    const ThreadPool::Stats after = ThreadPool::instance().stats();
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
    EXPECT_EQ(after.parallelOps, before.parallelOps + 1);
    EXPECT_EQ(after.tasks, before.tasks + n);
    EXPECT_GE(after.chunks, before.chunks + 1);
    EXPECT_EQ(after.poolSize, ThreadPool::instance().workerCount());
}

TEST(ThreadPool, MaxThreadsOneRunsSerial)
{
    ParallelConfigGuard guard;
    setMaxThreads(1);
    const ThreadPool::Stats before = ThreadPool::instance().stats();
    std::vector<int> hits(256, 0); // no atomics needed when serial
    ThreadPool::instance().parallelFor(0, hits.size(), [&](std::size_t i) {
        hits[i] += 1;
    });
    const ThreadPool::Stats after = ThreadPool::instance().stats();
    EXPECT_EQ(after.serialOps, before.serialOps + 1);
    EXPECT_EQ(after.parallelOps, before.parallelOps);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1);
}

TEST(ThreadPool, ConcurrentTopLevelLoopsBothComplete)
{
    const std::size_t n = 20000;
    std::vector<std::atomic<int>> a(n), b(n);
    auto run = [n](std::vector<std::atomic<int>>& v) {
        ThreadPool::instance().parallelFor(0, n, [&](std::size_t i) {
            v[i].fetch_add(1, std::memory_order_relaxed);
        });
    };
    std::thread other([&] { run(b); });
    run(a);
    other.join();
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(a[i].load(), 1) << "a index " << i;
        ASSERT_EQ(b[i].load(), 1) << "b index " << i;
    }
}

/** In a forked child: print @p why and exit with @p code. */
[[noreturn]] void
childFail(int code, const char* why)
{
    std::fprintf(stderr, "forked child: %s\n", why);
    std::fflush(stderr);
    std::_Exit(code);
}

TEST(ThreadPoolDeath, ForkedChildGetsAnEmptyPool)
{
    ThreadPool& pool = ThreadPool::instance();
    if (pool.workerCount() == 0)
        GTEST_SKIP() << "single-core host: no workers to lose in a fork";
    // Run a pooled loop first so the workers have started and parked.
    std::atomic<std::size_t> warm{0};
    pool.parallelFor(0, 4096, [&](std::size_t) {
        warm.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(warm.load(), 4096u);
    const std::size_t workers = pool.workerCount();

    // The child's failures surface as distinct exit codes (gtest
    // assertions inside the death-test child do not reach the parent).
    EXPECT_EXIT(
        {
            if (pool.workerCount() != 0)
                childFail(2, "workerCount() != 0");
            const std::size_t n = 10000;
            std::vector<std::atomic<int>> hits(n);
            pool.parallelFor(0, n, [&](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < n; ++i)
                if (hits[i].load() != 1)
                    childFail(3, "an index was not run exactly once");
            std::exit(0);
        },
        testing::ExitedWithCode(0), "");

    // The parent's pool is unchanged by the fork.
    EXPECT_EQ(pool.workerCount(), workers);
    const ThreadPool::Stats before = pool.stats();
    std::atomic<std::size_t> after_fork{0};
    pool.parallelFor(0, 4096, [&](std::size_t) {
        after_fork.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(after_fork.load(), 4096u);
    EXPECT_GT(pool.stats().parallelOps, before.parallelOps);
}

TEST(ParallelBackendKnob, RoundTrips)
{
    ParallelConfigGuard guard;
    EXPECT_EQ(parallelBackend(), ParallelBackend::Pool);
    setParallelBackend(ParallelBackend::Spawn);
    EXPECT_EQ(parallelBackend(), ParallelBackend::Spawn);
}

} // namespace
} // namespace cpullm
