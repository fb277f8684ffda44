#include "util/parallel.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace cpullm {

namespace {

std::atomic<std::size_t> max_threads{0};
std::atomic<int> backend{static_cast<int>(ParallelBackend::Pool)};

} // namespace

std::size_t
hardwareThreads()
{
    const std::size_t cap = max_threads.load(std::memory_order_relaxed);
    std::size_t hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    if (cap != 0 && cap < hw)
        hw = cap;
    return hw;
}

void
setMaxThreads(std::size_t n)
{
    max_threads.store(n, std::memory_order_relaxed);
}

void
setParallelBackend(ParallelBackend b)
{
    backend.store(static_cast<int>(b), std::memory_order_relaxed);
}

ParallelBackend
parallelBackend()
{
    return static_cast<ParallelBackend>(
        backend.load(std::memory_order_relaxed));
}

void
parallelForSpawn(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t grain)
{
    if (end <= begin)
        return;
    if (grain == 0)
        grain = 1;
    const std::size_t total = end - begin;
    const std::size_t workers = hardwareThreads();
    if (workers <= 1 || total <= grain) {
        for (std::size_t i = begin; i < end; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{begin};
    std::atomic<bool> failed{false};
    std::mutex err_mu;
    std::exception_ptr error;
    auto worker = [&] {
        for (;;) {
            const std::size_t start =
                next.fetch_add(grain, std::memory_order_relaxed);
            if (start >= end)
                return;
            const std::size_t stop = std::min(start + grain, end);
            if (failed.load(std::memory_order_relaxed))
                continue; // drain the range without running the body
            try {
                for (std::size_t i = start; i < stop; ++i)
                    fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(err_mu);
                if (!failed.exchange(true))
                    error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> threads;
    const std::size_t spawn = std::min(workers - 1, total / grain);
    threads.reserve(spawn);
    for (std::size_t t = 0; t < spawn; ++t)
        threads.emplace_back(worker);
    worker();
    for (auto& t : threads)
        t.join();
    if (failed.load(std::memory_order_acquire))
        std::rethrow_exception(error);
}

void
parallelFor(std::size_t begin, std::size_t end,
            const std::function<void(std::size_t)>& fn, std::size_t grain)
{
    if (parallelBackend() == ParallelBackend::Spawn) {
        parallelForSpawn(begin, end, fn, grain);
        return;
    }
    ThreadPool::instance().parallelFor(begin, end, fn, grain);
}

} // namespace cpullm
