#include "util/thread_pool.h"

#include <pthread.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <new>
#include <thread>

#include "util/parallel.h"
#include "util/thread_registry.h"

namespace cpullm {

namespace {

/** Set while a thread executes a parallelFor body (the submitter
 *  during its participation, workers while running a job), so nested
 *  loops run inline instead of deadlocking the pool. */
thread_local bool tls_in_parallel = false;

/** RAII toggle for tls_in_parallel. */
struct ParallelRegionMark
{
    ParallelRegionMark() { tls_in_parallel = true; }
    ~ParallelRegionMark() { tls_in_parallel = false; }
};

/** The constructed pool, for the fork child handler (which must not
 *  touch instance()'s initialization guard). */
ThreadPool* g_pool = nullptr;

} // namespace

/** One parallelFor invocation: chunk deques plus completion state. */
struct ThreadPool::Job
{
    struct Chunk
    {
        std::size_t begin;
        std::size_t end;
    };

    struct Lane
    {
        std::mutex mu;
        std::deque<Chunk> chunks;
    };

    const std::function<void(std::size_t)>* fn = nullptr;
    std::unique_ptr<Lane[]> lanes;
    std::size_t laneCount = 0;
    /** Submitter's logical stack, re-pushed on each worker for the
     *  job's duration so profiler samples on pool threads attribute
     *  to the op that spawned the loop. */
    int frameDepth = 0;
    char frames[threadreg::kMaxDepth][threadreg::kFrameChars];
    /** Chunks not yet fully executed. */
    std::atomic<std::size_t> pending{0};
    /** Participants currently inside runJob (guards Job lifetime). */
    std::atomic<std::size_t> active{0};
    std::atomic<bool> failed{false};
    std::mutex errMu;
    std::exception_ptr error;
};

ThreadPool&
ThreadPool::instance()
{
    // Built in static storage and never destroyed: a destructor would
    // join the workers at exit(), and a forked child has none to join.
    alignas(ThreadPool) static unsigned char storage[sizeof(ThreadPool)];
    static ThreadPool* const pool = new (storage) ThreadPool;
    return *pool;
}

ThreadPool::ThreadPool()
{
    std::size_t hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    // Workers park for the life of the process on a pool that is never
    // destroyed, so nothing ever joins them.
    for (std::size_t id = 0; id + 1 < hw; ++id) {
        std::thread([this, id] { workerLoop(id); }).detach();
        ++workers_;
    }
    g_pool = this;
    pthread_atfork(nullptr, nullptr, &ThreadPool::resetInForkedChild);
}

void
ThreadPool::resetInForkedChild()
{
    // Only the forking thread survives into the child: drop the workers
    // and any job another thread had published, and rebuild the locks,
    // which a vanished thread may have held. Reusing their storage
    // without running the old destructors is fine; those destructors
    // have no effect we rely on.
    ThreadPool& p = *g_pool;
    p.workers_ = 0;
    p.job_ = nullptr;
    new (&p.mu_) std::mutex;
    new (&p.cv_) std::condition_variable;
    new (&p.doneCv_) std::condition_variable;
    new (&p.submitMu_) std::mutex;
}

bool
ThreadPool::inParallelRegion()
{
    return tls_in_parallel;
}

ThreadPool::Stats
ThreadPool::stats() const
{
    Stats s;
    s.poolSize = workers_;
    s.parallelOps = parallelOps_.load(std::memory_order_relaxed);
    s.serialOps = serialOps_.load(std::memory_order_relaxed);
    s.inlineOps = inlineOps_.load(std::memory_order_relaxed);
    s.tasks = tasks_.load(std::memory_order_relaxed);
    s.chunks = chunks_.load(std::memory_order_relaxed);
    s.steals = steals_.load(std::memory_order_relaxed);
    return s;
}

void
ThreadPool::serialRun(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t)>& fn)
{
    for (std::size_t i = begin; i < end; ++i)
        fn(i);
}

bool
ThreadPool::takeChunk(Job& job, std::size_t lane, std::size_t* begin,
                      std::size_t* end)
{
    {
        Job::Lane& own = job.lanes[lane];
        std::lock_guard<std::mutex> lk(own.mu);
        if (!own.chunks.empty()) {
            *begin = own.chunks.front().begin;
            *end = own.chunks.front().end;
            own.chunks.pop_front();
            return true;
        }
    }
    for (std::size_t off = 1; off < job.laneCount; ++off) {
        Job::Lane& victim = job.lanes[(lane + off) % job.laneCount];
        std::lock_guard<std::mutex> lk(victim.mu);
        if (!victim.chunks.empty()) {
            *begin = victim.chunks.back().begin;
            *end = victim.chunks.back().end;
            victim.chunks.pop_back();
            steals_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

void
ThreadPool::runJob(Job& job, std::size_t lane)
{
    ParallelRegionMark mark;
    std::size_t begin = 0, end = 0;
    while (takeChunk(job, lane, &begin, &end)) {
        // After a failure remaining chunks are drained without
        // executing the body so the loop still terminates promptly.
        if (!job.failed.load(std::memory_order_relaxed)) {
            try {
                for (std::size_t i = begin; i < end; ++i)
                    (*job.fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(job.errMu);
                if (!job.failed.exchange(true))
                    job.error = std::current_exception();
            }
        }
        job.pending.fetch_sub(1, std::memory_order_acq_rel);
    }
}

void
ThreadPool::workerLoop(std::size_t id)
{
    // Lane 0 is the calling thread; workers are lanes id + 1. The
    // registry name shows up in profiler collapsed stacks and
    // flight-recorder dumps.
    char name[16];
    std::snprintf(name, sizeof(name), "pool%zu", id + 1);
    threadreg::registerCurrentThread(name);
    std::uint64_t seen = 0;
    for (;;) {
        Job* job = nullptr;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [&] {
                return job_ != nullptr && generation_ != seen;
            });
            seen = generation_;
            // Lanes beyond the job's width sit this one out, which is
            // how setMaxThreads() keeps pooled loops within its cap.
            if (id + 1 < job_->laneCount) {
                job = job_;
                job->active.fetch_add(1, std::memory_order_relaxed);
            }
        }
        if (job == nullptr)
            continue;
        for (int i = 0; i < job->frameDepth; ++i)
            threadreg::pushFrame(job->frames[i]);
        runJob(*job, id + 1);
        for (int i = 0; i < job->frameDepth; ++i)
            threadreg::popFrame();
        {
            std::lock_guard<std::mutex> lk(mu_);
            job->active.fetch_sub(1, std::memory_order_acq_rel);
        }
        doneCv_.notify_all();
    }
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)>& fn,
                        std::size_t grain)
{
    if (end <= begin)
        return;
    if (grain == 0)
        grain = 1;
    const std::size_t total = end - begin;

    if (tls_in_parallel) {
        inlineOps_.fetch_add(1, std::memory_order_relaxed);
        serialRun(begin, end, fn);
        return;
    }

    const std::size_t width = hardwareThreads();
    if (width <= 1 || total <= grain || workers_ == 0) {
        serialOps_.fetch_add(1, std::memory_order_relaxed);
        serialRun(begin, end, fn);
        return;
    }

    // One pooled loop at a time; a second concurrent top-level caller
    // degrades to serial rather than queueing behind the first.
    if (!submitMu_.try_lock()) {
        serialOps_.fetch_add(1, std::memory_order_relaxed);
        serialRun(begin, end, fn);
        return;
    }
    std::lock_guard<std::mutex> submitGuard(submitMu_, std::adopt_lock);

    const std::size_t nchunks = (total + grain - 1) / grain;
    const std::size_t lanes =
        std::min({width, workers_ + 1, nchunks});

    Job job;
    job.fn = &fn;
    job.laneCount = lanes;
    if (threadreg::ThreadState* ts = threadreg::current()) {
        int d = ts->depth.load(std::memory_order_relaxed);
        if (d > threadreg::kMaxDepth)
            d = threadreg::kMaxDepth;
        job.frameDepth = d;
        for (int i = 0; i < d; ++i)
            std::memcpy(job.frames[i], ts->frames[i],
                        threadreg::kFrameChars);
    }
    job.lanes = std::make_unique<Job::Lane[]>(lanes);
    std::size_t chunk_begin = begin;
    for (std::size_t c = 0; c < nchunks; ++c) {
        const std::size_t chunk_end =
            std::min(chunk_begin + grain, end);
        job.lanes[c % lanes].chunks.push_back({chunk_begin, chunk_end});
        chunk_begin = chunk_end;
    }
    job.pending.store(nchunks, std::memory_order_relaxed);

    parallelOps_.fetch_add(1, std::memory_order_relaxed);
    tasks_.fetch_add(total, std::memory_order_relaxed);
    chunks_.fetch_add(nchunks, std::memory_order_relaxed);

    {
        std::lock_guard<std::mutex> lk(mu_);
        job_ = &job;
        ++generation_;
    }
    cv_.notify_all();

    runJob(job, 0);

    // Unpublish, then wait until every registered worker has left the
    // job before the stack frame (and Job) goes away. Workers register
    // under mu_ while job_ still points here, so after the unpublish
    // the active count can only fall.
    {
        std::unique_lock<std::mutex> lk(mu_);
        job_ = nullptr;
        doneCv_.wait(lk, [&] {
            return job.active.load(std::memory_order_acquire) == 0 &&
                   job.pending.load(std::memory_order_acquire) == 0;
        });
    }

    if (job.failed.load(std::memory_order_acquire))
        std::rethrow_exception(job.error);
}

} // namespace cpullm
