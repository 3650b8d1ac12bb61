#include "gnnbench/core/parallel.h"

#include <atomic>
#include <exception>
#include <memory>
#include <thread>

#include "gnnbench/core/parse.h"

namespace gnnbench {
namespace core {
namespace parallel {

namespace {

thread_local int t_worker_depth = 0;

/** Pool size from the environment, resolved once at first use. */
int
envThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return envInt("GNNBENCH_NUM_THREADS", hw > 0 ? static_cast<int>(hw) : 1);
}

/**
 * One parallel region in flight.  Workers claim chunk indices from an
 * atomic cursor; the submitting thread participates too, so a pool of
 * size N uses N-1 spawned threads.
 */
struct Job
{
    const std::function<void(int64_t, int64_t, int64_t)> *fn = nullptr;
    int64_t begin = 0;
    int64_t grain = 1;
    int64_t totalChunks = 0;
    int64_t rangeEnd = 0;
    std::atomic<int64_t> nextChunk{0};
    std::atomic<int64_t> doneChunks{0};
    std::atomic<bool> cancelled{false};
    std::mutex errorMutex;
    std::exception_ptr error;

    /** Claim-and-run until the cursor runs out. */
    void
    drain()
    {
        for (;;) {
            const int64_t c = nextChunk.fetch_add(1);
            if (c >= totalChunks)
                return;
            if (!cancelled.load(std::memory_order_relaxed)) {
                const int64_t b = begin + c * grain;
                const int64_t e = std::min(rangeEnd, b + grain);
                try {
                    (*fn)(c, b, e);
                } catch (...) {
                    std::lock_guard lock(errorMutex);
                    if (!error)
                        error = std::current_exception();
                    cancelled.store(true, std::memory_order_relaxed);
                }
            }
            doneChunks.fetch_add(1);
        }
    }
};

class ThreadPool
{
  public:
    explicit ThreadPool(int threads) : size_(std::max(1, threads))
    {
        threads_.reserve(size_ - 1);
        for (int t = 0; t < size_ - 1; ++t)
            threads_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            std::lock_guard lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    int size() const { return size_; }

    /**
     * Run one chunked region to completion.  Submissions from
     * concurrent threads (e.g. two dataloader consumers) serialize on
     * submitMutex_; each still completes all its chunks.
     */
    void
    run(std::shared_ptr<Job> job)
    {
        std::lock_guard submit(submitMutex_);
        {
            std::lock_guard lock(mutex_);
            job_ = job;
            ++generation_;
        }
        wake_.notify_all();
        // The submitter participates; while it executes chunks it
        // counts as a worker so nested regions inside its chunk
        // bodies run serially instead of re-entering the pool (which
        // would self-deadlock on submitMutex_).
        ++t_worker_depth;
        job->drain();
        --t_worker_depth;
        // The cursor is exhausted; wait for in-flight chunks.
        {
            std::unique_lock lock(mutex_);
            done_.wait(lock, [&] {
                return job->doneChunks.load() >= job->totalChunks;
            });
            job_.reset();
        }
        if (job->error)
            std::rethrow_exception(job->error);
    }

  private:
    void
    workerLoop()
    {
        ++t_worker_depth;
        uint64_t seen = 0;
        for (;;) {
            std::shared_ptr<Job> job;
            {
                std::unique_lock lock(mutex_);
                wake_.wait(lock, [&] {
                    return stop_ || generation_ != seen;
                });
                if (stop_)
                    return;
                seen = generation_;
                job = job_;
            }
            if (!job)
                continue;
            job->drain();
            // Touch the mutex so the submitter cannot check the done
            // count and sleep between our increment and notify.
            {
                std::lock_guard lock(mutex_);
            }
            done_.notify_all();
        }
    }

    int size_;
    std::vector<std::thread> threads_;
    std::mutex submitMutex_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::shared_ptr<Job> job_;
    uint64_t generation_ = 0;
    bool stop_ = false;
};

std::mutex g_poolMutex;
std::unique_ptr<ThreadPool> g_pool;
int g_requestedThreads = 0;  // 0 = resolve from the environment

ThreadPool &
pool()
{
    std::lock_guard lock(g_poolMutex);
    if (!g_pool) {
        const int n =
            g_requestedThreads > 0 ? g_requestedThreads : envThreads();
        g_pool = std::make_unique<ThreadPool>(n);
    }
    return *g_pool;
}

} // namespace

int
numThreads()
{
    return pool().size();
}

void
setNumThreads(int n)
{
    std::unique_ptr<ThreadPool> old;
    {
        std::lock_guard lock(g_poolMutex);
        g_requestedThreads = std::max(1, n);
        old = std::move(g_pool);
    }
    // Old pool joins outside the lock; next region builds the new one.
}

bool
inWorkerThread()
{
    return t_worker_depth > 0;
}

WorkerThreadScope::WorkerThreadScope()
{
    ++t_worker_depth;
}

WorkerThreadScope::~WorkerThreadScope()
{
    --t_worker_depth;
}

namespace detail {

int64_t
chunkCount(int64_t begin, int64_t end, int64_t grain)
{
    GNNBENCH_ASSERT(grain > 0, "parallel grain must be positive");
    if (end <= begin)
        return 0;
    return (end - begin + grain - 1) / grain;
}

void
runChunked(int64_t begin, int64_t end, int64_t grain,
           const std::function<void(int64_t, int64_t, int64_t)> &fn)
{
    const int64_t chunks = chunkCount(begin, end, grain);
    if (chunks == 0)
        return;
    // Serial path: single chunk, pool of one, or already on a worker
    // (nested regions must not re-enter the pool).  Chunk order and
    // boundaries are identical to the parallel path, so results are
    // bit-identical regardless of which path runs.
    if (chunks == 1 || inWorkerThread() || pool().size() == 1) {
        for (int64_t c = 0; c < chunks; ++c) {
            const int64_t b = begin + c * grain;
            fn(c, b, std::min(end, b + grain));
        }
        return;
    }
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->begin = begin;
    job->grain = grain;
    job->totalChunks = chunks;
    job->rangeEnd = end;
    pool().run(std::move(job));
}

} // namespace detail

} // namespace parallel
} // namespace core
} // namespace gnnbench
