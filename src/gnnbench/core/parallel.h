/**
 * @file
 * Shared parallel-execution substrate of gnnbench.
 *
 * A single persistent thread pool serves every CPU-side parallel
 * region in the library: elementwise tensor kernels, scatter/gather,
 * the graph samplers, and the prefetching mini-batch loaders.  The
 * pool size is controlled by the GNNBENCH_NUM_THREADS environment
 * variable (default: all hardware threads); a pool of size 1 degrades
 * to plain serial loops with zero thread traffic.
 *
 * Determinism contract: work is decomposed into chunks of a fixed
 * @p grain that depends only on the loop bounds — never on the pool
 * size — and reductions combine per-chunk partials in chunk order.
 * A parallelFor/parallelReduce therefore produces bit-identical
 * results for *any* thread count, which keeps every figure of the
 * reproduction exactly reproducible under the paper's num_workers
 * sweeps.  Randomized callers preserve the same property by deriving
 * one core::Rng stream per *chunk* (not per thread); see the
 * samplers.
 */

#ifndef GNNBENCH_CORE_PARALLEL_H
#define GNNBENCH_CORE_PARALLEL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "gnnbench/core/common.h"

namespace gnnbench {
namespace core {
namespace parallel {

/**
 * Threads the global pool targets: GNNBENCH_NUM_THREADS when set (a
 * positive integer; any other value is fatal), otherwise the hardware
 * concurrency (at least 1).
 */
int numThreads();

/**
 * Resize the global pool (used by tests and the scaling ablation to
 * emulate different GNNBENCH_NUM_THREADS settings in-process).  Not
 * safe to call concurrently with running parallel regions.
 */
void setNumThreads(int n);

/**
 * True on a thread that must not fan out again: pool workers and
 * dataloader sampling workers.  Parallel regions on such threads run
 * serially (same chunk decomposition, same results).
 */
bool inWorkerThread();

/**
 * RAII marker turning the current thread into a "worker" for the
 * purpose of inWorkerThread().  The prefetching dataloaders mark
 * their sampling threads so nested sampler parallelism collapses to
 * one core per worker — the DGL/PyG num_workers execution model.
 */
class WorkerThreadScope
{
  public:
    WorkerThreadScope();
    ~WorkerThreadScope();
    WorkerThreadScope(const WorkerThreadScope &) = delete;
    WorkerThreadScope &operator=(const WorkerThreadScope &) = delete;
};

namespace detail {

/** Number of grain-sized chunks covering [begin, end). */
int64_t chunkCount(int64_t begin, int64_t end, int64_t grain);

/**
 * Execute fn(chunk_index, chunk_begin, chunk_end) for every chunk,
 * on the pool when profitable, serially (in chunk order) otherwise.
 * Exceptions thrown by any chunk are rethrown on the calling thread
 * (first one wins; remaining chunks are skipped best-effort).
 */
void runChunked(int64_t begin, int64_t end, int64_t grain,
                const std::function<void(int64_t, int64_t, int64_t)> &fn);

} // namespace detail

/**
 * Parallel loop over [begin, end): body(chunk_begin, chunk_end) is
 * invoked for consecutive chunks of at most @p grain iterations.
 * Chunks are disjoint, so bodies may write disjoint outputs without
 * synchronization.
 */
inline void
parallelFor(int64_t begin, int64_t end, int64_t grain,
            const std::function<void(int64_t, int64_t)> &body)
{
    detail::runChunked(begin, end, grain,
                       [&body](int64_t, int64_t b, int64_t e) {
                           body(b, e);
                       });
}

/**
 * Like parallelFor, but the body also receives the chunk index:
 * body(chunk_index, chunk_begin, chunk_end).  Randomized callers use
 * the index to derive one RNG stream per chunk (see chunkSeed), which
 * keeps their output independent of the thread count.
 */
inline void
parallelForChunks(int64_t begin, int64_t end, int64_t grain,
                  const std::function<void(int64_t, int64_t, int64_t)> &body)
{
    detail::runChunked(begin, end, grain, body);
}

/**
 * Deterministic per-chunk seed: mixes one draw from a parent RNG
 * stream with a caller salt (e.g. the layer index) and the chunk
 * index through a SplitMix64 finalizer.  Feed the result to a fresh
 * core::Rng inside the chunk body.
 */
inline uint64_t
chunkSeed(uint64_t base, uint64_t salt, uint64_t chunk)
{
    uint64_t z = base ^ (salt * 0x9e3779b97f4a7c15ULL) ^
                 (chunk * 0xbf58476d1ce4e5b9ULL);
    z ^= z >> 30;
    z *= 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 27;
    z *= 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z;
}

/**
 * Parallel reduction over [begin, end): body(chunk_begin, chunk_end)
 * produces one partial per chunk; partials are combined with
 * @p combine in ascending chunk order (deterministic for floating
 * point), starting from @p init.
 */
template <typename T, typename Body, typename Combine>
T
parallelReduce(int64_t begin, int64_t end, int64_t grain, T init,
               Body &&body, Combine &&combine)
{
    const int64_t chunks = detail::chunkCount(begin, end, grain);
    if (chunks <= 0)
        return init;
    std::vector<T> partial(static_cast<size_t>(chunks));
    detail::runChunked(begin, end, grain,
                       [&](int64_t c, int64_t b, int64_t e) {
                           partial[static_cast<size_t>(c)] = body(b, e);
                       });
    T acc = std::move(init);
    for (auto &p : partial)
        acc = combine(std::move(acc), std::move(p));
    return acc;
}

/**
 * Occupancy and backpressure statistics for BoundedQueue, shared by
 * reference so several queues (e.g. one per prefetch worker) can
 * aggregate into a single tally.  All fields are relaxed atomics —
 * they are observability data, not synchronization.
 */
struct QueueStats
{
    std::atomic<uint64_t> pushes{0};
    std::atomic<uint64_t> pops{0};
    /** push() calls that had to wait on a full queue. */
    std::atomic<uint64_t> enqueueBlocks{0};
    /** pop() calls that had to wait on an empty queue. */
    std::atomic<uint64_t> dequeueBlocks{0};
    /** Total producer wall time blocked in push(), nanoseconds. */
    std::atomic<uint64_t> enqueueBlockNanos{0};
    /** Total consumer wall time blocked in pop(), nanoseconds. */
    std::atomic<uint64_t> dequeueBlockNanos{0};
    /** Sum of queue depths observed at each pop (avg = sum/pops). */
    std::atomic<uint64_t> depthSum{0};
    std::atomic<uint64_t> maxDepth{0};

    void
    reset()
    {
        pushes = pops = enqueueBlocks = dequeueBlocks = 0;
        enqueueBlockNanos = dequeueBlockNanos = 0;
        depthSum = maxDepth = 0;
    }
};

/**
 * A bounded blocking MPMC queue, the backbone of the prefetching
 * dataloaders.  push() blocks while the queue is full; pop() blocks
 * while it is empty; close() wakes every waiter, after which push()
 * fails and pop() drains the remaining items before returning empty.
 *
 * An optional QueueStats sink records occupancy and blocking; the
 * extra cost on the uncontended path is a handful of relaxed atomic
 * adds, and block durations are only timed when a wait actually
 * happens.
 */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(size_t capacity, QueueStats *stats = nullptr)
        : capacity_(capacity), stats_(stats)
    {
        GNNBENCH_CHECK(capacity > 0, "queue capacity must be positive");
    }

    /** Enqueue; false when the queue was closed. */
    bool
    push(T item)
    {
        std::unique_lock lock(mutex_);
        if (!closed_ && items_.size() >= capacity_) {
            const auto t0 = std::chrono::steady_clock::now();
            notFull_.wait(lock, [this] {
                return closed_ || items_.size() < capacity_;
            });
            if (stats_) {
                const auto dt =
                    std::chrono::steady_clock::now() - t0;
                stats_->enqueueBlocks.fetch_add(
                    1, std::memory_order_relaxed);
                stats_->enqueueBlockNanos.fetch_add(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(dt)
                        .count(),
                    std::memory_order_relaxed);
            }
        }
        if (closed_)
            return false;
        items_.push_back(std::move(item));
        if (stats_) {
            stats_->pushes.fetch_add(1, std::memory_order_relaxed);
            const uint64_t depth = items_.size();
            uint64_t cur =
                stats_->maxDepth.load(std::memory_order_relaxed);
            while (depth > cur &&
                   !stats_->maxDepth.compare_exchange_weak(
                       cur, depth, std::memory_order_relaxed))
                ;
        }
        lock.unlock();
        notEmpty_.notify_one();
        return true;
    }

    /** Dequeue; empty optional when closed and fully drained. */
    std::optional<T>
    pop()
    {
        std::unique_lock lock(mutex_);
        if (!closed_ && items_.empty()) {
            const auto t0 = std::chrono::steady_clock::now();
            notEmpty_.wait(lock, [this] {
                return closed_ || !items_.empty();
            });
            if (stats_) {
                const auto dt =
                    std::chrono::steady_clock::now() - t0;
                stats_->dequeueBlocks.fetch_add(
                    1, std::memory_order_relaxed);
                stats_->dequeueBlockNanos.fetch_add(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(dt)
                        .count(),
                    std::memory_order_relaxed);
            }
        }
        if (items_.empty())
            return std::nullopt;
        if (stats_) {
            stats_->pops.fetch_add(1, std::memory_order_relaxed);
            stats_->depthSum.fetch_add(items_.size(),
                                       std::memory_order_relaxed);
        }
        T item = std::move(items_.front());
        items_.pop_front();
        lock.unlock();
        notFull_.notify_one();
        return item;
    }

    /**
     * Close the queue and wake all blocked producers/consumers.
     * Idempotent: the first call flips the closed flag and broadcasts
     * on both condition variables exactly once; later calls (racing
     * closers, destructor-after-shutdown paths) observe the flag and
     * return without re-notifying, so a closer can never interleave
     * a stale broadcast with a queue that was already drained and
     * re-checked by its waiters.
     */
    void
    close()
    {
        {
            std::lock_guard lock(mutex_);
            if (closed_)
                return;
            closed_ = true;
        }
        notFull_.notify_all();
        notEmpty_.notify_all();
    }

    bool
    closed() const
    {
        std::lock_guard lock(mutex_);
        return closed_;
    }

    size_t
    size() const
    {
        std::lock_guard lock(mutex_);
        return items_.size();
    }

  private:
    mutable std::mutex mutex_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::deque<T> items_;
    size_t capacity_;
    QueueStats *stats_;
    bool closed_ = false;
};

} // namespace parallel
} // namespace core
} // namespace gnnbench

#endif // GNNBENCH_CORE_PARALLEL_H
