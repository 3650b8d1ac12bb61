/**
 * @file
 * Multi-worker prefetching pipeline shared by the framework
 * dataloaders.
 *
 * Prefetcher<Batch> mirrors the num_workers execution model of
 * torch.utils.data.DataLoader (used by both DGL and PyG): N worker
 * threads run sampler producers ahead of the consumer, buffering up
 * to @p depth finished batches per worker.  Delivery order is the
 * serial batch order — worker w produces global batches w, w+N,
 * w+2N, ... into its own bounded queue, and next() round-robins the
 * queues — so training consumes batch 0, 1, 2, ... regardless of
 * which worker finished first.
 *
 * Worker threads are marked with core::parallel::WorkerThreadScope:
 * any parallelFor inside a producer collapses to the serial path, so
 * each worker occupies one core, exactly like a DataLoader worker
 * process.  Per-worker busy time (seconds spent inside the producer,
 * excluding queue waits) is recorded for the scaling ablation's
 * pipeline-throughput metric.
 *
 * Observability: every queue shares one QueueStats tally (depth,
 * enqueue/dequeue blocking) that is flushed into the process metrics
 * registry at shutdown under "prefetch.*"; when tracing is enabled,
 * each worker names its lane "<tag>/w<k>" and wraps each batch
 * production in a "batch <i>" trace event, so the pipeline's overlap
 * is visible in Perfetto.
 *
 * Shutdown is always clean: shutdown() closes every queue — which
 * unblocks producers stuck in push() — and joins all threads.  The
 * destructor calls shutdown(), so destroying a loader mid-epoch
 * (early training exit) never leaks a detached thread.  A producer
 * exception is captured and rethrown from next() on the consumer
 * thread, after the batches that preceded it have been delivered.
 */

#ifndef GNNBENCH_SAMPLING_PREFETCH_H
#define GNNBENCH_SAMPLING_PREFETCH_H

#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gnnbench/core/parallel.h"
#include "gnnbench/core/timer.h"
#include "gnnbench/profiling/metrics_registry.h"
#include "gnnbench/profiling/trace.h"

namespace gnnbench {
namespace sampling {

template <typename Batch>
class Prefetcher
{
  public:
    /** Produces the batch with the given global index. */
    using Producer = std::function<Batch(int64_t)>;

    /**
     * Start one thread per producer.  Producer w is invoked for
     * batch indices w, w + W, w + 2W, ... (W = producers.size());
     * each must be safe to run on its own thread (samplers: a clone
     * with a private RNG stream).
     *
     * @param lane_tag prefix for the workers' trace-lane names
     *   ("<tag>/w<k>"), e.g. "dgl-neighbor".
     */
    Prefetcher(std::vector<Producer> producers, int64_t num_batches,
               int depth, std::string lane_tag = "worker")
        : numBatches_(num_batches), laneTag_(std::move(lane_tag)),
          busySeconds_(producers.size(), 0.0),
          errors_(producers.size())
    {
        GNNBENCH_CHECK(!producers.empty(),
                       "prefetcher needs at least one worker");
        GNNBENCH_CHECK(depth > 0, "prefetch depth must be positive");
        const size_t workers = producers.size();
        queues_.reserve(workers);
        for (size_t w = 0; w < workers; ++w)
            queues_.push_back(
                std::make_unique<core::parallel::BoundedQueue<Batch>>(
                    static_cast<size_t>(depth), &queueStats_));
        threads_.reserve(workers);
        for (size_t w = 0; w < workers; ++w)
            threads_.emplace_back(
                [this, w, producer = std::move(producers[w])] {
                    runWorker(w, producer);
                });
    }

    /**
     * Inline (num_workers == 0) mode: no worker threads; next() runs
     * @p producer for the next batch index on the calling thread,
     * mirroring torch DataLoader(num_workers=0).  The producer sees
     * the same batch indices as the threaded mode, so a producer
     * whose randomness is a pure function of the batch index yields
     * bit-identical batches for any worker count.
     * workerBusySeconds() is empty and queue statistics stay zero.
     */
    Prefetcher(Producer producer, int64_t num_batches,
               std::string lane_tag = "inline")
        : numBatches_(num_batches), laneTag_(std::move(lane_tag)),
          inlineProducer_(std::move(producer))
    {
        GNNBENCH_CHECK(static_cast<bool>(inlineProducer_),
                       "inline prefetcher needs a producer");
    }

    ~Prefetcher() { shutdown(); }

    Prefetcher(const Prefetcher &) = delete;
    Prefetcher &operator=(const Prefetcher &) = delete;

    /**
     * The next batch in serial order; empty once all batches were
     * delivered or after shutdown().  Rethrows a producer exception
     * at the position of the batch that raised it.
     */
    std::optional<Batch>
    next()
    {
        if (nextBatch_ >= numBatches_)
            return std::nullopt;
        if (inlineProducer_) {
            profiling::TraceRecorder &trace =
                profiling::TraceRecorder::global();
            std::optional<Batch> batch;
            {
                profiling::TraceScope ts(trace, "batch", "prefetch",
                                         nextBatch_);
                batch.emplace(inlineProducer_(nextBatch_));
            }
            ++nextBatch_;
            return batch;
        }
        const size_t w =
            static_cast<size_t>(nextBatch_ % queues_.size());
        std::optional<Batch> item = queues_[w]->pop();
        if (!item) {
            // The worker's queue closed early: either its producer
            // threw, or shutdown() raced this pop.
            std::lock_guard lock(errorMutex_);
            if (errors_[w]) {
                std::exception_ptr e = errors_[w];
                errors_[w] = nullptr;
                std::rethrow_exception(e);
            }
            return std::nullopt;
        }
        ++nextBatch_;
        return item;
    }

    /** Total batches the pipeline was configured to produce. */
    int64_t numBatches() const { return numBatches_; }

    /**
     * Stop producing and join all workers (idempotent).  Producers
     * blocked on a full queue observe the close and exit; a batch
     * mid-production is finished, then discarded.  Queue statistics
     * are flushed into the metrics registry here, once.
     */
    void
    shutdown()
    {
        if (joined_)
            return;
        for (auto &q : queues_)
            q->close();
        for (auto &t : threads_)
            if (t.joinable())
                t.join();
        joined_ = true;
        flushQueueMetrics();
    }

    /**
     * Seconds each worker spent inside its producer (joins first).
     * The maximum over workers is the pipeline's critical path: on a
     * machine with >= W free cores, epoch sampling time approaches
     * max(busy) instead of sum(busy).
     */
    const std::vector<double> &
    workerBusySeconds()
    {
        shutdown();
        return busySeconds_;
    }

    /** Aggregate queue statistics across this pipeline's queues. */
    const core::parallel::QueueStats &
    queueStats() const
    {
        return queueStats_;
    }

  private:
    void
    runWorker(size_t w, const Producer &producer)
    {
        // One core per worker: nested parallelFor runs serially.
        core::parallel::WorkerThreadScope scope;
        profiling::TraceRecorder &trace =
            profiling::TraceRecorder::global();
        trace.setThreadLaneName(laneTag_ + "/w" + std::to_string(w));
        // CPU time, not wall time: excludes time this worker spent
        // descheduled while other workers shared the core(s).
        core::ThreadCpuTimer timer;
        double busy = 0.0;
        const auto stride = static_cast<int64_t>(queues_.size());
        try {
            for (int64_t i = static_cast<int64_t>(w);
                 i < numBatches_; i += stride) {
                timer.reset();
                std::optional<Batch> batch;
                {
                    profiling::TraceScope ts(trace, "batch",
                                             "prefetch", i);
                    batch.emplace(producer(i));
                }
                busy += timer.elapsed();
                if (!queues_[w]->push(std::move(*batch)))
                    break; // shut down mid-epoch
            }
        } catch (...) {
            std::lock_guard lock(errorMutex_);
            errors_[w] = std::current_exception();
        }
        busySeconds_[w] = busy;
        profiling::flushRngDraws();
        // Signals completion (or failure) to a blocked consumer;
        // batches already queued still drain in order.
        queues_[w]->close();
    }

    /** Fold this pipeline's QueueStats into the global registry. */
    void
    flushQueueMetrics()
    {
        namespace pm = profiling;
        auto &reg = pm::MetricsRegistry::global();
        const auto &s = queueStats_;
        const uint64_t pushes = s.pushes.load();
        const uint64_t pops = s.pops.load();
        reg.counter("prefetch.batches").add(pushes);
        reg.counter("prefetch.enqueue_blocks")
            .add(s.enqueueBlocks.load());
        reg.counter("prefetch.dequeue_blocks")
            .add(s.dequeueBlocks.load());
        reg.counter("prefetch.enqueue_block_nanos")
            .add(s.enqueueBlockNanos.load());
        reg.counter("prefetch.dequeue_block_nanos")
            .add(s.dequeueBlockNanos.load());
        reg.gauge("prefetch.queue_depth_peak")
            .updateMax(static_cast<double>(s.maxDepth.load()));
        if (pops > 0)
            reg.histogram("prefetch.queue_depth",
                          {0.0, 1.0, 2.0, 4.0, 8.0, 16.0})
                .observe(static_cast<double>(s.depthSum.load()) /
                         static_cast<double>(pops));
    }

    int64_t numBatches_;
    int64_t nextBatch_ = 0;
    std::string laneTag_;
    core::parallel::QueueStats queueStats_;
    std::vector<std::unique_ptr<core::parallel::BoundedQueue<Batch>>>
        queues_;
    std::vector<std::thread> threads_;
    std::vector<double> busySeconds_;
    std::mutex errorMutex_;
    std::vector<std::exception_ptr> errors_;
    bool joined_ = false;
    /** Non-empty in inline (num_workers == 0) mode. */
    Producer inlineProducer_;
};

} // namespace sampling
} // namespace gnnbench

#endif // GNNBENCH_SAMPLING_PREFETCH_H
