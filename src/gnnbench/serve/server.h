/**
 * @file
 * Multi-tenant GNN inference server: the tentpole of the serving
 * subsystem.
 *
 * Data path: submit() stamps a Request (id, arrival, deadline) and
 * admits it through the bounded RequestQueue (shed-on-overload);
 * a MicroBatcher coalesces admitted requests (size- or deadline-
 * triggered); a pool of worker threads — each marked with
 * core::parallel::WorkerThreadScope so nested kernel parallelism
 * collapses to one core per worker, exactly like the prefetching
 * dataloaders — pulls batches, acquires ONE WeightStore snapshot per
 * batch (snapshot isolation: a concurrent publish can never
 * torn-read a serving batch), samples each request's k-hop
 * neighborhood with a per-worker dglx::NeighborSampler reseeded per
 * request id, and runs the forward-only inference path through the
 * shared kernels:: dispatch.  Responses flow through a
 * core::parallel::BoundedQueue (the prefetch pipeline's queue) to a
 * collector thread that accounts latency and deadline misses.
 *
 * Determinism: a request's logits are a pure function of (graph,
 * features, weight version, node, request id) — per-request RNG
 * streams make them independent of batching, worker count, and
 * arrival timing.  Which *version* answers a request depends only on
 * the batch's snapshot, and every request in a batch shares it.
 *
 * Observability: everything lands in the process metrics registry
 * under "serve.*" (admitted/rejected/completed counters, batch-size
 * and latency histograms, queue-depth peak) and each worker names a
 * "serve/w<k>" trace lane.  The collector additionally maintains the
 * scrape-facing SLO gauges — serve.slo_p50/p95/p99_seconds,
 * serve.slo_miss_rate, serve.slo_burn_rate (sliding window; see
 * profiling/exporter.h), serve.queue_depth, serve.shed_rate — so a
 * live OpenMetrics scrape sees current tail latency and budget burn,
 * not just end-of-run totals.
 */

#ifndef GNNBENCH_SERVE_SERVER_H
#define GNNBENCH_SERVE_SERVER_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "gnnbench/core/parallel.h"
#include "gnnbench/core/tensor.h"
#include "gnnbench/dglx/dataloader.h"
#include "gnnbench/profiling/exporter.h"
#include "gnnbench/serve/clock.h"
#include "gnnbench/serve/inference.h"
#include "gnnbench/serve/request_queue.h"
#include "gnnbench/serve/weight_store.h"

namespace gnnbench {
namespace serve {

/** One answered request. */
struct Response
{
    uint64_t id = 0;
    int32_t tenant = 0;
    NodeId node = 0;
    int32_t predicted = 0;       ///< argmax class
    std::vector<float> logits;   ///< full logit row (bit-exactness)
    uint64_t weightVersion = 0;  ///< snapshot that answered it
    uint64_t batchId = 0;
    int batchSize = 0;
    double arrival = 0.0;
    double finish = 0.0;
    double deadline = 0.0;

    double latency() const { return finish - arrival; }
    bool missedDeadline() const { return finish > deadline; }
};

/** Serving-side knobs (see applyServeEnv for the env overrides). */
struct ServeConfig
{
    int workers = 2;
    int maxBatch = 16;
    /** Micro-batcher deadline-slack flush trigger. */
    double flushSlackSeconds = 0.005;
    /** RequestQueue bound: requests beyond this are shed. */
    int queueDepth = 1024;
    /** Per-request latency SLO budget (deadline = arrival + SLO). */
    double sloSeconds = 0.050;
    /** Per-layer sampling fanouts, input-side first. */
    std::vector<int> fanouts = {10, 5};
    /** Base seed of the per-request sampler streams. */
    uint64_t seed = 1;
};

/**
 * Apply the GNNBENCH_SERVE_* environment overrides to @p config,
 * validating eagerly: an unknown or out-of-range value is fatal at
 * startup with a message listing the accepted form, matching the
 * GNNBENCH_KERNEL_VARIANT convention.  Knobs: GNNBENCH_SERVE_WORKERS,
 * GNNBENCH_SERVE_MAX_BATCH, GNNBENCH_SERVE_QUEUE_DEPTH,
 * GNNBENCH_SERVE_SLO_MS.
 */
ServeConfig applyServeEnv(ServeConfig config);

/**
 * The serving instance.  Construction starts the worker pool and the
 * response collector; requests are admitted immediately, but no
 * inference happens until the first publish() installs weights (the
 * workers block on the batcher, and submit() refuses requests until a
 * model is live).
 */
class Server
{
  public:
    /**
     * @param data loaded dglx dataset (graph + features + labels);
     *   borrowed, must outlive the server.
     * @param clock injectable time source; borrowed.
     */
    Server(const dglx::LoadedData &data, ServeConfig config,
           const Clock &clock);

    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Hot-swap in a new weight set; returns its version. */
    uint64_t publish(ModelWeights w);

    /** Version currently serving (0 before the first publish). */
    uint64_t weightVersion() const { return store_.version(); }

    /**
     * Submit one request for @p tenant on @p node.  Returns the
     * request id when admitted, nullopt when shed (queue full) or
     * refused (no published model / node out of range is fatal).
     */
    std::optional<uint64_t> submit(int32_t tenant, NodeId node);

    /**
     * Invoked by the collector thread for every response, before it
     * is appended to the internal results; used by closed-loop load
     * generators.  Set before the first submit.
     */
    void setOnResponse(std::function<void(const Response &)> fn);

    /** Block until every admitted request has been answered. */
    void drain();

    /** Stop admitting, drain workers, join all threads (idempotent).
     *  Flushes the "serve.*" metrics snapshot once. */
    void shutdown();

    /** Collected responses (call after drain()/shutdown(); moves). */
    std::vector<Response> takeResponses();

    /** Nodes in the served graph (valid submit() node range). */
    int64_t numNodes() const { return data_.graph->numNodes(); }

    uint64_t admitted() const { return queue_.admitted(); }
    uint64_t rejected() const { return queue_.rejected(); }
    uint64_t completed() const { return completed_.load(); }
    uint64_t batches() const { return batcher_.batches(); }
    size_t queuePeakDepth() const { return queue_.peakDepth(); }
    const ServeConfig &config() const { return config_; }

  private:
    void runWorker(int worker_index);
    void runCollector();
    void flushMetrics();
    /** Re-publish the SLO gauges; called by the collector (which owns
     *  sloWindow_) per response and once more at shutdown. */
    void publishSloGauges(double now);

    const dglx::LoadedData &data_;
    ServeConfig config_;
    const Clock &clock_;
    WeightStore store_;
    RequestQueue queue_;
    MicroBatcher batcher_;
    core::parallel::QueueStats responseStats_;
    core::parallel::BoundedQueue<Response> responses_;
    std::vector<std::thread> workers_;
    std::thread collector_;
    std::atomic<uint64_t> nextRequestId_{0};
    std::atomic<uint64_t> completed_{0};
    std::mutex resultsMutex_;
    std::condition_variable drained_;
    std::vector<Response> results_;
    std::function<void(const Response &)> onResponse_;
    /** Sliding deadline-miss window; collector-thread-only until the
     *  collector joins. */
    profiling::SloWindow sloWindow_;
    bool joined_ = false;
};

} // namespace serve
} // namespace gnnbench

#endif // GNNBENCH_SERVE_SERVER_H
