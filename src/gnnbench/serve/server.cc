#include "gnnbench/serve/server.h"

#include <cstdlib>
#include <string>
#include <unordered_set>

#include "gnnbench/core/ops.h"
#include "gnnbench/core/parse.h"
#include "gnnbench/core/rng.h"
#include "gnnbench/profiling/metrics_registry.h"
#include "gnnbench/profiling/trace.h"

namespace gnnbench {
namespace serve {

namespace {

/** Upper bound of the integer GNNBENCH_SERVE_* knobs. */
constexpr int kMaxServeKnob = 1 << 20;

} // namespace

ServeConfig
applyServeEnv(ServeConfig config)
{
    config.workers = core::envInt("GNNBENCH_SERVE_WORKERS",
                                  config.workers, 1, kMaxServeKnob);
    config.maxBatch = core::envInt("GNNBENCH_SERVE_MAX_BATCH",
                                   config.maxBatch, 1, kMaxServeKnob);
    config.queueDepth = core::envInt("GNNBENCH_SERVE_QUEUE_DEPTH",
                                     config.queueDepth, 1, kMaxServeKnob);
    config.sloSeconds = core::envPositive("GNNBENCH_SERVE_SLO_MS",
                                          config.sloSeconds * 1e3) *
                        1e-3;
    return config;
}

Server::Server(const dglx::LoadedData &data, ServeConfig config,
               const Clock &clock)
    : data_(data), config_(std::move(config)), clock_(clock),
      queue_(static_cast<size_t>(config_.queueDepth)),
      batcher_(queue_,
               BatcherConfig{config_.maxBatch,
                             config_.flushSlackSeconds,
                             /*pollSeconds=*/0.0005},
               clock_),
      responses_(static_cast<size_t>(config_.queueDepth) +
                     static_cast<size_t>(config_.workers) *
                         static_cast<size_t>(config_.maxBatch),
                 &responseStats_)
{
    GNNBENCH_CHECK(config_.workers > 0,
                   "serve worker count must be positive");
    GNNBENCH_CHECK(!config_.fanouts.empty(),
                   "serve fanouts must not be empty");
    GNNBENCH_CHECK(config_.sloSeconds > 0.0,
                   "serve SLO must be positive");
    collector_ = std::thread([this] { runCollector(); });
    workers_.reserve(static_cast<size_t>(config_.workers));
    for (int w = 0; w < config_.workers; ++w)
        workers_.emplace_back([this, w] { runWorker(w); });
}

Server::~Server() { shutdown(); }

uint64_t
Server::publish(ModelWeights w)
{
    GNNBENCH_CHECK(w.inDim == data_.features.cols(),
                   "published weights expect ", w.inDim,
                   " input features, dataset has ",
                   data_.features.cols());
    GNNBENCH_CHECK(w.layers.size() == config_.fanouts.size(),
                   "published weights have ", w.layers.size(),
                   " layers but the server samples ",
                   config_.fanouts.size(), " hops");
    const uint64_t version = store_.publish(std::move(w));
    profiling::MetricsRegistry::global()
        .counter("serve.weight_publishes")
        .add(1);
    return version;
}

std::optional<uint64_t>
Server::submit(int32_t tenant, NodeId node)
{
    GNNBENCH_CHECK(node >= 0 && node < data_.graph->numNodes(),
                   "request node ", node, " out of range [0, ",
                   data_.graph->numNodes(), ")");
    GNNBENCH_CHECK(store_.version() > 0,
                   "submit before the first weight publish");
    Request r;
    r.id = nextRequestId_.fetch_add(1, std::memory_order_relaxed) + 1;
    r.tenant = tenant;
    r.node = node;
    r.arrival = clock_.now();
    r.deadline = r.arrival + config_.sloSeconds;
    if (!queue_.tryEnqueue(r))
        return std::nullopt;
    return r.id;
}

void
Server::setOnResponse(std::function<void(const Response &)> fn)
{
    std::lock_guard lock(resultsMutex_);
    onResponse_ = std::move(fn);
}

void
Server::drain()
{
    std::unique_lock lock(resultsMutex_);
    drained_.wait(lock, [this] {
        return completed_.load() == queue_.admitted();
    });
}

void
Server::shutdown()
{
    if (joined_)
        return;
    queue_.close();
    for (auto &t : workers_)
        if (t.joinable())
            t.join();
    responses_.close();
    if (collector_.joinable())
        collector_.join();
    joined_ = true;
    flushMetrics();
}

std::vector<Response>
Server::takeResponses()
{
    std::lock_guard lock(resultsMutex_);
    return std::move(results_);
}

void
Server::runWorker(int worker_index)
{
    // One core per worker: nested kernel parallelFor runs serially,
    // the DataLoader-worker execution model the pipelines share.
    core::parallel::WorkerThreadScope scope;
    profiling::TraceRecorder &trace =
        profiling::TraceRecorder::global();
    trace.setThreadLaneName("serve/w" +
                            std::to_string(worker_index));
    // Per-worker sampler clone; the stream installed here is
    // irrelevant because every request reseeds it from its id.
    dglx::NeighborSampler sampler(*data_.graph, config_.fanouts,
                                  core::Rng(config_.seed));
    while (auto batch = batcher_.nextBatch()) {
        // ONE snapshot for the whole batch: every request coalesced
        // here is answered by the same weight version, no matter how
        // publish() interleaves (snapshot isolation).
        WeightSnapshot weights = store_.acquire();
        GNNBENCH_ASSERT(weights != nullptr,
                        "batch formed before any weight publish");
        profiling::TraceScope ts(
            trace, "batch " + std::to_string(batch->batchId),
            "serve");
        for (const Request &r : batch->requests) {
            // The sampled neighborhood is a pure function of the
            // request id — independent of batching, worker count,
            // and arrival timing (the determinism contract).
            sampler.reseed(core::Rng(core::parallel::chunkSeed(
                config_.seed, 0x5e12e5e12e5e12e5ULL, r.id)));
            sampling::NeighborSample smp = sampler.sample({r.node});
            core::Tensor x = core::ops::gatherRows(
                data_.features, smp.inputNodes());
            core::Tensor logits = inferLogits(smp, x, *weights);
            Response resp;
            resp.id = r.id;
            resp.tenant = r.tenant;
            resp.node = r.node;
            resp.predicted = argmaxClass(logits, 0);
            resp.logits.assign(logits.row(0),
                               logits.row(0) + logits.cols());
            resp.weightVersion = weights->version;
            resp.batchId = batch->batchId;
            resp.batchSize =
                static_cast<int>(batch->requests.size());
            resp.arrival = r.arrival;
            resp.deadline = r.deadline;
            resp.finish = clock_.now();
            responses_.push(std::move(resp));
        }
    }
    profiling::flushRngDraws();
}

void
Server::runCollector()
{
    auto &reg = profiling::MetricsRegistry::global();
    profiling::Histogram &latency = reg.histogram(
        "serve.latency_seconds",
        {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0});
    profiling::Histogram &batch_size = reg.histogram(
        "serve.batch_size", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
    profiling::Counter &misses =
        reg.counter("serve.deadline_misses");
    std::unordered_set<uint64_t> batches_seen;
    while (auto resp = responses_.pop()) {
        const Response r = std::move(*resp);
        latency.observe(r.latency());
        if (r.missedDeadline())
            misses.add(1);
        sloWindow_.observe(r.finish, r.missedDeadline());
        publishSloGauges(r.finish);
        // One batch-size observation per batch; workers interleave
        // pushes, so track seen ids instead of assuming contiguity.
        if (batches_seen.insert(r.batchId).second)
            batch_size.observe(static_cast<double>(r.batchSize));
        std::function<void(const Response &)> cb;
        {
            std::lock_guard lock(resultsMutex_);
            cb = onResponse_;
        }
        // The callback must finish BEFORE completed_ advances:
        // drain() returning is the caller's license to destroy
        // whatever state the callback touches.
        if (cb)
            cb(r);
        {
            // completed_ advances under the same mutex drain() waits
            // on, so its predicate can never miss the final wakeup.
            std::lock_guard lock(resultsMutex_);
            results_.push_back(r);
            completed_.fetch_add(1, std::memory_order_relaxed);
        }
        drained_.notify_all();
    }
}

void
Server::publishSloGauges(double now)
{
    auto &reg = profiling::MetricsRegistry::global();
    const profiling::Histogram &latency = reg.histogram(
        "serve.latency_seconds",
        {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0});
    reg.gauge("serve.slo_p50_seconds").set(latency.percentile(0.50));
    reg.gauge("serve.slo_p95_seconds").set(latency.percentile(0.95));
    reg.gauge("serve.slo_p99_seconds").set(latency.percentile(0.99));
    reg.gauge("serve.slo_miss_rate").set(sloWindow_.missRate(now));
    reg.gauge("serve.slo_burn_rate").set(sloWindow_.burnRate(now));
    reg.gauge("serve.queue_depth")
        .set(static_cast<double>(queue_.depth()));
    const double admitted = static_cast<double>(queue_.admitted());
    const double rejected = static_cast<double>(queue_.rejected());
    reg.gauge("serve.shed_rate")
        .set(admitted + rejected > 0.0
                 ? rejected / (admitted + rejected)
                 : 0.0);
}

void
Server::flushMetrics()
{
    auto &reg = profiling::MetricsRegistry::global();
    reg.counter("serve.requests_admitted").add(queue_.admitted());
    reg.counter("serve.requests_rejected").add(queue_.rejected());
    reg.counter("serve.requests_completed").add(completed_.load());
    reg.counter("serve.batches").add(batcher_.batches());
    reg.gauge("serve.queue_depth_peak")
        .updateMax(static_cast<double>(queue_.peakDepth()));
    reg.counter("serve.response_queue.dequeue_blocks")
        .add(responseStats_.dequeueBlocks.load());
    // Final gauge publication — the collector has joined by now, so
    // sloWindow_ is safe to read from this thread.
    publishSloGauges(clock_.now());
}

} // namespace serve
} // namespace gnnbench
