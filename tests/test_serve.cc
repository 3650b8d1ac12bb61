/** The serving subsystem: request admission and shedding, the
 *  micro-batcher's dual triggers, versioned weight snapshots, eager
 *  env-knob validation, bit-exactness of the forward-only inference
 *  path against the training framework, and the determinism contract
 *  (worker-count invariance, no torn batches across hot-swaps). */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gnnbench/core/ops.h"
#include "gnnbench/core/parse.h"
#include "gnnbench/dglx/dataloader.h"
#include "gnnbench/dglx/nn.h"
#include "gnnbench/graph/datasets.h"
#include "gnnbench/serve/loadgen.h"
#include "gnnbench/serve/server.h"
#include "test_support.h"

namespace gnnbench {
namespace {

namespace ag = core::ag;

serve::Request
req(uint64_t id, double arrival, double slo = 0.05)
{
    serve::Request r;
    r.id = id;
    r.node = static_cast<NodeId>(id % 7);
    r.arrival = arrival;
    r.deadline = arrival + slo;
    return r;
}

// ---------------------------------------------------------------
// RequestQueue: admission control and shedding.
// ---------------------------------------------------------------

TEST(RequestQueue, ShedsBeyondCapacity)
{
    serve::RequestQueue q(3);
    EXPECT_TRUE(q.tryEnqueue(req(1, 0.0)));
    EXPECT_TRUE(q.tryEnqueue(req(2, 0.0)));
    EXPECT_TRUE(q.tryEnqueue(req(3, 0.0)));
    EXPECT_FALSE(q.tryEnqueue(req(4, 0.0))); // full -> shed
    EXPECT_EQ(q.admitted(), 3u);
    EXPECT_EQ(q.rejected(), 1u);
    EXPECT_EQ(q.depth(), 3u);
    EXPECT_EQ(q.peakDepth(), 3u);
}

TEST(RequestQueue, ClosedQueueShedsAndCloseIsIdempotent)
{
    serve::RequestQueue q(8);
    EXPECT_TRUE(q.tryEnqueue(req(1, 0.0)));
    q.close();
    q.close(); // second close must be a no-op
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.tryEnqueue(req(2, 0.0)));
    EXPECT_EQ(q.rejected(), 1u);
    EXPECT_EQ(q.depth(), 1u); // admitted work stays drainable
}

// ---------------------------------------------------------------
// MicroBatcher: dual triggers on an injectable clock.
// ---------------------------------------------------------------

TEST(MicroBatcher, SizeTriggerFlushesFullBatch)
{
    serve::RequestQueue q(64);
    serve::ManualClock clock;
    serve::MicroBatcher b(q, {4, 0.005, 0.0005}, clock);
    for (uint64_t i = 1; i <= 6; ++i)
        ASSERT_TRUE(q.tryEnqueue(req(i, 0.0)));
    // Six pending, max 4: a full batch forms with no clock motion.
    auto batch = b.nextBatch();
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->requests.size(), 4u);
    EXPECT_EQ(batch->requests[0].id, 1u); // admission order
    EXPECT_EQ(batch->requests[3].id, 4u);
    EXPECT_EQ(batch->batchId, 1u);
}

TEST(MicroBatcher, DeadlineSlackTriggerFlushesPartialBatch)
{
    serve::RequestQueue q(64);
    serve::ManualClock clock;
    serve::MicroBatcher b(q, {16, 0.005, 0.0005}, clock);
    ASSERT_TRUE(q.tryEnqueue(req(1, clock.now())));
    ASSERT_TRUE(q.tryEnqueue(req(2, clock.now())));
    // Inside the slack window of the oldest request's deadline:
    // waiting for more batching would risk the SLO, so the partial
    // batch must flush.
    clock.advance(0.046);
    auto batch = b.nextBatch();
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->requests.size(), 2u);
}

TEST(MicroBatcher, CloseFlushesRemainderThenEnds)
{
    serve::RequestQueue q(64);
    serve::ManualClock clock;
    serve::MicroBatcher b(q, {16, 0.005, 0.0005}, clock);
    for (uint64_t i = 1; i <= 3; ++i)
        ASSERT_TRUE(q.tryEnqueue(req(i, 0.0)));
    q.close();
    // Shutdown flush: no deadline wait even though the batch is
    // far from full and the clock never moves.
    auto batch = b.nextBatch();
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->requests.size(), 3u);
    EXPECT_FALSE(b.nextBatch().has_value()); // drained + closed
    EXPECT_FALSE(b.nextBatch().has_value()); // stays ended
}

// ---------------------------------------------------------------
// WeightStore: versioned snapshots.
// ---------------------------------------------------------------

TEST(WeightStore, VersionsAndSnapshotIsolation)
{
    serve::WeightStore store;
    EXPECT_EQ(store.version(), 0u);
    EXPECT_EQ(store.acquire(), nullptr);

    EXPECT_EQ(store.publish(serve::makeSageWeights(8, 4, 3, 1)), 1u);
    serve::WeightSnapshot v1 = store.acquire();
    ASSERT_NE(v1, nullptr);
    EXPECT_EQ(v1->version, 1u);

    EXPECT_EQ(store.publish(serve::makeSageWeights(8, 4, 3, 2)), 2u);
    EXPECT_EQ(store.version(), 2u);
    // The held snapshot is immutable across the publish.
    EXPECT_EQ(v1->version, 1u);
    EXPECT_EQ(store.acquire()->version, 2u);
}

TEST(WeightStore, MakeSageWeightsShapesAndDeterminism)
{
    serve::ModelWeights a = serve::makeSageWeights(50, 16, 7, 9);
    serve::ModelWeights b = serve::makeSageWeights(50, 16, 7, 9);
    ASSERT_EQ(a.layers.size(), 2u);
    EXPECT_EQ(a.layers[0].self.rows(), 50);
    EXPECT_EQ(a.layers[0].self.cols(), 16);
    EXPECT_EQ(a.layers[1].neigh.rows(), 16);
    EXPECT_EQ(a.layers[1].neigh.cols(), 7);
    EXPECT_EQ(a.layers[1].bias.cols(), 7);
    for (size_t l = 0; l < 2; ++l)
        for (int64_t i = 0; i < a.layers[l].self.numel(); ++i)
            ASSERT_EQ(a.layers[l].self.data()[i],
                      b.layers[l].self.data()[i]);
    EXPECT_GT(a.paramBytes(), 0u);
}

// ---------------------------------------------------------------
// Eager env-knob validation (GNNBENCH_SERVE_* convention).
// ---------------------------------------------------------------

TEST(ServeEnv, MalformedWorkerCountIsFatal)
{
    EXPECT_EXIT(core::parseInt<int>("GNNBENCH_SERVE_WORKERS", "many"),
                ::testing::ExitedWithCode(1),
                "GNNBENCH_SERVE_WORKERS must be a positive integer");
}

TEST(ServeEnv, NonPositiveQueueDepthIsFatal)
{
    EXPECT_EXIT(core::parseInt<int>("GNNBENCH_SERVE_QUEUE_DEPTH", "0"),
                ::testing::ExitedWithCode(1),
                "GNNBENCH_SERVE_QUEUE_DEPTH must be a positive");
}

TEST(ServeEnv, MalformedSloIsFatal)
{
    EXPECT_EXIT(core::parsePositive("GNNBENCH_SERVE_SLO_MS", "5ms"),
                ::testing::ExitedWithCode(1),
                "GNNBENCH_SERVE_SLO_MS must be a positive number");
}

TEST(ServeEnv, UnsetAndValidValuesApply)
{
    serve::ServeConfig base;
    base.workers = 3;
    unsetenv("GNNBENCH_SERVE_WORKERS");
    setenv("GNNBENCH_SERVE_MAX_BATCH", "", 1);
    setenv("GNNBENCH_SERVE_QUEUE_DEPTH", "8", 1);
    setenv("GNNBENCH_SERVE_SLO_MS", "12.5", 1);
    const serve::ServeConfig cfg = serve::applyServeEnv(base);
    unsetenv("GNNBENCH_SERVE_MAX_BATCH");
    unsetenv("GNNBENCH_SERVE_QUEUE_DEPTH");
    unsetenv("GNNBENCH_SERVE_SLO_MS");
    EXPECT_EQ(cfg.workers, 3);
    EXPECT_EQ(cfg.maxBatch, base.maxBatch);
    EXPECT_EQ(cfg.queueDepth, 8);
    EXPECT_DOUBLE_EQ(cfg.sloSeconds, 12.5e-3);
}

TEST(ServeEnv, ArrivalNamesRoundTrip)
{
    serve::Arrival a;
    EXPECT_TRUE(serve::parseArrival("poisson", &a));
    EXPECT_EQ(a, serve::Arrival::Poisson);
    EXPECT_TRUE(serve::parseArrival("closed", &a));
    EXPECT_EQ(a, serve::Arrival::ClosedLoop);
    EXPECT_FALSE(serve::parseArrival("uniform", &a));
    EXPECT_STREQ(serve::validArrivalList(), "poisson/closed");
}

// ---------------------------------------------------------------
// Inference path: bit-exact vs the training framework's forward.
// ---------------------------------------------------------------

struct ServeFixture
{
    graph::Dataset ds;
    dglx::LoadedData data;

    explicit ServeFixture(double scale = 0.1)
        : ds(graph::loadDataset("ppi", scale, testenv::seed())),
          data(dglx::DataLoader::load(ds))
    {
    }
};

TEST(ServeInference, BitExactVsSageConvForwardBlock)
{
    ServeFixture f;
    const int64_t hidden = 16;
    const uint64_t wseed = testenv::seed() + 17;
    serve::ModelWeights w = serve::makeSageWeights(
        f.ds.info.numFeatures, hidden, f.ds.info.numClasses, wseed);

    // Trainer-side layers from the identical draw sequence.
    core::Rng rng(wseed);
    core::Rng wrng = rng.fork();
    dglx::SageConv layer1(f.ds.info.numFeatures, hidden, wrng);
    dglx::SageConv layer2(hidden, f.ds.info.numClasses, wrng);

    dglx::NeighborSampler sampler(*f.data.graph, {10, 5},
                                  core::Rng(testenv::seed()));
    const std::vector<NodeId> seeds = {1, 5, 9, 23};
    sampling::NeighborSample smp = sampler.sample(seeds);

    core::Tensor x =
        core::ops::gatherRows(f.data.features, smp.inputNodes());
    core::Tensor got = serve::inferLogits(smp, x, w);

    dglx::KernelCtx ctx;
    ag::Var xv = ag::leaf(
        core::ops::gatherRows(f.data.features, smp.inputNodes()),
        false);
    ag::Var h = layer1.forwardBlock(smp.blocks[0], xv, ctx);
    h = ag::relu(h);
    ag::Var want = layer2.forwardBlock(smp.blocks[1], h, ctx);

    ASSERT_EQ(got.rows(), want->value.rows());
    ASSERT_EQ(got.cols(), want->value.cols());
    for (int64_t i = 0; i < got.numel(); ++i)
        ASSERT_EQ(got.data()[i], want->value.data()[i])
            << "logit " << i << " diverges from the dglx forward";
}

TEST(ServeInference, ArgmaxBreaksTiesLow)
{
    core::Tensor t = core::Tensor::zeros(1, 4);
    t(0, 1) = 2.0f;
    t(0, 3) = 2.0f;
    EXPECT_EQ(serve::argmaxClass(t, 0), 1);
}

// ---------------------------------------------------------------
// Server end-to-end: determinism and hot-swap isolation.
// ---------------------------------------------------------------

/** Submit @p nodes in order and return id -> (version, logits). */
std::map<uint64_t, std::pair<uint64_t, std::vector<float>>>
serveAll(serve::Server &server, const std::vector<NodeId> &nodes)
{
    for (size_t i = 0; i < nodes.size(); ++i) {
        const auto id = server.submit(
            static_cast<int32_t>(i % 3), nodes[i]);
        EXPECT_TRUE(id.has_value());
    }
    server.drain();
    std::map<uint64_t, std::pair<uint64_t, std::vector<float>>> out;
    for (auto &r : server.takeResponses())
        out[r.id] = {r.weightVersion, std::move(r.logits)};
    return out;
}

std::vector<NodeId>
someNodes(const ServeFixture &f, size_t n)
{
    std::vector<NodeId> nodes;
    core::Rng rng(testenv::seed() + 3);
    for (size_t i = 0; i < n; ++i)
        nodes.push_back(static_cast<NodeId>(rng.uniformInt(
            static_cast<uint64_t>(f.data.graph->numNodes()))));
    return nodes;
}

TEST(Server, BitIdenticalAcrossWorkerCountsAndHotSwap)
{
    ServeFixture f;
    const std::vector<NodeId> nodes = someNodes(f, 24);
    const serve::RealClock clock;

    // Phase structure: nodes under v1, hot-swap, same nodes under
    // v2.  Responses are keyed by request id, which depends only on
    // submission order -- identical across runs.
    std::map<uint64_t, std::pair<uint64_t, std::vector<float>>>
        baseline;
    for (int workers : {1, 2, 4}) {
        serve::ServeConfig cfg;
        cfg.workers = workers;
        cfg.maxBatch = 5; // force multi-batch coalescing
        cfg.seed = testenv::seed();
        serve::Server server(f.data, cfg, clock);
        server.publish(serve::makeSageWeights(
            f.ds.info.numFeatures, 16, f.ds.info.numClasses, 11));
        auto phase1 = serveAll(server, nodes);
        server.publish(serve::makeSageWeights(
            f.ds.info.numFeatures, 16, f.ds.info.numClasses, 12));
        auto phase2 = serveAll(server, nodes);
        server.shutdown();

        for (const auto &[id, vr] : phase1)
            EXPECT_EQ(vr.first, 1u) << "request " << id;
        for (const auto &[id, vr] : phase2)
            EXPECT_EQ(vr.first, 2u) << "request " << id;
        ASSERT_EQ(phase1.size(), nodes.size());
        ASSERT_EQ(phase2.size(), nodes.size());

        // The hot-swap must change the answers (different weights)...
        bool anyDiff = false;
        for (const auto &[id, vr] : phase1)
            if (vr.second != phase2.at(id + nodes.size()).second)
                anyDiff = true;
        EXPECT_TRUE(anyDiff);

        auto all = phase1;
        all.insert(phase2.begin(), phase2.end());
        if (baseline.empty()) {
            baseline = std::move(all);
            continue;
        }
        // ...and every logit must be bit-identical to the 1-worker
        // run: batching and scheduling may not leak into results.
        ASSERT_EQ(all.size(), baseline.size()) << workers;
        for (const auto &[id, vr] : baseline) {
            const auto it = all.find(id);
            ASSERT_NE(it, all.end()) << workers;
            EXPECT_EQ(it->second.first, vr.first);
            ASSERT_EQ(it->second.second.size(), vr.second.size());
            for (size_t j = 0; j < vr.second.size(); ++j)
                ASSERT_EQ(it->second.second[j], vr.second[j])
                    << "request " << id << " logit " << j << " with "
                    << workers << " workers";
        }
    }
}

TEST(Server, NoTornBatchUnderConcurrentPublishes)
{
    ServeFixture f;
    const serve::RealClock clock;
    serve::ServeConfig cfg;
    cfg.workers = 2;
    cfg.maxBatch = 8;
    cfg.seed = testenv::seed();
    serve::Server server(f.data, cfg, clock);
    server.publish(serve::makeSageWeights(f.ds.info.numFeatures, 16,
                                          f.ds.info.numClasses, 1));

    // A publisher hammers hot-swaps while requests flow.
    std::atomic<bool> stop{false};
    std::thread publisher([&] {
        uint64_t s = 2;
        while (!stop.load())
            server.publish(serve::makeSageWeights(
                f.ds.info.numFeatures, 16, f.ds.info.numClasses,
                s++));
    });
    const std::vector<NodeId> nodes = someNodes(f, 64);
    for (size_t i = 0; i < nodes.size(); ++i)
        ASSERT_TRUE(server.submit(0, nodes[i]).has_value());
    server.drain();
    stop.store(true);
    publisher.join();
    std::vector<serve::Response> responses = server.takeResponses();
    server.shutdown();

    ASSERT_EQ(responses.size(), nodes.size());
    // Snapshot isolation: every response of a batch names the same
    // weight version, no matter how publishes interleaved.
    std::map<uint64_t, uint64_t> versionOfBatch;
    for (const auto &r : responses) {
        const auto [it, fresh] =
            versionOfBatch.emplace(r.batchId, r.weightVersion);
        EXPECT_EQ(it->second, r.weightVersion)
            << "torn batch " << r.batchId;
        (void)fresh;
    }
}

TEST(Server, ShedsWhenQueueOverflowsAndAnswersTheRest)
{
    ServeFixture f;
    const serve::RealClock clock;
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.maxBatch = 2;
    cfg.queueDepth = 2; // tiny bound: bursts must shed
    cfg.seed = testenv::seed();
    serve::Server server(f.data, cfg, clock);
    server.publish(serve::makeSageWeights(f.ds.info.numFeatures, 16,
                                          f.ds.info.numClasses, 1));
    const std::vector<NodeId> nodes = someNodes(f, 64);
    uint64_t ok = 0;
    for (const NodeId n : nodes)
        if (server.submit(0, n))
            ++ok;
    server.drain();
    server.shutdown();
    EXPECT_EQ(server.admitted(), ok);
    EXPECT_EQ(server.admitted() + server.rejected(), nodes.size());
    EXPECT_EQ(server.completed(), ok); // every admission answered
    EXPECT_LE(server.queuePeakDepth(), 2u);
}

TEST(Server, SubmitBeforePublishIsFatal)
{
    ServeFixture f;
    const serve::RealClock clock;
    serve::Server server(f.data, serve::ServeConfig{}, clock);
    EXPECT_EXIT(server.submit(0, 0), ::testing::ExitedWithCode(1),
                "before the first weight publish");
}

// ---------------------------------------------------------------
// Load generators.
// ---------------------------------------------------------------

TEST(LoadGen, ClosedLoopAnswersEveryRequest)
{
    ServeFixture f;
    const serve::RealClock clock;
    serve::ServeConfig cfg;
    cfg.workers = 2;
    cfg.seed = testenv::seed();
    serve::Server server(f.data, cfg, clock);
    server.publish(serve::makeSageWeights(f.ds.info.numFeatures, 16,
                                          f.ds.info.numClasses, 1));
    serve::LoadGenConfig lg;
    lg.arrival = serve::Arrival::ClosedLoop;
    lg.closedLoopClients = 4;
    lg.tenants = 3;
    lg.requests = 40;
    const serve::LoadGenResult res =
        serve::runLoadGen(server, lg, clock);
    server.shutdown();
    EXPECT_EQ(res.submitted + res.shed, 40);
    EXPECT_EQ(server.completed(), server.admitted());
    // Closed loop never outruns the queue (clients <= queueDepth).
    EXPECT_EQ(res.shed, 0);
}

TEST(LoadGen, PoissonSubmitsAllAtHighRate)
{
    ServeFixture f;
    const serve::RealClock clock;
    serve::ServeConfig cfg;
    cfg.workers = 2;
    cfg.seed = testenv::seed();
    serve::Server server(f.data, cfg, clock);
    server.publish(serve::makeSageWeights(f.ds.info.numFeatures, 16,
                                          f.ds.info.numClasses, 1));
    serve::LoadGenConfig lg;
    lg.arrival = serve::Arrival::Poisson;
    lg.targetQps = 1e6; // effectively back-to-back
    lg.requests = 50;
    const serve::LoadGenResult res =
        serve::runLoadGen(server, lg, clock);
    server.drain();
    server.shutdown();
    EXPECT_EQ(res.submitted + res.shed, 50);
    EXPECT_EQ(server.completed(), server.admitted());
    EXPECT_GE(res.lastSubmit, res.firstSubmit);
}

} // namespace
} // namespace gnnbench
