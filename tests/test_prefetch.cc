/** The prefetching pipeline and the framework dataloaders built on
 *  it: ordered delivery, exception transport, clean mid-epoch
 *  shutdown, and loader determinism across worker counts. */

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "gnnbench/dglx/dataloader.h"
#include "gnnbench/profiling/trace.h"
#include "gnnbench/pygx/dataloader.h"
#include "gnnbench/sampling/prefetch.h"

namespace gnnbench {
namespace {

using sampling::Prefetcher;

std::vector<Prefetcher<int64_t>::Producer>
echoProducers(int workers)
{
    std::vector<Prefetcher<int64_t>::Producer> out;
    for (int w = 0; w < workers; ++w)
        out.push_back([](int64_t i) { return i; });
    return out;
}

// Shutdown-hardening stress for the pipeline's backbone queue; this
// binary is in GNNBENCH_TSAN_TESTS, so the race here also runs under
// -fsanitize=thread.  Producers block on a tiny full queue while
// several threads race close(): the first close must wake every
// blocked producer and consumer exactly once (later closes are
// no-ops), no item accepted by push() may be lost, and nothing may
// deadlock.
TEST(BoundedQueue, CloseRacesBlockedProducersWithoutLossOrHang)
{
    using core::parallel::BoundedQueue;
    for (int round = 0; round < 25; ++round) {
        core::parallel::QueueStats stats;
        BoundedQueue<int> q(2, &stats);
        std::atomic<int> accepted{0};
        std::vector<std::thread> producers;
        for (int p = 0; p < 4; ++p)
            producers.emplace_back([&q, &accepted, p] {
                for (int i = 0; i < 64; ++i) {
                    if (!q.push(p * 64 + i))
                        return; // closed while blocked
                    accepted.fetch_add(1);
                }
            });
        std::atomic<int> consumed{0};
        std::thread consumer([&q, &consumed] {
            for (int i = 0; i < 8; ++i)
                if (q.pop())
                    consumed.fetch_add(1);
        });
        std::vector<std::thread> closers;
        for (int c = 0; c < 3; ++c)
            closers.emplace_back([&q] { q.close(); });
        for (auto &t : closers)
            t.join();
        for (auto &t : producers)
            t.join(); // a lost wakeup would hang here
        consumer.join();
        int drained = 0;
        while (q.pop())
            ++drained;
        // Conservation: everything push() accepted was delivered.
        EXPECT_EQ(accepted.load(), consumed.load() + drained);
        EXPECT_TRUE(q.closed());
        q.close(); // idempotent after the race settles
    }
}

TEST(BoundedQueue, CloseWakesConsumersBlockedOnEmptyQueue)
{
    core::parallel::BoundedQueue<int> q(4);
    std::vector<std::thread> consumers;
    std::atomic<int> emptied{0};
    for (int c = 0; c < 3; ++c)
        consumers.emplace_back([&q, &emptied] {
            if (!q.pop().has_value())
                emptied.fetch_add(1);
        });
    // Give the consumers a moment to block on the empty queue, then
    // close: all three must wake and observe the drained-empty state.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    for (auto &t : consumers)
        t.join();
    EXPECT_EQ(emptied.load(), 3);
    EXPECT_FALSE(q.push(1)); // closed queue refuses new work
}

TEST(Prefetcher, DeliversBatchesInSerialOrder)
{
    for (int workers : {1, 2, 4}) {
        Prefetcher<int64_t> p(echoProducers(workers), 23, 2);
        for (int64_t i = 0; i < 23; ++i) {
            auto got = p.next();
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(*got, i);
        }
        EXPECT_FALSE(p.next().has_value());
        EXPECT_FALSE(p.next().has_value()); // stays exhausted
    }
}

TEST(Prefetcher, OrderHoldsWhenWorkersFinishOutOfOrder)
{
    // Even batches take much longer than odd ones, so with two
    // workers the odd-batch worker runs far ahead; delivery order
    // must still be 0, 1, 2, ...
    std::vector<Prefetcher<int64_t>::Producer> producers;
    for (int w = 0; w < 2; ++w)
        producers.push_back([](int64_t i) {
            if (i % 2 == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            return i;
        });
    Prefetcher<int64_t> p(std::move(producers), 16, 4);
    for (int64_t i = 0; i < 16; ++i)
        EXPECT_EQ(p.next().value(), i);
}

TEST(Prefetcher, ProducerExceptionRethrownAtItsPosition)
{
    std::vector<Prefetcher<int64_t>::Producer> producers;
    for (int w = 0; w < 2; ++w)
        producers.push_back([](int64_t i) -> int64_t {
            if (i == 5)
                throw std::runtime_error("sampler failed");
            return i;
        });
    Prefetcher<int64_t> p(std::move(producers), 10, 2);
    // Batches before the failure arrive in order; batch 5 throws.
    for (int64_t i = 0; i < 5; ++i)
        EXPECT_EQ(p.next().value(), i);
    EXPECT_THROW(p.next(), std::runtime_error);
}

TEST(Prefetcher, MidEpochDestructionJoinsWorkers)
{
    std::atomic<int> alive{0};
    {
        std::vector<Prefetcher<int64_t>::Producer> producers;
        for (int w = 0; w < 4; ++w)
            producers.push_back([&alive](int64_t i) {
                ++alive;
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
                --alive;
                return i;
            });
        Prefetcher<int64_t> p(std::move(producers), 1000, 2);
        // Consume a few batches, then destroy mid-epoch.
        for (int64_t i = 0; i < 3; ++i)
            EXPECT_EQ(p.next().value(), i);
    }
    // The destructor joined every worker: none is inside a producer.
    EXPECT_EQ(alive.load(), 0);
}

TEST(Prefetcher, ShutdownUnblocksFullQueueProducers)
{
    // Depth 1 and no consumption: every worker ends up blocked in
    // push(); shutdown() must unblock and join them promptly.
    Prefetcher<int64_t> p(echoProducers(4), 1000, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    p.shutdown();
    // Batches buffered before the close still drain, in serial
    // order; at most depth per worker were buffered.
    int64_t delivered = 0;
    while (auto got = p.next()) {
        EXPECT_EQ(*got, delivered);
        ++delivered;
    }
    EXPECT_LE(delivered, 4);
    EXPECT_FALSE(p.next().has_value()); // stays exhausted
}

TEST(Prefetcher, WorkerBusySecondsCoverAllWorkers)
{
    Prefetcher<int64_t> p(echoProducers(3), 30, 2);
    while (p.next())
        ;
    const auto &busy = p.workerBusySeconds();
    ASSERT_EQ(busy.size(), 3u);
    for (double b : busy)
        EXPECT_GE(b, 0.0);
}

TEST(Prefetcher, QueueStatsCountBatchesAndBackpressure)
{
    // Depth-1 queues with instant producers and a slow consumer:
    // every worker spends most of the run blocked on a full queue.
    Prefetcher<int64_t> p(echoProducers(2), 40, 1);
    int64_t delivered = 0;
    while (auto got = p.next()) {
        EXPECT_EQ(*got, delivered);
        ++delivered;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    EXPECT_EQ(delivered, 40);
    p.shutdown();
    const core::parallel::QueueStats &qs = p.queueStats();
    EXPECT_EQ(qs.pushes.load(), 40u);
    EXPECT_EQ(qs.pops.load(), 40u);
    EXPECT_GT(qs.enqueueBlocks.load(), 0u);
    EXPECT_GE(qs.enqueueBlockNanos.load(),
              qs.enqueueBlocks.load()); // blocks take > 1 ns each
    EXPECT_GE(qs.maxDepth.load(), 1u);
}

TEST(Prefetcher, TracingRecordsOneLanePerWorker)
{
    auto &trace = profiling::TraceRecorder::global();
    trace.enable();
    {
        Prefetcher<int64_t> p(echoProducers(4), 16, 2, "pftest");
        while (p.next())
            ;
    }
    int worker_lanes = 0;
    size_t batch_events = 0;
    for (const auto &lane : trace.lanesSnapshot())
        if (lane.name.rfind("pftest/w", 0) == 0) {
            ++worker_lanes;
            for (const auto &e : lane.events)
                if (e.name.rfind("batch ", 0) == 0)
                    ++batch_events;
        }
    EXPECT_EQ(worker_lanes, 4);
    EXPECT_EQ(batch_events, 16u); // one production event per batch
    trace.clear();
    trace.disable();
}

class LoaderTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ds_ = graph::loadDataset("ppi", 0.05, 11);
        dgl_ = dglx::DataLoader::load(ds_);
        pyg_ = pygx::DataLoader::load(ds_);
        for (NodeId v = 0; v < ds_.numNodes(); v += 2)
            seeds_.push_back(v);
        for (size_t i = 0; i < seeds_.size(); i += 64)
            batches_.push_back(std::vector<NodeId>(
                seeds_.begin() + i,
                seeds_.begin() +
                    std::min(i + 64, seeds_.size())));
    }

    graph::Dataset ds_;
    dglx::LoadedData dgl_;
    pygx::LoadedData pyg_;
    std::vector<NodeId> seeds_;
    std::vector<std::vector<NodeId>> batches_;
};

TEST_F(LoaderTest, DglxNeighborLoaderDeterministicAndValid)
{
    dglx::NeighborSampler proto(*dgl_.graph, {5, 3}, core::Rng(3));
    auto run = [&](int workers) {
        core::Rng rng(21);
        dglx::NeighborLoader loader(proto, rng, batches_, workers, 2);
        std::vector<sampling::NeighborSample> out;
        while (auto s = loader.next()) {
            s->validate();
            out.push_back(std::move(*s));
        }
        return out;
    };
    auto a = run(2);
    auto b = run(2);
    ASSERT_EQ(a.size(), batches_.size());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].blocks.size(), b[i].blocks.size());
        EXPECT_EQ(a[i].seeds, b[i].seeds);
        EXPECT_EQ(a[i].seeds, batches_[i]);
        for (size_t l = 0; l < a[i].blocks.size(); ++l) {
            EXPECT_EQ(a[i].blocks[l].srcNodes, b[i].blocks[l].srcNodes);
            EXPECT_EQ(a[i].blocks[l].csc.indptr,
                      b[i].blocks[l].csc.indptr);
            EXPECT_EQ(a[i].blocks[l].csc.indices,
                      b[i].blocks[l].csc.indices);
        }
    }
}

TEST_F(LoaderTest, DglxInducedLoadersDeliverAllBatches)
{
    dglx::ClusterSampler cproto(*dgl_.graph, 16, core::Rng(5));
    core::Rng rng1(31);
    auto cluster =
        dglx::makeClusterLoader(cproto, rng1, 4, 6, 3, 2);
    int n = 0;
    while (auto s = cluster.next()) {
        s->validate();
        ++n;
    }
    EXPECT_EQ(n, 6);

    dglx::SaintRwSampler sproto(*dgl_.graph, 50, 2, core::Rng(6));
    core::Rng rng2(32);
    auto saint = dglx::makeSaintRwLoader(sproto, rng2, 5, 2, 2);
    n = 0;
    while (auto s = saint.next()) {
        s->validate();
        ++n;
    }
    EXPECT_EQ(n, 5);
}

TEST_F(LoaderTest, PygxLoaderChargesModeledOverheadOnConsumer)
{
    device::Session session;
    pygx::NeighborSampler proto(*pyg_.data, {5, 3}, core::Rng(3),
                                &session);
    const auto t0 = session.snapshot();
    core::Rng rng(21);
    pygx::NeighborLoader loader(proto, rng, batches_, 2, 2,
                                &session);
    int n = 0;
    while (auto b = loader.next()) {
        b->validate();
        ++n;
    }
    EXPECT_EQ(n, static_cast<int>(batches_.size()));
    // The workers' modeled interpreter time was charged here, on the
    // session, so virtual time advanced beyond zero.
    EXPECT_GT(device::Session::virtualSeconds(t0, session.snapshot()),
              0.0);
}

/** A batch's ids and structure, flattened with length prefixes. */
template <typename T>
void
append(std::vector<int64_t> *out, const std::vector<T> &v)
{
    out->push_back(static_cast<int64_t>(v.size()));
    out->insert(out->end(), v.begin(), v.end());
}

std::vector<int64_t>
flatten(const sampling::NeighborSample &s)
{
    std::vector<int64_t> out;
    append(&out, s.seeds);
    for (const auto &b : s.blocks) {
        append(&out, b.srcNodes);
        append(&out, b.dstNodes);
        append(&out, b.csc.indptr);
        append(&out, b.csc.indices);
    }
    return out;
}

std::vector<int64_t>
flatten(const sampling::InducedSample &s)
{
    std::vector<int64_t> out;
    append(&out, s.nodes);
    append(&out, s.adj.indptr);
    append(&out, s.adj.indices);
    return out;
}

std::vector<int64_t>
flatten(const pygx::NeighborBatch &b)
{
    std::vector<int64_t> out;
    append(&out, b.seeds);
    for (const auto &l : b.layers) {
        append(&out, l.srcNodes);
        append(&out, l.dstNodes);
        append(&out, l.eSrc);
        append(&out, l.eDst);
    }
    return out;
}

std::vector<int64_t>
flatten(const pygx::EdgeBatch &b)
{
    std::vector<int64_t> out;
    append(&out, b.nodes);
    append(&out, b.src);
    append(&out, b.dst);
    return out;
}

/** One loader epoch: every batch, and the modeled seconds charged. */
struct Epoch
{
    std::vector<std::vector<int64_t>> batches;
    double modeledSeconds = 0.0;
};

/** Drain the loader make(rng, workers, session) builds on a fresh
 *  session, so the charge is the exact sum of its batches'. */
template <typename Make>
Epoch
drainLoader(const Make &make, int workers)
{
    device::Session session;
    core::Rng rng(41);
    auto loader = make(rng, workers, session);
    Epoch e;
    while (auto b = loader.next()) {
        b->validate();
        e.batches.push_back(flatten(*b));
    }
    e.modeledSeconds = session.snapshot().modeled.cpuOverheadSeconds;
    return e;
}

// All six loaders deliver the same batches and charge the same
// modeled seconds inline and at 1 and 3 workers.  Only pygx's
// samplers model interpreter time; their prototypes charge a session
// the workers never touch.
TEST_F(LoaderTest, SixLoadersWorkerCountInvariant)
{
    device::Session proto_session;
    const dglx::NeighborSampler dn(*dgl_.graph, {5, 3}, core::Rng(3));
    const dglx::ClusterSampler dc(*dgl_.graph, 16, core::Rng(5));
    const dglx::SaintRwSampler ds(*dgl_.graph, 50, 2, core::Rng(6));
    const pygx::NeighborSampler pn(*pyg_.data, {5, 3}, core::Rng(3),
                                   &proto_session);
    const pygx::ClusterSampler pc(*pyg_.data, 16, core::Rng(5),
                                  &proto_session);
    const pygx::SaintRwSampler ps(*pyg_.data, 50, 2, core::Rng(6),
                                  &proto_session);

    auto expectInvariant = [](const char *name, bool modeled,
                              const auto &make) {
        const Epoch want = drainLoader(make, 0);
        EXPECT_FALSE(want.batches.empty()) << name;
        EXPECT_EQ(want.modeledSeconds > 0.0, modeled) << name;
        for (int workers : {1, 3}) {
            const Epoch got = drainLoader(make, workers);
            EXPECT_EQ(got.batches, want.batches)
                << name << " workers=" << workers;
            EXPECT_EQ(got.modeledSeconds, want.modeledSeconds)
                << name << " workers=" << workers;
        }
    };
    expectInvariant("dgl-neighbor", false,
                    [&](core::Rng &rng, int w, device::Session &) {
                        return dglx::NeighborLoader(dn, rng, batches_, w,
                                                    2);
                    });
    expectInvariant("dgl-cluster", false,
                    [&](core::Rng &rng, int w, device::Session &) {
                        return dglx::makeClusterLoader(dc, rng, 4, 6, w,
                                                       2);
                    });
    expectInvariant("dgl-saint", false,
                    [&](core::Rng &rng, int w, device::Session &) {
                        return dglx::makeSaintRwLoader(ds, rng, 5, w, 2);
                    });
    expectInvariant("pyg-neighbor", true,
                    [&](core::Rng &rng, int w, device::Session &s) {
                        return pygx::NeighborLoader(pn, rng, batches_, w,
                                                    2, &s);
                    });
    expectInvariant("pyg-cluster", true,
                    [&](core::Rng &rng, int w, device::Session &s) {
                        return pygx::makeClusterLoader(pc, rng, 4, 6, w,
                                                       2, &s);
                    });
    expectInvariant("pyg-saint", true,
                    [&](core::Rng &rng, int w, device::Session &s) {
                        return pygx::makeSaintRwLoader(ps, rng, 5, w, 2,
                                                       &s);
                    });
}

TEST_F(LoaderTest, LoaderDestructionMidEpochIsClean)
{
    dglx::NeighborSampler proto(*dgl_.graph, {5, 3}, core::Rng(3));
    core::Rng rng(21);
    auto loader = std::make_unique<dglx::NeighborLoader>(
        proto, rng, batches_, 4, 2);
    ASSERT_TRUE(loader->next().has_value());
    loader.reset(); // mid-epoch: must drain, join, and not hang
    SUCCEED();
}

} // namespace
} // namespace gnnbench
