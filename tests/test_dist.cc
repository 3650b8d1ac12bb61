/**
 * Tests for the partition-parallel training stack (dist/): sharding
 * invariants, the exact allreduce, the feature data store, and the
 * end-to-end determinism matrix — N-rank training must be
 * bit-identical to 1-rank training at every thread count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "gnnbench/check/property.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/dist/data_store.h"
#include "gnnbench/dist/exact.h"
#include "gnnbench/dist/shard.h"
#include "gnnbench/dist/trainer.h"
#include "gnnbench/graph/convert.h"
#include "test_support.h"

namespace gnnbench {
namespace dist {
namespace {

/**
 * A small synthetic node-classification dataset with directed extra
 * edges (so haloIn != haloOut), self-loops, and a ring keeping every
 * node reachable.
 */
graph::Dataset
makeDataset(NodeId n, int64_t f, int32_t classes, uint64_t seed)
{
    core::Rng rng(seed);
    graph::Dataset ds;
    ds.info.name = "synthetic";
    ds.info.numNodes = n;
    ds.info.numFeatures = f;
    ds.info.numClasses = classes;
    ds.graph.numNodes = n;
    for (NodeId v = 0; v < n; ++v) {
        ds.graph.addEdge(v, (v + 1) % n);
        ds.graph.addEdge((v + 1) % n, v);
    }
    for (EdgeId e = 0; e < 3 * static_cast<EdgeId>(n); ++e)
        ds.graph.addEdge(
            static_cast<NodeId>(rng.uniformInt(n)),
            static_cast<NodeId>(rng.uniformInt(n)));
    for (int i = 0; i < 5; ++i) {
        const NodeId v = static_cast<NodeId>(rng.uniformInt(n));
        ds.graph.addEdge(v, v);
    }
    ds.info.numEdges = ds.graph.numEdges();
    ds.features = core::Tensor::randn(n, f, rng, 0.5f);
    ds.labels.resize(static_cast<size_t>(n));
    for (auto &l : ds.labels)
        l = static_cast<int32_t>(rng.uniformInt(
            static_cast<uint64_t>(classes)));
    for (NodeId v = 0; v < n; ++v)
        if (rng.uniformInt(10) < 6)
            ds.trainIdx.push_back(v);
    return ds;
}

void
expectBitEqual(const core::Tensor &a, const core::Tensor &b,
               const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.bytes()))
        << what << ": weight bits differ";
}

// ---------------------------------------------------------------------------
// The tentpole contract: the determinism matrix.

TEST(DistTrainer, RankThreadDeterminismMatrix)
{
    const graph::Dataset ds =
        makeDataset(120, 12, 4, testenv::seed());
    DistConfig cfg;
    cfg.epochs = 3;
    cfg.hiddenDim = 16;
    cfg.numRanks = 1;
    const DistResult base = trainDistributedSage(ds, cfg);
    ASSERT_EQ(base.weights.size(),
              static_cast<size_t>(kNumDistWeights));
    ASSERT_EQ(base.epochs.size(), 3u);

    const int save_threads = core::parallel::numThreads();
    for (int ranks : {1, 2, 4, 8}) {
        for (int threads : {1, 4}) {
            core::parallel::setNumThreads(threads);
            cfg.numRanks = ranks;
            const DistResult r = trainDistributedSage(ds, cfg);
            core::parallel::setNumThreads(save_threads);
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " threads=" + std::to_string(threads));
            ASSERT_EQ(r.weights.size(), base.weights.size());
            for (int k = 0; k < kNumDistWeights; ++k)
                expectBitEqual(r.weights[static_cast<size_t>(k)],
                               base.weights[static_cast<size_t>(k)],
                               kDistWeightNames[k]);
            // Loss/accuracy go through the exact accumulator too:
            // the doubles must match exactly, not approximately.
            ASSERT_EQ(r.epochs.size(), base.epochs.size());
            for (size_t e = 0; e < r.epochs.size(); ++e) {
                EXPECT_EQ(r.epochs[e].loss, base.epochs[e].loss);
                EXPECT_EQ(r.epochs[e].accuracy,
                          base.epochs[e].accuracy);
            }
        }
    }
}

TEST(DistTrainer, LossDecreases)
{
    // Bit-identity cannot catch a consistently-wrong gradient; the
    // hand-rolled backward must actually descend.
    const graph::Dataset ds =
        makeDataset(150, 10, 3, testenv::seed() + 1);
    DistConfig cfg;
    cfg.numRanks = 2;
    cfg.epochs = 10;
    cfg.hiddenDim = 16;
    cfg.lr = 5e-3f;
    const DistResult r = trainDistributedSage(ds, cfg);
    EXPECT_LT(r.epochs.back().loss, r.epochs.front().loss);
}

TEST(DistTrainer, CommAccountingScalesWithRanks)
{
    const graph::Dataset ds =
        makeDataset(200, 8, 3, testenv::seed() + 2);
    DistConfig cfg;
    cfg.epochs = 2;
    cfg.hiddenDim = 8;

    cfg.numRanks = 1;
    const DistResult r1 = trainDistributedSage(ds, cfg);
    EXPECT_EQ(r1.haloMessages, 0u);
    EXPECT_EQ(r1.haloBytes, 0u);
    EXPECT_EQ(r1.allreduceBytes, 0u);
    EXPECT_EQ(r1.cutEdges, 0u);

    cfg.numRanks = 4;
    const DistResult r4 = trainDistributedSage(ds, cfg);
    EXPECT_GT(r4.haloMessages, 0u);
    EXPECT_GT(r4.haloBytes, 0u);
    EXPECT_GT(r4.allreduceBytes, 0u);
    EXPECT_GT(r4.cutEdges, 0u);
    EXPECT_GT(r4.modeledSeconds, 0.0);
    EXPECT_GT(r4.commSeconds, 0.0);
    // With the default unbounded store, every halo feature row is
    // fetched once (epoch 1) and served from cache after: 2 epochs
    // give a hit rate of exactly 1/2.
    EXPECT_EQ(r4.datastoreEvictions, 0u);
    EXPECT_DOUBLE_EQ(r4.datastoreHitRate, 0.5);
}

// ---------------------------------------------------------------------------
// Sharding: hand-built partitions.

TEST(DistShard, HaloRoundTripHandBuilt)
{
    // Asymmetric 6-node graph across 2 ranks, so haloIn != haloOut:
    //   rank0 owns {0,1,2}, rank1 owns {3,4,5}
    //   local edges: 0->1, 1->2, 3->4;  self-loops: 0->0, 5->5
    //   cut edges:   2->3 (into rank1), 4->1 (into rank0)
    graph::CooGraph coo;
    coo.numNodes = 6;
    coo.addEdge(0, 1);
    coo.addEdge(1, 2);
    coo.addEdge(3, 4);
    coo.addEdge(0, 0);
    coo.addEdge(5, 5);
    coo.addEdge(2, 3);
    coo.addEdge(4, 1);
    const graph::CsrGraph csr = graph::cooToCsr(coo);
    const graph::CsrGraph csc = graph::cooToCsc(coo);

    const ShardedGraph sharded =
        shardGraph(csr, csc, 2, {0, 0, 0, 1, 1, 1});
    EXPECT_EQ(sharded.cutEdges, 2u);

    const RankShard &r0 = sharded.ranks[0];
    const RankShard &r1 = sharded.ranks[1];
    EXPECT_EQ(r0.localNodes, (std::vector<NodeId>{0, 1, 2}));
    EXPECT_EQ(r0.haloIn, (std::vector<NodeId>{4}));
    EXPECT_EQ(r0.haloOut, (std::vector<NodeId>{3}));
    EXPECT_EQ(r1.localNodes, (std::vector<NodeId>{3, 4, 5}));
    EXPECT_EQ(r1.haloIn, (std::vector<NodeId>{2}));
    EXPECT_EQ(r1.haloOut, (std::vector<NodeId>{1}));

    const check::Result chk = checkShard(csr, csc, sharded);
    EXPECT_TRUE(chk.ok) << chk.message;

    // Round trip: every local CSC row, with combined columns mapped
    // back to global ids, must reproduce the global CSC row.
    for (const RankShard &shard : sharded.ranks) {
        for (NodeId i = 0; i < shard.numLocal(); ++i) {
            const NodeId u = shard.localNodes[i];
            ASSERT_EQ(shard.csc.degree(i), csc.degree(u));
            for (EdgeId e = shard.csc.indptr[i];
                 e < shard.csc.indptr[i + 1]; ++e) {
                const NodeId col =
                    shard.csc.indices[static_cast<size_t>(e)];
                const NodeId global =
                    col < shard.numLocal()
                        ? shard.localNodes[col]
                        : shard.haloIn[static_cast<size_t>(
                              col - shard.numLocal())];
                const EdgeId ge =
                    csc.indptr[u] + (e - shard.csc.indptr[i]);
                EXPECT_EQ(global,
                          csc.indices[static_cast<size_t>(ge)])
                    << "row order not preserved at node " << u;
            }
        }
    }
}

TEST(DistShard, PropertyShardInvariants)
{
    // checkShard over the generated case families (including the
    // partition-shaped 'clustered' one); failures shrink to a repro
    // seed via the gnncheck harness.
    const check::Property prop =
        [](const check::GraphCase &c) -> check::Result {
        const graph::CsrGraph csr = graph::cooToCsr(c.coo);
        const graph::CsrGraph csc = graph::cooToCsc(c.coo);
        core::Rng rng(c.seed ^ 0x5eedULL);
        for (int ranks : {2, 3}) {
            const ShardedGraph sharded =
                partitionAndShard(csr, csc, ranks, rng);
            const check::Result r = checkShard(csr, csc, sharded);
            if (!r.ok)
                return r;
        }
        return check::Result::pass();
    };
    check::PropertyOptions opts;
    opts.numCases = 120;
    opts.baseSeed = testenv::seed();
    EXPECT_TRUE(
        check::checkProperty("dist-shard-invariants", prop, opts));
}

// ---------------------------------------------------------------------------
// Exact allreduce.

TEST(DistExact, AllreduceOrderInvariance)
{
    core::Rng rng(testenv::seed() + 7);
    constexpr int kParts = 5;
    ExactTensor parts[kParts];
    for (auto &p : parts) {
        p = ExactTensor(3, 4);
        for (int t = 0; t < 50; ++t)
            p.addProduct(
                static_cast<int64_t>(rng.uniformInt(3)),
                static_cast<int64_t>(rng.uniformInt(4)),
                static_cast<float>(rng.normal()) * 10.0f,
                static_cast<float>(rng.normal()) * 0.01f);
    }

    const int orders[][kParts] = {{0, 1, 2, 3, 4},
                                  {4, 3, 2, 1, 0},
                                  {2, 0, 4, 1, 3}};
    ExactTensor merged[3];
    for (int o = 0; o < 3; ++o) {
        merged[o] = ExactTensor(3, 4);
        for (int i : orders[o])
            merged[o].merge(parts[i]);
    }
    for (int o = 1; o < 3; ++o)
        for (size_t i = 0; i < 12; ++i)
            EXPECT_TRUE(merged[0].raw(i) == merged[o].raw(i))
                << "order " << o << " word " << i;

    ExactScalar sa, sb;
    sa.add(1e10);
    sa.add(-3.5e-20);
    sa.add(2.25);
    sb.add(2.25);
    sb.add(1e10);
    sb.add(-3.5e-20);
    EXPECT_EQ(sa.value(), sb.value());
}

TEST(DistExact, RoundTripsSimpleValues)
{
    EXPECT_EQ(fromFixed(toFixed(1.5)), 1.5);
    EXPECT_EQ(fromFixed(toFixed(-2.75)), -2.75);
    EXPECT_EQ(fromFixed(toFixed(0.0)), 0.0);
    // Wraparound of mixed-sign partials cancels exactly.
    ExactScalar s;
    s.add(-123.456);
    s.add(123.456);
    EXPECT_EQ(s.value(), 0.0);
}

// ---------------------------------------------------------------------------
// The exact gradient GEMM against its per-term definition.

/** a^T b term by term through addProduct, skipping a(u,i) == 0: the
 *  definition exactMatmulTa computes in vector lanes. */
ExactTensor
perTermMatmulTa(const core::Tensor &a, const core::Tensor &b)
{
    ExactTensor out(a.cols(), b.cols());
    for (int64_t u = 0; u < a.rows(); ++u)
        for (int64_t i = 0; i < a.cols(); ++i)
            if (a(u, i) != 0.0f)
                for (int64_t j = 0; j < b.cols(); ++j)
                    out.addProduct(i, j, a(u, i), b(u, j));
    return out;
}

void
expectSameWords(const ExactTensor &want, const ExactTensor &got)
{
    ASSERT_EQ(want.rows(), got.rows());
    ASSERT_EQ(want.cols(), got.cols());
    int64_t differing = 0;
    for (int64_t k = 0; k < want.numel(); ++k)
        differing += want.raw(static_cast<size_t>(k)) !=
                     got.raw(static_cast<size_t>(k));
    EXPECT_EQ(differing, 0) << "of " << want.numel() << " words";
}

/**
 * One operand value: a signed zero with probability @p zeros, else a
 * float subnormal, a full-significand value near 2^-20 (two of them
 * multiply below 2^-32 and truncate), one in [2^-8, 2^8) (two of
 * them reach the accumulator's high word) or a standard normal.
 */
float
termValue(core::Rng &rng, double zeros)
{
    if (rng.bernoulli(zeros))
        return rng.bernoulli(0.5) ? 0.0f : -0.0f;
    const float sign = rng.bernoulli(0.5) ? -1.0f : 1.0f;
    const float frac = 1.0f + rng.uniformFloat();
    switch (rng.uniformInt(4)) {
    case 0:
        return sign * std::ldexp(frac, -127 - static_cast<int>(
                                            rng.uniformInt(20)));
    case 1:
        return sign * std::ldexp(frac, -16 - static_cast<int>(
                                           rng.uniformInt(8)));
    case 2:
        return sign * std::ldexp(frac, static_cast<int>(
                                           rng.uniformRange(-8, 8)));
    default:
        return static_cast<float>(rng.normal());
    }
}

/** Operands with about 20% zeros in a and 60% in b, as in the
 *  trainer's gradients, where every third row repeats the previous
 *  row of a against its negated b row, so those terms cancel. */
void
makeOperands(int64_t rows, int64_t acols, int64_t bcols, core::Rng &rng,
             core::Tensor *a, core::Tensor *b)
{
    *a = core::Tensor(rows, acols);
    *b = core::Tensor(rows, bcols);
    for (int64_t u = 0; u < rows; ++u) {
        const bool mirror = u % 3 == 2;
        for (int64_t i = 0; i < acols; ++i)
            (*a)(u, i) = mirror ? (*a)(u - 1, i) : termValue(rng, 0.2);
        for (int64_t j = 0; j < bcols; ++j)
            (*b)(u, j) = mirror ? -(*b)(u - 1, j) : termValue(rng, 0.6);
    }
}

TEST(DistExact, MatmulTaMatchesPerTermLoop)
{
    core::Rng rng(testenv::seed() + 11);
    for (int64_t rows : {0, 1, 7, 300})
        for (int64_t acols : {1, 7, 8, 9, 65})
            for (int64_t bcols : {1, 7, 8, 9, 64, 65}) {
                SCOPED_TRACE(std::to_string(rows) + "x" +
                             std::to_string(acols) + " vs " +
                             std::to_string(bcols) + " columns");
                core::Tensor a, b;
                makeOperands(rows, acols, bcols, rng, &a, &b);
                expectSameWords(perTermMatmulTa(a, b),
                                exactMatmulTa(a, b));
            }
}

TEST(DistExact, MatmulTaWordsIndependentOfThreads)
{
    core::Rng rng(testenv::seed() + 12);
    core::Tensor a, b;
    makeOperands(300, 65, 65, rng, &a, &b);
    const ExactTensor want = perTermMatmulTa(a, b);
    const int save_threads = core::parallel::numThreads();
    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        core::parallel::setNumThreads(threads);
        expectSameWords(want, exactMatmulTa(a, b));
    }
    core::parallel::setNumThreads(save_threads);
    core::parallel::WorkerThreadScope worker;
    expectSameWords(want, exactMatmulTa(a, b));
}

TEST(DistExactDeathTest, MatmulTaOutOfRangeTermsPanic)
{
    // A forked child has no pool workers: re-execute instead.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const struct
    {
        const char *what;
        float a, b;
    } cases[] = {
        {"inf operand", std::numeric_limits<float>::infinity(), 1.0f},
        {"nan operand", 1.0f, std::numeric_limits<float>::quiet_NaN()},
        {"|a*b| = 2^46", 0x1p23f, -0x1p23f},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        core::Tensor a(3, 9), b(3, 9);
        a.fill(0.5f);
        b.fill(0.25f);
        a(1, 8) = c.a;
        b(1, 4) = c.b;
        EXPECT_DEATH(exactMatmulTa(a, b), "exact accumulator overflow");
    }
}

// ---------------------------------------------------------------------------
// Feature data store.

/** 8-node graph: rank0 owns {0..3}; 4..7 each point into rank 0, so
 *  rank0's haloIn is exactly {4,5,6,7}. */
ShardedGraph
starIntoRankZero(graph::CsrGraph *csr, graph::CsrGraph *csc)
{
    graph::CooGraph coo;
    coo.numNodes = 8;
    for (NodeId v = 4; v < 8; ++v)
        coo.addEdge(v, v - 4);
    coo.addEdge(0, 1);
    coo.addEdge(4, 5);
    *csr = graph::cooToCsr(coo);
    *csc = graph::cooToCsc(coo);
    return shardGraph(*csr, *csc, 2, {0, 0, 0, 0, 1, 1, 1, 1});
}

TEST(DistStore, CachesHaloRowsAcrossEpochs)
{
    graph::CsrGraph csr, csc;
    const ShardedGraph sharded = starIntoRankZero(&csr, &csc);
    ASSERT_EQ(sharded.ranks[0].haloIn,
              (std::vector<NodeId>{4, 5, 6, 7}));

    core::Rng rng(testenv::seed() + 3);
    const core::Tensor features = core::Tensor::randn(8, 6, rng);
    FeatureStore store(features, sharded);
    ModeledComm comm(2, {});

    const core::Tensor &buf = store.fetchHalo(0, &comm);
    ASSERT_EQ(buf.rows(), 4);
    for (int64_t h = 0; h < 4; ++h)
        EXPECT_EQ(0, std::memcmp(buf.row(h), features.row(4 + h),
                                 6 * sizeof(float)));
    EXPECT_EQ(store.hits(), 0u);
    EXPECT_EQ(store.misses(), 4u);
    EXPECT_EQ(store.fetchBytes(), 4 * store.rowBytes());
    // All four rows come from rank 1: one modeled message.
    EXPECT_EQ(comm.haloMessages(), 1u);
    EXPECT_EQ(comm.haloBytes(), 4 * store.rowBytes());

    store.fetchHalo(0, &comm);
    EXPECT_EQ(store.hits(), 4u);
    EXPECT_EQ(store.misses(), 4u);
    EXPECT_EQ(store.evictions(), 0u);
    EXPECT_EQ(store.fetchBytes(), 4 * store.rowBytes());
    EXPECT_EQ(comm.haloMessages(), 1u); // no new traffic
    EXPECT_DOUBLE_EQ(store.hitRate(), 0.5);
    EXPECT_EQ(store.preloadBytes(), 8 * store.rowBytes());
}

TEST(DistStore, UndersizedCacheEvictsLru)
{
    graph::CsrGraph csr, csc;
    const ShardedGraph sharded = starIntoRankZero(&csr, &csc);
    core::Rng rng(testenv::seed() + 4);
    const core::Tensor features = core::Tensor::randn(8, 6, rng);

    // Room for 2 of the 4 halo rows: the ascending scan thrashes the
    // LRU cache, so every epoch re-fetches everything.
    FeatureStore store(features, sharded, 2 * 6 * sizeof(float));
    ASSERT_EQ(store.rowBytes(), 24u);

    const core::Tensor &buf = store.fetchHalo(0, nullptr);
    EXPECT_EQ(store.misses(), 4u);
    EXPECT_EQ(store.evictions(), 2u); // 6 evicts 4, 7 evicts 5
    // Evicted rows stay valid in the epoch's working buffer.
    for (int64_t h = 0; h < 4; ++h)
        EXPECT_EQ(0, std::memcmp(buf.row(h), features.row(4 + h),
                                 6 * sizeof(float)));

    store.fetchHalo(0, nullptr);
    EXPECT_EQ(store.hits(), 0u);
    EXPECT_EQ(store.misses(), 8u);
    EXPECT_EQ(store.evictions(), 6u);
    EXPECT_EQ(store.fetchBytes(), 8 * store.rowBytes());
    EXPECT_DOUBLE_EQ(store.hitRate(), 0.0);
}

TEST(DistStore, TrainerBitIdenticalUnderEviction)
{
    // The cache budget changes traffic accounting but must never
    // change the training math.
    const graph::Dataset ds =
        makeDataset(100, 8, 3, testenv::seed() + 5);
    DistConfig cfg;
    cfg.numRanks = 4;
    cfg.epochs = 2;
    cfg.hiddenDim = 8;
    const DistResult full = trainDistributedSage(ds, cfg);
    cfg.haloCacheBytes = 2 * 8 * 4; // two feature rows
    const DistResult tiny = trainDistributedSage(ds, cfg);
    for (int k = 0; k < kNumDistWeights; ++k)
        expectBitEqual(tiny.weights[static_cast<size_t>(k)],
                       full.weights[static_cast<size_t>(k)],
                       kDistWeightNames[k]);
    EXPECT_GT(tiny.datastoreEvictions, 0u);
    EXPECT_GE(tiny.datastoreFetchBytes, full.datastoreFetchBytes);
}

// ---------------------------------------------------------------------------
// Modeled interconnect.

TEST(DistComm, CostModelArithmetic)
{
    InterconnectSpec spec;
    spec.latencySeconds = 1e-6;
    spec.bandwidthBytesPerSec = 1e9;
    ModeledComm comm(4, spec);

    comm.message(0, 1, 1000, "x");
    EXPECT_EQ(comm.haloMessages(), 1u);
    EXPECT_EQ(comm.haloBytes(), 1000u);
    EXPECT_DOUBLE_EQ(comm.rankSeconds(1), 1e-6 + 1000.0 / 1e9);
    EXPECT_DOUBLE_EQ(comm.rankSeconds(0), 0.0);

    // Ring allreduce: 2(N-1) steps of (alpha + (b/N)/beta) per rank.
    comm.allReduce(4000, "grads");
    const double step = 1e-6 + (4000.0 / 4) / 1e9;
    EXPECT_DOUBLE_EQ(comm.rankSeconds(2), 6.0 * step);
    EXPECT_EQ(comm.allreduceBytes(), 2u * 3u * 4000u);

    comm.barrier();
    EXPECT_DOUBLE_EQ(comm.rankSeconds(0), comm.makespan());

    comm.compute(3, 2e9, "work");
    EXPECT_DOUBLE_EQ(comm.makespan() - comm.rankSeconds(0), 0.1);
}

} // namespace
} // namespace dist
} // namespace gnnbench
