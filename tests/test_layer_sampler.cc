/** Tests for the FastGCN and LADIES layer-wise samplers. */

#include <gtest/gtest.h>

#include <set>

#include "gnnbench/core/timer.h"
#include "gnnbench/dglx/layer_sampler.h"
#include "gnnbench/graph/generate.h"

namespace gnnbench {
namespace dglx {
namespace {

Graph
makeGraph(NodeId n, EdgeId m, uint64_t seed)
{
    core::Rng rng(seed);
    return Graph(graph::symmetrize(graph::rmat(n, m, rng), false));
}

std::vector<NodeId>
someSeeds(NodeId n, int count)
{
    std::vector<NodeId> seeds;
    for (int i = 0; i < count; ++i)
        seeds.push_back(static_cast<NodeId>(i * (n / count)));
    return seeds;
}

TEST(FastGcn, StructureInvariantsHold)
{
    Graph g = makeGraph(500, 4000, 1);
    FastGcnSampler sampler(g, {128, 64}, core::Rng(2));
    auto smp = sampler.sample(someSeeds(500, 16));
    smp.validate();
    EXPECT_EQ(smp.layers.size(), 2u);
    EXPECT_LE(smp.layers[0].srcNodes.size(), 128u);
    EXPECT_LE(smp.layers[1].srcNodes.size(), 64u);
}

TEST(FastGcn, EdgesExistInGraph)
{
    Graph g = makeGraph(300, 2400, 3);
    FastGcnSampler sampler(g, {64}, core::Rng(4));
    auto smp = sampler.sample(someSeeds(300, 8));
    const auto &layer = smp.layers[0];
    for (NodeId d = 0; d < layer.csc.numRows; ++d) {
        const NodeId gd = layer.dstNodes[d];
        std::set<NodeId> nbrs(g.csc().rowBegin(gd),
                              g.csc().rowEnd(gd));
        for (EdgeId e = layer.csc.indptr[d];
             e < layer.csc.indptr[d + 1]; ++e) {
            const NodeId gs =
                layer.srcNodes[layer.csc.indices[e]];
            ASSERT_TRUE(nbrs.count(gs));
        }
    }
}

TEST(FastGcn, ProducesIsolatedDestinations)
{
    // The paper's stated FastGCN weakness: independent layer draws
    // leave some destinations without sampled in-neighbors.  With a
    // small budget on a larger graph this must be observable.
    Graph g = makeGraph(2000, 8000, 5);
    FastGcnSampler sampler(g, {32}, core::Rng(6));
    NodeId isolated = 0, total = 0;
    for (int t = 0; t < 20; ++t) {
        auto smp = sampler.sample(someSeeds(2000, 32));
        isolated += smp.layers[0].isolatedDstCount();
        total += smp.layers[0].csc.numRows;
    }
    EXPECT_GT(isolated, 0);
    EXPECT_LT(isolated, total);  // not everything is isolated
}

TEST(FastGcn, PrefersHighDegreeNodes)
{
    // q proportional to (deg+1)^2: the hub of a star must be drawn
    // nearly always.
    graph::CooGraph coo;
    coo.numNodes = 200;
    for (NodeId v = 1; v < 100; ++v)
        coo.addEdge(0, v);
    Graph g(graph::symmetrize(coo, false));
    FastGcnSampler sampler(g, {10}, core::Rng(7));
    int hub_hits = 0;
    for (int t = 0; t < 50; ++t) {
        auto smp = sampler.sample({5, 10});
        for (NodeId v : smp.layers[0].srcNodes)
            hub_hits += (v == 0);
    }
    EXPECT_GT(hub_hits, 45);
}

TEST(Ladies, NoIsolatedDestinations)
{
    // LADIES's defining guarantee (identity attached to the sliced
    // adjacency): destinations always keep at least one in-edge.
    Graph g = makeGraph(2000, 8000, 8);
    LadiesSampler sampler(g, {32, 32}, core::Rng(9));
    for (int t = 0; t < 10; ++t) {
        auto smp = sampler.sample(someSeeds(2000, 32));
        smp.validate();
        for (const auto &layer : smp.layers)
            ASSERT_EQ(layer.isolatedDstCount(), 0);
    }
}

TEST(Ladies, CandidatesComeFromFrontierNeighborhood)
{
    Graph g = makeGraph(400, 3200, 10);
    LadiesSampler sampler(g, {64}, core::Rng(11));
    auto seeds = someSeeds(400, 8);
    auto smp = sampler.sample(seeds);
    // Every sampled source is either a seed (self-inclusion) or an
    // in-neighbor of some seed.
    std::set<NodeId> allowed(seeds.begin(), seeds.end());
    for (NodeId u : seeds)
        for (auto it = g.csc().rowBegin(u); it != g.csc().rowEnd(u);
             ++it)
            allowed.insert(*it);
    for (NodeId v : smp.layers[0].srcNodes)
        ASSERT_TRUE(allowed.count(v)) << v;
}

TEST(Ladies, SlowerThanFastGcnPerBatch)
{
    // LADIES pays the layer-dependent distribution pass (the paper's
    // "non-negligible overhead in the sampling process").
    Graph g = makeGraph(5000, 100000, 12);
    FastGcnSampler fast(g, {256, 256}, core::Rng(13));
    LadiesSampler ladies(g, {256, 256}, core::Rng(13));
    auto seeds = someSeeds(5000, 256);
    core::Timer t;
    for (int i = 0; i < 10; ++i)
        fast.sample(seeds);
    const double t_fast = t.elapsed();
    t.reset();
    for (int i = 0; i < 10; ++i)
        ladies.sample(seeds);
    const double t_ladies = t.elapsed();
    EXPECT_GT(t_ladies, t_fast);
}

TEST(LayerSamplers, DeterministicInRng)
{
    Graph g = makeGraph(300, 2400, 14);
    FastGcnSampler a(g, {64}, core::Rng(15));
    FastGcnSampler b(g, {64}, core::Rng(15));
    auto seeds = someSeeds(300, 8);
    EXPECT_EQ(a.sample(seeds).layers[0].srcNodes,
              b.sample(seeds).layers[0].srcNodes);
}

TEST(LayerSamplers, WeightsAreUnbiasedScale)
{
    // FastGCN edge weight = 1/(q(v) * t): high-degree (high-q)
    // sources must carry smaller weights.
    Graph g = makeGraph(500, 8000, 16);
    FastGcnSampler sampler(g, {128}, core::Rng(17));
    auto smp = sampler.sample(someSeeds(500, 16));
    const auto &layer = smp.layers[0];
    // Compare two edges whose sources have very different degrees.
    float w_low = -1, w_high = -1;
    EdgeId lo_deg = 1 << 30, hi_deg = 0;
    for (EdgeId e = 0; e < layer.csc.numEdges(); ++e) {
        const NodeId gs = layer.srcNodes[layer.csc.indices[e]];
        const EdgeId deg = g.inDegrees()[gs];
        if (deg < lo_deg) {
            lo_deg = deg;
            w_low = layer.edgeWeights[e];
        }
        if (deg > hi_deg) {
            hi_deg = deg;
            w_high = layer.edgeWeights[e];
        }
    }
    if (lo_deg < hi_deg) {
        EXPECT_GT(w_low, w_high);
    }
}

} // namespace
} // namespace dglx
} // namespace gnnbench
