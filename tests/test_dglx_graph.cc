/** Tests for the dglx graph object. */

#include <gtest/gtest.h>

#include <cmath>

#include "gnnbench/dglx/graph.h"
#include "gnnbench/graph/generate.h"

namespace gnnbench {
namespace dglx {
namespace {

graph::CooGraph
smallGraph(uint64_t seed)
{
    core::Rng rng(seed);
    return graph::symmetrize(graph::rmat(100, 400, rng), false);
}

TEST(DglxGraph, EagerFormats)
{
    graph::CooGraph coo = smallGraph(1);
    Graph g(coo);
    EXPECT_EQ(g.numNodes(), 100);
    EXPECT_EQ(g.numEdges(), coo.numEdges());
    g.csr().validate();
    g.csc().validate();
    EXPECT_EQ(g.csr().numEdges(), g.numEdges());
    EXPECT_EQ(g.csc().numEdges(), g.numEdges());
}

TEST(DglxGraph, DegreesMatchFormats)
{
    Graph g(smallGraph(2));
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        EXPECT_EQ(g.outDegrees()[v], g.csr().degree(v));
        EXPECT_EQ(g.inDegrees()[v], g.csc().degree(v));
        // Symmetric graph: in-degree equals out-degree.
        EXPECT_EQ(g.inDegrees()[v], g.outDegrees()[v]);
    }
}

TEST(DglxGraph, GcnNormValues)
{
    Graph g(smallGraph(3));
    const auto &w = g.gcnNormCsc();
    ASSERT_EQ(static_cast<EdgeId>(w.size()), g.numEdges());
    const auto &csc = g.csc();
    EdgeId e = 0;
    for (NodeId d = 0; d < g.numNodes(); ++d) {
        for (EdgeId i = csc.indptr[d]; i < csc.indptr[d + 1];
             ++i, ++e) {
            const NodeId s = csc.indices[i];
            const float expect = 1.0f / std::sqrt(
                (g.inDegrees()[d] + 1.0f) *
                (g.outDegrees()[s] + 1.0f));
            ASSERT_NEAR(w[e], expect, 1e-6f);
        }
    }
}

TEST(DglxGraph, NormArraysSymmetricGraphConsistent)
{
    // On a symmetric graph the csr- and csc-aligned weight arrays
    // contain the same multiset of values.
    Graph g(smallGraph(4));
    std::vector<float> a = g.gcnNormCsc();
    std::vector<float> b = g.gcnNormCsr();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(a[i], b[i], 1e-6f);
}

TEST(DglxGraph, StructureBytesCountsAllFormats)
{
    Graph g(smallGraph(6));
    // COO (2 arrays) + CSR + CSC indices at least.
    const uint64_t min_expected =
        4ull * g.numEdges() * sizeof(NodeId);
    EXPECT_GT(g.structureBytes(), min_expected);
}

} // namespace
} // namespace dglx
} // namespace gnnbench
