/** Tests for the dglx fused kernels against dense references. */

#include <gtest/gtest.h>

#include <cmath>

#include "gnnbench/core/rng.h"
#include "gnnbench/dglx/kernels.h"
#include "gnnbench/graph/convert.h"
#include "gnnbench/graph/generate.h"

namespace gnnbench {
namespace dglx {
namespace {

using core::Tensor;

/** Dense adjacency from a csc-style adjacency with weights. */
Tensor
denseAdj(const graph::CsrGraph &csc, const float *w)
{
    Tensor a(csc.numRows, csc.numCols);
    EdgeId e = 0;
    for (NodeId r = 0; r < csc.numRows; ++r)
        for (EdgeId i = csc.indptr[r]; i < csc.indptr[r + 1]; ++i, ++e)
            a(r, csc.indices[i]) += w ? w[e] : 1.0f;
    return a;
}

graph::CsrGraph
randomCsc(NodeId n, EdgeId m, uint64_t seed)
{
    core::Rng rng(seed);
    return graph::cooToCsc(
        graph::symmetrize(graph::rmat(n, m, rng), false));
}

TEST(Gspmm, SumMatchesDense)
{
    auto csc = randomCsc(30, 120, 1);
    core::Rng rng(2);
    Tensor x = Tensor::randn(30, 7, rng);
    KernelCtx ctx;
    Tensor fused = gspmm(csc, x, Reducer::Sum, nullptr, ctx);
    Tensor dense = core::ops::matmul(denseAdj(csc, nullptr), x);
    for (int64_t i = 0; i < fused.numel(); ++i)
        ASSERT_NEAR(fused.data()[i], dense.data()[i], 1e-3f);
}

TEST(Gspmm, WeightedSumMatchesDense)
{
    auto csc = randomCsc(25, 100, 3);
    core::Rng rng(4);
    Tensor x = Tensor::randn(25, 5, rng);
    std::vector<float> w(csc.numEdges());
    for (auto &v : w)
        v = rng.uniformFloat() - 0.5f;
    KernelCtx ctx;
    Tensor fused = gspmm(csc, x, Reducer::Sum, w.data(), ctx);
    Tensor dense = core::ops::matmul(denseAdj(csc, w.data()), x);
    for (int64_t i = 0; i < fused.numel(); ++i)
        ASSERT_NEAR(fused.data()[i], dense.data()[i], 1e-3f);
}

TEST(Gspmm, MeanDividesByDegree)
{
    auto csc = randomCsc(20, 80, 5);
    core::Rng rng(6);
    Tensor x = Tensor::randn(20, 3, rng);
    KernelCtx ctx;
    Tensor sum = gspmm(csc, x, Reducer::Sum, nullptr, ctx);
    Tensor mean = gspmm(csc, x, Reducer::Mean, nullptr, ctx);
    for (NodeId r = 0; r < 20; ++r) {
        const EdgeId deg = csc.degree(r);
        for (int64_t j = 0; j < 3; ++j) {
            if (deg > 0)
                ASSERT_NEAR(mean(r, j), sum(r, j) / deg, 1e-4f);
            else
                ASSERT_EQ(mean(r, j), 0.0f);
        }
    }
}

TEST(Gspmm, MaxPicksMaximum)
{
    // Star: node 0 receives from 1, 2, 3.
    graph::CooGraph coo;
    coo.numNodes = 4;
    coo.addEdge(1, 0);
    coo.addEdge(2, 0);
    coo.addEdge(3, 0);
    auto csc = graph::cooToCsc(coo);
    Tensor x(4, 2);
    x(1, 0) = 5;
    x(2, 0) = -1;
    x(3, 0) = 2;
    x(1, 1) = -7;
    x(2, 1) = -3;
    x(3, 1) = -9;
    KernelCtx ctx;
    Tensor out = gspmm(csc, x, Reducer::Max, nullptr, ctx);
    EXPECT_EQ(out(0, 0), 5.0f);
    EXPECT_EQ(out(0, 1), -3.0f);
    // Isolated rows (no in-edges) are zero-filled.
    EXPECT_EQ(out(1, 0), 0.0f);
}

TEST(GspmmScatter, EqualsTransposeSpmm)
{
    auto csc = randomCsc(28, 110, 7);
    core::Rng rng(8);
    Tensor x = Tensor::randn(28, 6, rng);
    std::vector<float> w(csc.numEdges());
    for (auto &v : w)
        v = rng.uniformFloat();
    KernelCtx ctx;
    Tensor scattered = gspmmScatter(csc, x, w.data(), ctx);
    Tensor dense = core::ops::matmul(
        core::ops::transpose(denseAdj(csc, w.data())), x);
    for (int64_t i = 0; i < scattered.numel(); ++i)
        ASSERT_NEAR(scattered.data()[i], dense.data()[i], 1e-3f);
}

TEST(Gsddmm, AddMatchesEndpoints)
{
    auto csc = randomCsc(15, 60, 9);
    core::Rng rng(10);
    Tensor a = Tensor::randn(15, 2, rng);
    Tensor b = Tensor::randn(15, 2, rng);
    KernelCtx ctx;
    Tensor out = gsddmmAdd(csc, a, b, ctx);
    EdgeId e = 0;
    for (NodeId d = 0; d < 15; ++d)
        for (EdgeId i = csc.indptr[d]; i < csc.indptr[d + 1];
             ++i, ++e) {
            const NodeId s = csc.indices[i];
            ASSERT_NEAR(out(e, 0), a(d, 0) + b(s, 0), 1e-5f);
            ASSERT_NEAR(out(e, 1), a(d, 1) + b(s, 1), 1e-5f);
        }
}

TEST(Gsddmm, DotMatchesEndpoints)
{
    auto csc = randomCsc(12, 48, 11);
    core::Rng rng(12);
    Tensor a = Tensor::randn(12, 4, rng);
    Tensor b = Tensor::randn(12, 4, rng);
    KernelCtx ctx;
    Tensor out = gsddmmDot(csc, a, b, ctx);
    EdgeId e = 0;
    for (NodeId d = 0; d < 12; ++d)
        for (EdgeId i = csc.indptr[d]; i < csc.indptr[d + 1];
             ++i, ++e) {
            const NodeId s = csc.indices[i];
            float dot = 0;
            for (int64_t j = 0; j < 4; ++j)
                dot += a(d, j) * b(s, j);
            ASSERT_NEAR(out(e, 0), dot, 1e-4f);
        }
}

TEST(EdgeSoftmax, SumsToOnePerDestination)
{
    auto csc = randomCsc(20, 100, 13);
    core::Rng rng(14);
    Tensor scores = Tensor::randn(csc.numEdges(), 1, rng, 2.0f);
    KernelCtx ctx;
    Tensor att = edgeSoftmax(csc, scores, ctx);
    for (NodeId d = 0; d < 20; ++d) {
        if (csc.degree(d) == 0)
            continue;
        double z = 0;
        for (EdgeId e = csc.indptr[d]; e < csc.indptr[d + 1]; ++e)
            z += att(e, 0);
        ASSERT_NEAR(z, 1.0, 1e-4);
    }
}

TEST(GspmmEdgeScalar, MatchesWeightedSpmm)
{
    auto csc = randomCsc(18, 70, 15);
    core::Rng rng(16);
    Tensor x = Tensor::randn(18, 5, rng);
    Tensor att = Tensor::randn(csc.numEdges(), 1, rng);
    std::vector<float> w(csc.numEdges());
    for (EdgeId e = 0; e < csc.numEdges(); ++e)
        w[e] = att(e, 0);
    KernelCtx ctx;
    Tensor a = gspmmEdgeScalar(csc, x, att, ctx);
    Tensor b = gspmm(csc, x, Reducer::Sum, w.data(), ctx);
    for (int64_t i = 0; i < a.numel(); ++i)
        ASSERT_NEAR(a.data()[i], b.data()[i], 1e-4f);
}

TEST(GsddmmAttnV2, MatchesUnfusedReference)
{
    auto csc = randomCsc(10, 40, 17);
    core::Rng rng(18);
    Tensor zl = Tensor::randn(10, 3, rng);
    Tensor zr = Tensor::randn(10, 3, rng);
    Tensor a = Tensor::randn(1, 3, rng);
    KernelCtx ctx;
    Tensor out = gsddmmAttnV2(csc, zl, zr, a, 0.2f, ctx);
    EdgeId e = 0;
    for (NodeId d = 0; d < 10; ++d)
        for (EdgeId i = csc.indptr[d]; i < csc.indptr[d + 1];
             ++i, ++e) {
            const NodeId s = csc.indices[i];
            float acc = 0;
            for (int64_t j = 0; j < 3; ++j) {
                float v = zl(d, j) + zr(s, j);
                if (v < 0)
                    v *= 0.2f;
                acc += a(0, j) * v;
            }
            ASSERT_NEAR(out(e, 0), acc, 1e-4f);
        }
}

TEST(SpmmVar, GradientMatchesTranspose)
{
    // loss = sum(A x); d/dx = A^T 1.
    auto csc = randomCsc(16, 64, 19);
    auto csr = graph::csrTranspose(csc);
    core::Rng rng(20);
    KernelCtx ctx;
    core::ag::Var x =
        core::ag::leaf(Tensor::randn(16, 3, rng), true);
    core::ag::Var y = spmmVar(
        csc, nullptr, SpmmBackward::transpose(nn::borrow(csr)), x, ctx);
    Tensor seed = Tensor::full(16, 3, 1.0f);
    core::ag::backward(y, &seed);
    Tensor expected = core::ops::matmul(
        core::ops::transpose(denseAdj(csc, nullptr)),
        Tensor::full(16, 3, 1.0f));
    for (int64_t i = 0; i < expected.numel(); ++i)
        ASSERT_NEAR(x->grad.data()[i], expected.data()[i], 1e-3f);
}

TEST(SpmmScatterBwdVar, GradientMatchesTranspose)
{
    auto csc = randomCsc(14, 56, 21);
    core::Rng rng(22);
    KernelCtx ctx;
    core::ag::Var x =
        core::ag::leaf(Tensor::randn(14, 2, rng), true);
    core::ag::Var y = spmmVar(
        csc, nullptr, SpmmBackward::scatter(nn::borrow(csc)), x, ctx);
    Tensor seed = Tensor::full(14, 2, 1.0f);
    core::ag::backward(y, &seed);
    Tensor expected = core::ops::matmul(
        core::ops::transpose(denseAdj(csc, nullptr)),
        Tensor::full(14, 2, 1.0f));
    for (int64_t i = 0; i < expected.numel(); ++i)
        ASSERT_NEAR(x->grad.data()[i], expected.data()[i], 1e-3f);
}

TEST(Kernels, GpuModeChargesSession)
{
    auto csc = randomCsc(50, 500, 23);
    core::Rng rng(24);
    Tensor x = Tensor::randn(50, 64, rng);
    device::Session session;
    KernelCtx ctx{&session, device::DeviceType::GPU, Costs{}};
    gspmm(csc, x, Reducer::Sum, nullptr, ctx);
    const auto snap = session.snapshot();
    EXPECT_GT(snap.modeled.gpuSeconds, 0.0);
    EXPECT_GT(snap.excludedWall, 0.0);
}

TEST(Kernels, GemmRoutesThroughDevice)
{
    core::Rng rng(25);
    Tensor a = Tensor::randn(8, 8, rng);
    Tensor b = Tensor::randn(8, 8, rng);
    device::Session session;
    KernelCtx cpu_ctx{&session, device::DeviceType::CPU, Costs{}};
    Tensor c1 = gemm(a, b, cpu_ctx);
    Tensor c2 = core::ops::matmul(a, b);
    for (int64_t i = 0; i < c1.numel(); ++i)
        ASSERT_EQ(c1.data()[i], c2.data()[i]);
}

} // namespace
} // namespace dglx
} // namespace gnnbench
