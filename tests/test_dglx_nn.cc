/** Tests for the dglx convolution layers. */

#include <gtest/gtest.h>

#include <cmath>

#include "gnnbench/core/optim.h"
#include "gnnbench/dglx/nn.h"
#include "gnnbench/dglx/sampler.h"
#include "gnnbench/graph/generate.h"

namespace gnnbench {
namespace dglx {
namespace {

namespace ag = core::ag;
using core::Tensor;

Graph
makeGraph(NodeId n, EdgeId m, uint64_t seed)
{
    core::Rng rng(seed);
    return Graph(graph::symmetrize(graph::rmat(n, m, rng), false));
}

TEST(DglxNn, AllKindsForwardShapes)
{
    Graph g = makeGraph(60, 300, 1);
    KernelCtx ctx;
    core::Rng rng(2);
    Tensor x0 = Tensor::randn(60, 16, rng);
    for (nn::ConvKind kind : nn::allConvKinds()) {
        core::Rng wrng(3);
        auto conv = makeConv(kind, 16, 8, wrng, false);
        // GCN2 is dimension-preserving: operate at dim 8 on a
        // projected input, as the bench does.
        Tensor in = x0.clone();
        if (kind == nn::ConvKind::Gcn2) {
            core::Rng prng(4);
            in = core::ops::matmul(x0,
                                   Tensor::glorot(16, 8, prng));
            static_cast<Gcn2Conv *>(conv.get())
                ->setInitial(ag::constant(in.clone()));
        }
        ag::Var out = conv->forward(
            g, ag::constant(in.clone()), ctx);
        EXPECT_EQ(out->value.rows(), 60) << nn::convKindName(kind);
        EXPECT_EQ(out->value.cols(), 8) << nn::convKindName(kind);
        EXPECT_TRUE(std::isfinite(out->value.sum()))
            << nn::convKindName(kind);
    }
}

TEST(DglxNn, GcnMatchesDenseReference)
{
    // Tiny graph, hand-computed normalized propagation.
    graph::CooGraph coo;
    coo.numNodes = 3;
    coo.addEdge(0, 1);
    Graph g(graph::symmetrize(coo, false));  // edge 0<->1, node 2 isolated
    core::Rng wrng(5);
    GcnConv conv(2, 2, wrng);
    KernelCtx ctx;
    Tensor x(3, 2);
    x(0, 0) = 1;
    x(1, 0) = 2;
    x(2, 0) = 3;
    ag::Var out = conv.forward(g, ag::constant(x.clone()), ctx);
    // Reference: H = (A_norm + D_self) X W + b with
    // w01 = 1/sqrt(2*2) = 0.5, self0 = 1/2, self2 = 1/1.
    const Tensor &w = conv.params()[0]->value;
    Tensor xw = core::ops::matmul(x, w);
    Tensor expect(3, 2);
    for (int64_t j = 0; j < 2; ++j) {
        expect(0, j) = 0.5f * xw(1, j) + 0.5f * xw(0, j);
        expect(1, j) = 0.5f * xw(0, j) + 0.5f * xw(1, j);
        expect(2, j) = 1.0f * xw(2, j);
    }
    for (int64_t i = 0; i < 3; ++i)
        for (int64_t j = 0; j < 2; ++j)
            ASSERT_NEAR(out->value(i, j), expect(i, j), 1e-4f);
}

TEST(DglxNn, SageBlockMatchesFullGraphOnFullFanout)
{
    // When the fanout exceeds every degree, block forward over all
    // nodes equals the full-graph forward.
    Graph g = makeGraph(40, 200, 6);
    core::Rng wrng(7);
    SageConv conv(8, 4, wrng);
    KernelCtx ctx;
    core::Rng xrng(8);
    Tensor x = Tensor::randn(40, 8, xrng);

    ag::Var full =
        conv.forward(g, ag::constant(x.clone()), ctx);

    NeighborSampler sampler(g, {1000}, core::Rng(9));
    std::vector<NodeId> seeds(40);
    for (NodeId i = 0; i < 40; ++i)
        seeds[i] = i;
    auto smp = sampler.sample(seeds);
    Tensor x_src =
        core::ops::gatherRows(x, smp.blocks[0].srcNodes);
    ag::Var blk = conv.forwardBlock(
        smp.blocks[0], ag::constant(std::move(x_src)), ctx);

    for (NodeId i = 0; i < 40; ++i)
        for (int64_t j = 0; j < 4; ++j)
            ASSERT_NEAR(blk->value(i, j), full->value(i, j), 1e-3f)
                << "node " << i;
}

TEST(DglxNn, InducedForwardMatchesFullOnWholeGraph)
{
    Graph g = makeGraph(30, 150, 10);
    core::Rng wrng(11);
    GcnConv conv(6, 5, wrng);
    KernelCtx ctx;
    core::Rng xrng(12);
    Tensor x = Tensor::randn(30, 6, xrng);

    ag::Var full = conv.forward(g, ag::constant(x.clone()), ctx);
    const auto norm = nn::gcnNorm(g.csr());
    const auto self = nn::selfScale(g.csr());
    ag::Var ind = conv.forwardInduced(
        g.csr(), norm, self, ag::constant(x.clone()), ctx);
    for (int64_t i = 0; i < full->value.numel(); ++i)
        ASSERT_NEAR(full->value.data()[i], ind->value.data()[i],
                    1e-3f);
}

TEST(DglxNn, TrainingReducesLoss)
{
    // Two-layer GCN on a community-labeled graph must fit the
    // training signal.
    core::Rng rng(13);
    graph::CooGraph coo =
        graph::symmetrize(graph::rmat(200, 1200, rng), false);
    Graph g(coo);
    auto labels = graph::communityLabels(coo, 4, rng, 0.0);
    Tensor x = Tensor::randn(200, 8, rng);
    for (NodeId v = 0; v < 200; ++v)
        x(v, labels[v] * 2) += 2.0f;  // separable signal

    core::Rng wrng(14);
    GcnConv l1(8, 16, wrng);
    GcnConv l2(16, 4, wrng);
    std::vector<ag::Var> params = l1.params();
    params.insert(params.end(), l2.params().begin(),
                  l2.params().end());
    core::Adam opt(params, 0.01f);
    KernelCtx ctx;

    float first_loss = 0, last_loss = 0;
    for (int step = 0; step < 30; ++step) {
        ag::Var xv = ag::constant(x.clone());
        ag::Var h = ag::relu(l1.forward(g, xv, ctx));
        ag::Var out = l2.forward(g, h, ctx);
        ag::Var loss = ag::nllLoss(ag::logSoftmax(out), labels, {});
        if (step == 0)
            first_loss = loss->value(0, 0);
        last_loss = loss->value(0, 0);
        opt.zeroGrad();
        ag::backward(loss);
        opt.step();
    }
    EXPECT_LT(last_loss, 0.6f * first_loss);
}

TEST(DglxNn, SgEqualsRepeatedPropagationPlusLinear)
{
    Graph g = makeGraph(25, 120, 15);
    core::Rng wrng(16);
    SgConv conv(4, 3, 2, wrng);
    KernelCtx ctx;
    core::Rng xrng(17);
    Tensor x = Tensor::randn(25, 4, xrng);
    ag::Var out = conv.forward(g, ag::constant(x.clone()), ctx);

    // Manual reference: P^2 x W (K = 2).
    auto propagate = [&](const Tensor &v) {
        Tensor agg = gspmm(g.csc(), v, Reducer::Sum,
                           g.gcnNormCsc().data(), KernelCtx{});
        Tensor self = v.clone();
        for (NodeId i = 0; i < 25; ++i) {
            const float s =
                1.0f / (static_cast<float>(g.inDegrees()[i]) + 1.0f);
            for (int64_t j = 0; j < v.cols(); ++j)
                self(i, j) *= s;
        }
        return core::ops::add(agg, self);
    };
    Tensor ref = propagate(propagate(x));
    ref = core::ops::matmul(ref, conv.params()[0]->value);
    for (int64_t i = 0; i < ref.numel(); ++i)
        ASSERT_NEAR(out->value.data()[i], ref.data()[i], 1e-3f);
}

TEST(DglxNn, AttentionRowsAreConvexCombinations)
{
    // GAT output rows must lie within the span of the transformed
    // inputs: check row sums bounded by max |z| * F.
    Graph g = makeGraph(30, 200, 18);
    core::Rng wrng(19);
    GatConv conv(5, 4, wrng, false);
    KernelCtx ctx;
    core::Rng xrng(20);
    Tensor x = Tensor::randn(30, 5, xrng);
    ag::Var out = conv.forward(g, ag::constant(x.clone()), ctx);
    EXPECT_TRUE(std::isfinite(out->value.sum()));
    Tensor z = core::ops::matmul(x, conv.params()[0]->value);
    EXPECT_LE(out->value.maxAbs(), z.maxAbs() + 1e-4f);
}

TEST(DglxNn, ParamBytesCountsAll)
{
    core::Rng rng(21);
    SageConv conv(10, 6, rng);
    // self W (10x6) + neigh W (10x6) + bias (1x6), 4 bytes each.
    EXPECT_EQ(conv.paramBytes(), (60 + 60 + 6) * 4u);
}

TEST(DglxNn, TrainableFlagControlsGrad)
{
    core::Rng rng(22);
    GcnConv trainable(4, 4, rng, true);
    GcnConv frozen(4, 4, rng, false);
    EXPECT_TRUE(trainable.params()[0]->requiresGrad);
    EXPECT_FALSE(frozen.params()[0]->requiresGrad);
}

} // namespace
} // namespace dglx
} // namespace gnnbench
