/** Tests for the pygx convolution layers. */

#include <gtest/gtest.h>

#include <cmath>

#include "gnnbench/core/optim.h"
#include "gnnbench/graph/generate.h"
#include "gnnbench/pygx/nn.h"
#include "gnnbench/pygx/sampler.h"

namespace gnnbench {
namespace pygx {
namespace {

namespace ag = core::ag;
using core::Tensor;

graph::CooGraph
makeCoo(NodeId n, EdgeId m, uint64_t seed)
{
    core::Rng rng(seed);
    return graph::symmetrize(graph::rmat(n, m, rng), false);
}

TEST(PygxNn, AllKindsForwardShapes)
{
    Data data(makeCoo(60, 300, 1));
    KernelCtx ctx;
    core::Rng rng(2);
    Tensor x0 = Tensor::randn(60, 16, rng);
    for (nn::ConvKind kind : nn::allConvKinds()) {
        core::Rng wrng(3);
        auto conv = makeConv(kind, 16, 8, wrng, false);
        Tensor in = x0.clone();
        if (kind == nn::ConvKind::Gcn2) {
            core::Rng prng(4);
            in = core::ops::matmul(x0,
                                   Tensor::glorot(16, 8, prng));
            static_cast<Gcn2Conv *>(conv.get())
                ->setInitial(ag::constant(in.clone()));
        }
        ag::Var out =
            conv->forward(data, ag::constant(in.clone()), ctx);
        EXPECT_EQ(out->value.rows(), 60) << nn::convKindName(kind);
        EXPECT_EQ(out->value.cols(), 8) << nn::convKindName(kind);
        EXPECT_TRUE(std::isfinite(out->value.sum()))
            << nn::convKindName(kind);
    }
}

TEST(PygxNn, GcnBatchPathMatchesFusedPath)
{
    // edge_index forwardBatch over the whole graph must equal the
    // fused full-graph forward.
    graph::CooGraph coo = makeCoo(40, 240, 5);
    Data data(coo);
    core::Rng wrng(6);
    GcnConv conv(8, 4, wrng);
    KernelCtx ctx;
    core::Rng xrng(7);
    Tensor x = Tensor::randn(40, 8, xrng);

    ag::Var fused =
        conv.forward(data, ag::constant(x.clone()), ctx);

    EdgeBatch batch;
    batch.nodes.resize(40);
    for (NodeId i = 0; i < 40; ++i)
        batch.nodes[i] = i;
    batch.src = coo.src;
    batch.dst = coo.dst;
    ag::Var unfused =
        conv.forwardBatch(batch, ag::constant(x.clone()), ctx);

    for (int64_t i = 0; i < fused->value.numel(); ++i)
        ASSERT_NEAR(fused->value.data()[i],
                    unfused->value.data()[i], 1e-3f);
}

TEST(PygxNn, SageBatchMatchesFused)
{
    graph::CooGraph coo = makeCoo(35, 200, 8);
    Data data(coo);
    core::Rng wrng(9);
    SageConv conv(6, 5, wrng);
    KernelCtx ctx;
    core::Rng xrng(10);
    Tensor x = Tensor::randn(35, 6, xrng);

    ag::Var fused =
        conv.forward(data, ag::constant(x.clone()), ctx);
    EdgeBatch batch;
    batch.nodes.resize(35);
    for (NodeId i = 0; i < 35; ++i)
        batch.nodes[i] = i;
    batch.src = coo.src;
    batch.dst = coo.dst;
    ag::Var unfused =
        conv.forwardBatch(batch, ag::constant(x.clone()), ctx);
    for (int64_t i = 0; i < fused->value.numel(); ++i)
        ASSERT_NEAR(fused->value.data()[i],
                    unfused->value.data()[i], 1e-3f);
}

TEST(PygxNn, SageLayerForwardOnFullFanout)
{
    // A LayerBatch covering the full graph (huge fanout) must match
    // the fused full-graph forward on the dst rows.
    graph::CooGraph coo = makeCoo(30, 160, 11);
    Data data(coo);
    core::Rng wrng(12);
    SageConv conv(5, 4, wrng);
    KernelCtx ctx;
    core::Rng xrng(13);
    Tensor x = Tensor::randn(30, 5, xrng);

    NeighborSampler sampler(data, {1000}, core::Rng(14), nullptr);
    std::vector<NodeId> seeds(30);
    for (NodeId i = 0; i < 30; ++i)
        seeds[i] = i;
    auto batch = sampler.sample(seeds);
    Tensor x_src =
        core::ops::gatherRows(x, batch.layers[0].srcNodes);
    ag::Var from_layer = conv.forwardLayer(
        batch.layers[0], ag::constant(std::move(x_src)), ctx);
    ag::Var fused =
        conv.forward(data, ag::constant(x.clone()), ctx);
    for (NodeId i = 0; i < 30; ++i)
        for (int64_t j = 0; j < 4; ++j)
            ASSERT_NEAR(from_layer->value(i, j), fused->value(i, j),
                        1e-3f);
}

TEST(PygxNn, GatOomOnLargeScaledGraph)
{
    // GAT materializes E x F messages; with a large memScale the
    // full-size equivalent exceeds GPU memory and throws.
    Data data(makeCoo(200, 4000, 15));
    device::Session session;
    KernelCtx ctx{&session, device::DeviceType::GPU, Costs{},
                  1e6};
    core::Rng wrng(16);
    GatConv conv(8, 8, wrng, false);
    core::Rng xrng(17);
    Tensor x = Tensor::randn(200, 8, xrng);
    EXPECT_THROW(conv.forward(data, ag::constant(x.clone()), ctx),
                 OomError);
    // Fused GCN never materializes; no throw at the same scale.
    GcnConv gcn(8, 8, wrng);
    EXPECT_NO_THROW(
        gcn.forward(data, ag::constant(x.clone()), ctx));
}

TEST(PygxNn, TrainingReducesLoss)
{
    core::Rng rng(18);
    graph::CooGraph coo = makeCoo(200, 1200, 18);
    Data data(coo);
    auto labels = graph::communityLabels(coo, 4, rng, 0.0);
    Tensor x = Tensor::randn(200, 8, rng);
    for (NodeId v = 0; v < 200; ++v)
        x(v, labels[v] * 2) += 2.0f;

    core::Rng wrng(19);
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
        ag::Var h = ag::relu(l1.forward(data, xv, ctx));
        ag::Var out = l2.forward(data, h, ctx);
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

TEST(PygxNn, NormHelpersConsistent)
{
    graph::CooGraph coo = makeCoo(50, 300, 20);
    Data data(coo);
    // csc-based and edge-based norms must agree (graph symmetric, so
    // in-degrees equal out-degrees).
    const auto w_csc = nn::gcnNorm(data.csc());
    std::vector<float> self;
    const auto w_edges =
        gcnNormEdges(coo.src, coo.dst, coo.numNodes, &self);
    // Compare as sorted multisets (edge orders differ).
    std::vector<float> a = w_csc, b = w_edges;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(a[i], b[i], 1e-5f);
}

} // namespace
} // namespace pygx
} // namespace gnnbench
