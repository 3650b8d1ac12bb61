/**
 * Cross-framework equivalence: the two frameworks implement the same
 * mathematics with different machinery, so layers constructed with
 * identical weights must produce (numerically) identical outputs.
 * This is the strongest correctness check in the suite — any kernel
 * bug in either framework breaks it.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "gnnbench/dglx/nn.h"
#include "gnnbench/dglx/sampler.h"
#include "gnnbench/graph/generate.h"
#include "gnnbench/pygx/nn.h"
#include "gnnbench/pygx/sampler.h"

namespace gnnbench {
namespace {

namespace ag = core::ag;
using core::Tensor;

struct Fixture
{
    graph::CooGraph coo;
    dglx::Graph dgl;
    pygx::Data pyg;
    Tensor x;

    explicit Fixture(uint64_t seed, NodeId n = 50, EdgeId m = 280,
                     int64_t feat = 12)
        : coo([&] {
              core::Rng rng(seed);
              return graph::symmetrize(graph::rmat(n, m, rng),
                                       false);
          }()),
          dgl(coo), pyg(coo), x([&] {
              core::Rng rng(seed + 1000);
              return Tensor::randn(n, feat, rng);
          }())
    {
    }
};

void
expectClose(const Tensor &a, const Tensor &b, float tol = 2e-3f)
{
    ASSERT_TRUE(a.sameShape(b));
    for (int64_t i = 0; i < a.numel(); ++i)
        ASSERT_NEAR(a.data()[i], b.data()[i],
                    tol * std::max(1.0f, std::fabs(b.data()[i])))
            << "element " << i;
}

class CrossFrameworkConv
    : public ::testing::TestWithParam<nn::ConvKind>
{
};

TEST_P(CrossFrameworkConv, SameWeightsSameOutput)
{
    const auto kind = GetParam();
    Fixture f(static_cast<uint64_t>(kind) * 17 + 3);
    // Identical weight draws: both factories consume the same Rng
    // sequence in the same order.
    core::Rng wrng_d(99), wrng_p(99);
    auto dconv = dglx::makeConv(kind, 12, 8, wrng_d, false);
    auto pconv = pygx::makeConv(kind, 12, 8, wrng_p, false);

    Tensor in = f.x.clone();
    if (kind == nn::ConvKind::Gcn2) {
        core::Rng prng(7);
        in = core::ops::matmul(f.x, Tensor::glorot(12, 8, prng));
        static_cast<dglx::Gcn2Conv *>(dconv.get())
            ->setInitial(ag::constant(in.clone()));
        static_cast<pygx::Gcn2Conv *>(pconv.get())
            ->setInitial(ag::constant(in.clone()));
    }

    dglx::KernelCtx dctx;
    pygx::KernelCtx pctx;
    ag::Var dout =
        dconv->forward(f.dgl, ag::constant(in.clone()), dctx);
    ag::Var pout =
        pconv->forward(f.pyg, ag::constant(in.clone()), pctx);
    expectClose(dout->value, pout->value);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayers, CrossFrameworkConv,
    ::testing::Values(nn::ConvKind::Gcn, nn::ConvKind::Gcn2,
                      nn::ConvKind::Cheb, nn::ConvKind::Sage,
                      nn::ConvKind::Gat, nn::ConvKind::Gatv2,
                      nn::ConvKind::Tag, nn::ConvKind::Sg),
    [](const auto &info) {
        return nn::convKindName(info.param);
    });

TEST(CrossFramework, GradientsAgreeForGcn)
{
    Fixture f(5);
    core::Rng wrng_d(42), wrng_p(42);
    dglx::GcnConv dconv(12, 6, wrng_d);
    pygx::GcnConv pconv(12, 6, wrng_p);
    dglx::KernelCtx dctx;
    pygx::KernelCtx pctx;

    std::vector<int32_t> labels(50);
    for (NodeId v = 0; v < 50; ++v)
        labels[v] = v % 6;

    auto loss_of = [&](auto &conv, auto &g, auto &ctx) {
        ag::Var out =
            conv.forward(g, ag::constant(f.x.clone()), ctx);
        ag::Var loss =
            ag::nllLoss(ag::logSoftmax(out), labels, {});
        ag::backward(loss);
        return conv.params()[0]->grad.clone();
    };
    Tensor dgrad = loss_of(dconv, f.dgl, dctx);
    Tensor pgrad = loss_of(pconv, f.pyg, pctx);
    expectClose(dgrad, pgrad, 5e-3f);
}

TEST(CrossFramework, GradientsAgreeForSage)
{
    Fixture f(6);
    core::Rng wrng_d(43), wrng_p(43);
    dglx::SageConv dconv(12, 5, wrng_d);
    pygx::SageConv pconv(12, 5, wrng_p);
    dglx::KernelCtx dctx;
    pygx::KernelCtx pctx;
    std::vector<int32_t> labels(50);
    for (NodeId v = 0; v < 50; ++v)
        labels[v] = v % 5;

    ag::Var dout =
        dconv.forward(f.dgl, ag::constant(f.x.clone()), dctx);
    ag::backward(ag::nllLoss(ag::logSoftmax(dout), labels, {}));
    ag::Var pout =
        pconv.forward(f.pyg, ag::constant(f.x.clone()), pctx);
    ag::backward(ag::nllLoss(ag::logSoftmax(pout), labels, {}));

    expectClose(dconv.params()[1]->grad, pconv.params()[1]->grad,
                5e-3f);
}

TEST(CrossFramework, SamplersProduceSameFrontierSizesOnAverage)
{
    // Statistically, both frameworks' neighbor samplers draw from
    // the same distribution: average input-frontier sizes across
    // many batches must be close.
    Fixture f(7, 400, 3200, 4);
    dglx::NeighborSampler ds(f.dgl, {10, 5}, core::Rng(1));
    pygx::NeighborSampler ps(f.pyg, {10, 5}, core::Rng(2), nullptr);
    double dsum = 0, psum = 0;
    for (int t = 0; t < 30; ++t) {
        std::vector<NodeId> seeds = {
            static_cast<NodeId>(t), static_cast<NodeId>(t + 100),
            static_cast<NodeId>(t + 200)};
        dsum += ds.sample(seeds).inputNodes().size();
        psum += ps.sample(seeds).inputNodes().size();
    }
    EXPECT_NEAR(dsum / psum, 1.0, 0.15);
}

} // namespace
} // namespace gnnbench
