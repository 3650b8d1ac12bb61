/**
 * Differential battery for the multi-kernel fusion layer
 * (src/gnnbench/kernels/fusion.*).
 *
 * Fusion changes modeled traffic, never arithmetic: the dglx SageConv
 * mean aggregation takes the fused gspmm_mean path when fusion is on
 * and the materialized SpMM-sum + row-scale pair when it is off, and
 * its forward values and parameter gradients must be bit-identical
 * either way, at every thread count.  KernelGraph's gating rules
 * (eligibility table, framework support, the GNNBENCH_DEVICE_FUSION
 * knob, single-consumer requirement) are pinned as unit tests,
 * including the counter side-effects under device.fusion.*.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "gnnbench/check/validate.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/core/rng.h"
#include "gnnbench/device/hierarchy.h"
#include "gnnbench/dglx/nn.h"
#include "gnnbench/graph/convert.h"
#include "gnnbench/graph/generate.h"
#include "gnnbench/kernels/fusion.h"
#include "gnnbench/profiling/metrics_registry.h"

#include "test_support.h"

namespace gnnbench {
namespace kernels {
namespace {

using check::Result;
using core::Tensor;

constexpr int kThreadCounts[] = {1, 4};

/** RAII: run a scope at a thread count, then restore. */
struct ThreadScope
{
    explicit ThreadScope(int n) : saved_(core::parallel::numThreads())
    {
        core::parallel::setNumThreads(n);
    }
    ~ThreadScope() { core::parallel::setNumThreads(saved_); }
    int saved_;
};

/** RAII: override the latched DeviceConfig, then restore defaults. */
struct ConfigScope
{
    explicit ConfigScope(const device::DeviceConfig &cfg)
    {
        device::setDeviceConfig(cfg);
    }
    ~ConfigScope() { device::setDeviceConfig(device::DeviceConfig{}); }
};

Result
bitEqual(const Tensor &got, const Tensor &want, const std::string &what)
{
    if (got.rows() != want.rows() || got.cols() != want.cols())
        return Result::fail(what + ": shape mismatch");
    if (std::memcmp(got.data(), want.data(),
                    static_cast<size_t>(want.numel()) *
                        sizeof(float)) != 0)
        return Result::fail(what + ": not bit-identical");
    return Result::pass();
}

/**
 * End-to-end: the dglx SageConv mean aggregation goes through the
 * fused gspmm_mean path when fusion is on and through the
 * materialized SpMM-sum + row-scale pair when it is off.  Forward
 * values AND parameter gradients must be bit-identical either way,
 * at every thread count.
 */
TEST(FusedSageConv, FusionOnOffBitIdenticalIncludingGrads)
{
    namespace ag = core::ag;
    core::Rng grng(testenv::seed());
    dglx::Graph g(graph::symmetrize(
        graph::rmat(48, 240, grng), false));
    core::Rng xrng(testenv::seed() ^ 1);
    const Tensor x = Tensor::randn(48, 8, xrng);

    auto run = [&](bool fusion_on, int threads, Tensor *out,
                   std::vector<Tensor> *grads) {
        device::DeviceConfig cfg;
        cfg.fusionEnabled = fusion_on;
        ConfigScope config(cfg);
        ThreadScope scope(threads);
        core::Rng wrng(testenv::seed() ^ 2);
        dglx::SageConv conv(8, 4, wrng);
        dglx::KernelCtx ctx;
        ag::Var out_v =
            conv.forward(g, ag::constant(x.clone()), ctx);
        const Tensor seed_grad = Tensor::full(
            out_v->value.rows(), out_v->value.cols(), 1.0f);
        ag::backward(out_v, &seed_grad);
        *out = out_v->value.clone();
        for (const auto &p : conv.params())
            grads->push_back(p->grad.clone());
    };

    Tensor ref_out;
    std::vector<Tensor> ref_grads;
    run(true, 1, &ref_out, &ref_grads);
    ASSERT_FALSE(ref_grads.empty());

    for (bool fusion_on : {true, false}) {
        for (int threads : kThreadCounts) {
            Tensor out;
            std::vector<Tensor> grads;
            run(fusion_on, threads, &out, &grads);
            const std::string what =
                std::string("SageConv fusion=") +
                (fusion_on ? "on" : "off") +
                " t=" + std::to_string(threads);
            EXPECT_TRUE(bitEqual(out, ref_out, what).ok) << what;
            ASSERT_EQ(grads.size(), ref_grads.size());
            for (size_t i = 0; i < grads.size(); ++i)
                EXPECT_TRUE(
                    bitEqual(grads[i], ref_grads[i], what).ok)
                    << what << " grad " << i;
        }
    }
}

uint64_t
fusionCounter(const char *name)
{
    return profiling::MetricsRegistry::global().counter(name).value();
}

TEST(KernelGraph, EligiblePairFusesAndBooksSavings)
{
    const uint64_t fused0 =
        fusionCounter("device.fusion.fused_pairs");
    const uint64_t saved0 =
        fusionCounter("device.fusion.fused_bytes_saved");

    KernelGraph g(true);
    const int agg = g.addNode(FusedOp::Spmm, "gspmm", 4096);
    const int scale = g.addNode(FusedOp::RowScale, "row_scale", 4096);
    g.addEdge(agg, scale);
    EXPECT_TRUE(g.fuse(agg, scale, 8192));
    EXPECT_EQ(g.fusedPairs(), 1u);
    EXPECT_EQ(g.bytesSaved(), 8192u);
    EXPECT_EQ(g.rejectedPairs(), 0u);
    EXPECT_GT(g.bytesSaved(), 0u); // fused_bytes_saved > 0

    EXPECT_EQ(fusionCounter("device.fusion.fused_pairs"),
              fused0 + 1);
    EXPECT_EQ(fusionCounter("device.fusion.fused_bytes_saved"),
              saved0 + 8192);
}

TEST(KernelGraph, MultiConsumerProducerIsRejected)
{
    const uint64_t rejected0 =
        fusionCounter("device.fusion.rejected_pairs");
    KernelGraph g(true);
    const int gather = g.addNode(FusedOp::Gather, "gather", 4096);
    const int s1 = g.addNode(FusedOp::Scatter, "scatter_a", 0);
    const int s2 = g.addNode(FusedOp::Scatter, "scatter_b", 0);
    g.addEdge(gather, s1);
    g.addEdge(gather, s2);
    // The producer's output is needed elsewhere: eligible, but
    // declined — and the decline is counted.
    EXPECT_FALSE(g.fuse(gather, s1, 4096));
    EXPECT_EQ(g.fusedPairs(), 0u);
    EXPECT_EQ(g.rejectedPairs(), 1u);
    EXPECT_EQ(fusionCounter("device.fusion.rejected_pairs"),
              rejected0 + 1);
}

TEST(KernelGraph, UnsupportedFrameworkIsRejected)
{
    // pygx-style recording: eligible chain, framework can't fuse
    // (paper Observation 3).
    KernelGraph g(false);
    const int gather = g.addNode(FusedOp::Gather, "gather", 4096);
    const int scat = g.addNode(FusedOp::Scatter, "scatter_sum", 0);
    g.addEdge(gather, scat);
    EXPECT_FALSE(g.fuse(gather, scat, 4096));
    EXPECT_EQ(g.fusedPairs(), 0u);
    EXPECT_EQ(g.rejectedPairs(), 1u);
    EXPECT_FALSE(g.supportsFusion());
}

TEST(KernelGraph, FusionKnobOffRejects)
{
    device::DeviceConfig cfg;
    cfg.fusionEnabled = false;
    ConfigScope config(cfg);
    EXPECT_FALSE(fusionEnabled());
    KernelGraph g(true);
    const int agg = g.addNode(FusedOp::Spmm, "gspmm", 4096);
    const int act = g.addNode(FusedOp::Activation, "relu", 4096);
    g.addEdge(agg, act);
    EXPECT_FALSE(g.fuse(agg, act, 4096));
    EXPECT_EQ(g.rejectedPairs(), 1u);
}

TEST(KernelGraph, IneligiblePairFailsSilently)
{
    const uint64_t rejected0 =
        fusionCounter("device.fusion.rejected_pairs");
    KernelGraph g(true);
    const int sample = g.addNode(FusedOp::Sample, "sample", 4096);
    const int gather = g.addNode(FusedOp::Gather, "gather", 4096);
    g.addEdge(sample, gather);
    // Not in the eligibility table: no fuse, and no rejected count
    // either (the pair was never a fusion candidate).
    EXPECT_FALSE(g.fuse(sample, gather, 4096));
    EXPECT_EQ(g.fusedPairs(), 0u);
    EXPECT_EQ(g.rejectedPairs(), 0u);
    EXPECT_EQ(fusionCounter("device.fusion.rejected_pairs"),
              rejected0);
}

} // namespace
} // namespace kernels
} // namespace gnnbench
