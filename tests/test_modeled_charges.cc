/**
 * Pins the modeled device charges of both frameworks' conv layers.
 *
 * dglx and pygx route GEMM, elementwise and prep work through one
 * shared op layer and differ only in their cost profiles and their
 * sparse kernels, so the modeled GPU totals below carry the paper's
 * calibration: a refactor that changes a kernel signature, a call
 * overhead or the order in which charges accumulate moves one of
 * them.  Modeled charges depend on graph structure and tensor shapes
 * only, never on feature values, so the pins are independent of the
 * test seed.  The relative tolerance absorbs FMA-contraction
 * differences between build flavours.
 */

#include <gtest/gtest.h>

#include "gnnbench/device/hierarchy.h"
#include "gnnbench/dglx/nn.h"
#include "gnnbench/graph/generate.h"
#include "gnnbench/pygx/nn.h"

namespace gnnbench {
namespace {

namespace ag = core::ag;
using core::Tensor;

constexpr NodeId kNodes = 2000;
constexpr EdgeId kEdges = 16000;
constexpr int64_t kIn = 64;
constexpr int64_t kOut = 32;

struct Fixture
{
    graph::CooGraph coo;
    dglx::Graph dgl;
    pygx::Data pyg;

    Fixture()
        : coo([] {
              core::Rng rng(2022);
              return graph::symmetrize(
                  graph::rmat(kNodes, kEdges, rng), false);
          }()),
          dgl(coo), pyg(coo)
    {
        // Fusion (default on) decides which dglx SAGE kernels run.
        device::setDeviceConfig(device::DeviceConfig{});
    }

    /** Fresh differentiable input features. */
    static ag::Var
    input()
    {
        core::Rng rng(7);
        return ag::leaf(Tensor::randn(kNodes, kIn, rng), true);
    }
};

/** Run forward (and backward when @p train) and return the charges. */
template <typename Layer, typename G, typename Ctx>
device::ModeledTotals
charge(Layer &layer, const G &g, const Ctx &ctx, bool train)
{
    ag::Var out = layer.forward(g, Fixture::input(), ctx);
    if (train) {
        const Tensor seed =
            Tensor::full(out->value.rows(), out->value.cols(), 1.0f);
        ag::backward(out, &seed);
    }
    return ctx.session->snapshot().modeled;
}

void
expectPinned(const device::ModeledTotals &m, double gpu_seconds,
             double gpu_util_seconds)
{
    EXPECT_NEAR(m.gpuSeconds, gpu_seconds, 1e-12 * gpu_seconds);
    EXPECT_NEAR(m.gpuUtilSeconds, gpu_util_seconds,
                1e-12 * gpu_util_seconds);
}

dglx::KernelCtx
dglxGpu(device::Session &s)
{
    return dglx::KernelCtx{&s, device::DeviceType::GPU, dglx::Costs{}};
}

pygx::KernelCtx
pygxGpu(device::Session &s)
{
    return pygx::KernelCtx{&s, device::DeviceType::GPU, pygx::Costs{},
                           1.0};
}

TEST(ModeledCharges, DglxGcnTrainStep)
{
    Fixture f;
    device::Session s;
    core::Rng rng(1);
    dglx::GcnConv layer(kIn, kOut, rng);
    expectPinned(charge(layer, f.dgl, dglxGpu(s), true),
                 4.2819186232068574e-04, 4.3928984242070126e-05);
}

TEST(ModeledCharges, DglxSageTrainStep)
{
    Fixture f;
    device::Session s;
    core::Rng rng(1);
    dglx::SageConv layer(kIn, kOut, rng);
    expectPinned(charge(layer, f.dgl, dglxGpu(s), true),
                 4.5677767485782187e-04, 4.7897363505785279e-05);
}

TEST(ModeledCharges, DglxGatForward)
{
    Fixture f;
    device::Session s;
    core::Rng rng(1);
    dglx::GatConv layer(kIn, kOut, rng);
    expectPinned(charge(layer, f.dgl, dglxGpu(s), false),
                 3.7200833312112721e-04, 3.7570765982113242e-05);
}

// The shared GEMM charges both backward GEMMs their 4(mk + kn + mn)
// operand bytes, like the forward one, in either framework.
TEST(ModeledCharges, PygxGcnTrainStep)
{
    Fixture f;
    device::Session s;
    core::Rng rng(1);
    pygx::GcnConv layer(kIn, kOut, rng);
    expectPinned(charge(layer, f.pyg, pygxGpu(s), true),
                 2.9998343570761645e-04, 3.4029894088352734e-05);
}

TEST(ModeledCharges, PygxSageTrainStep)
{
    Fixture f;
    device::Session s;
    core::Rng rng(1);
    pygx::SageConv layer(kIn, kOut, rng);
    expectPinned(charge(layer, f.pyg, pygxGpu(s), true),
                 3.4916801087101510e-04, 4.6894895319562597e-05);
}

TEST(ModeledCharges, PygxGatForward)
{
    Fixture f;
    device::Session s;
    core::Rng rng(1);
    pygx::GatConv layer(kIn, kOut, rng);
    expectPinned(charge(layer, f.pyg, pygxGpu(s), false),
                 3.1807570222028205e-04, 5.4456734936606061e-05);
}

// On the CPU only pygx's torch_sparse SpMM pays the modeled kernel gap
// (Costs::cpuSparsePenalty); dglx's g-SpMM is charged nothing beyond
// its measured time, and neither touches the GPU counters.
TEST(ModeledCharges, CpuSparsePenaltyIsPygxOnly)
{
    Fixture f;
    core::Rng rng(3);
    const Tensor x = Tensor::randn(kNodes, 64, rng);

    device::Session ps;
    pygx::spmm(f.pyg.csc(), x, nullptr,
               pygx::KernelCtx{&ps, device::DeviceType::CPU,
                               pygx::Costs{}, 1.0});
    EXPECT_GT(ps.snapshot().modeled.cpuOverheadSeconds, 0.0);
    EXPECT_EQ(ps.snapshot().modeled.gpuSeconds, 0.0);

    device::Session ds;
    dglx::gspmm(f.dgl.csc(), x, dglx::Reducer::Sum, nullptr,
                dglx::KernelCtx{&ds, device::DeviceType::CPU,
                                dglx::Costs{}});
    EXPECT_EQ(ds.snapshot().modeled.cpuOverheadSeconds, 0.0);
    EXPECT_EQ(ds.snapshot().modeled.gpuSeconds, 0.0);
}

} // namespace
} // namespace gnnbench
