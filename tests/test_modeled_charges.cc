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
 *
 * The same holds one level up: TrainingPipelines pins every training
 * pipeline's modeled seconds phase by phase.
 */

#include <gtest/gtest.h>

#include <array>

#include "gnnbench/device/hierarchy.h"
#include "gnnbench/dglx/nn.h"
#include "gnnbench/graph/generate.h"
#include "gnnbench/models/clustergcn.h"
#include "gnnbench/models/graphsage.h"
#include "gnnbench/models/graphsaint.h"
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

/**
 * One tiny run per supported (model, framework, mode, preload) on
 * ppi x0.05.  The training driver decides which phase each step's
 * work is charged to and how a batch's features reach the device, so
 * a change to either moves one of these pins.  Prefetch stays off:
 * its overlap credit comes from measured time.  Losses are not pinned
 * here because FMA contraction changes them between build flavours.
 */
struct PipelinePin
{
    const char *name;
    models::TrainResult (*train)(const graph::Dataset &,
                                 const models::TrainConfig &);
    models::Framework fw;
    models::RunMode mode;
    bool preload;
    /** {gpuBusySeconds, gpuUtilSeconds, xferSeconds} per phase. */
    std::array<std::array<double, 3>, profiling::kNumPhases> phases;
};

using models::Framework;
using models::RunMode;

const PipelinePin kPipelinePins[] = {
    {"SageDglCPU", &models::trainGraphSage, Framework::Dglx,
     RunMode::CPU, false, {}},
    {"SageDglCPUGPU", &models::trainGraphSage, Framework::Dglx,
     RunMode::CPUGPU, false,
     {{{},
       {},
       {0, 0, 0.00010791866666666667},
       {0.0025655943351583039, 0.00025655943351583077, 0},
       {}}}},
    {"SageDglCPUGPUPreload", &models::trainGraphSage, Framework::Dglx,
     RunMode::CPUGPU, true,
     {{{},
       {4.0774022412698514e-05, 1.6309608965079361e-05, 0},
       {0, 0, 0.00010525133333333335},
       {0.0025655943351583039, 0.00025655943351583066, 0},
       {}}}},
    {"SageDglGPU", &models::trainGraphSage, Framework::Dglx,
     RunMode::GPU, false,
     {{{},
       {0.00030471972731745968, 9.0010455712036819e-05, 0},
       {0, 0, 5.2352333333333337e-05},
       {0.0025654239376962894, 0.00025654239376962922, 0},
       {}}}},
    {"SageDglUVAGPU", &models::trainGraphSage, Framework::Dglx,
     RunMode::UVAGPU, false,
     {{{},
       {0.00068807851699999984, 0.00013685221887020378, 0},
       {0, 0, 1.1869666666666667e-05},
       {0.0025654239376962894, 0.00025654239376962906, 0},
       {}}}},
    {"SagePygCPU", &models::trainGraphSage, Framework::Pygx,
     RunMode::CPU, false, {}},
    {"SagePygCPUGPU", &models::trainGraphSage, Framework::Pygx,
     RunMode::CPUGPU, false,
     {{{},
       {},
       {0, 0, 0.00011546533333333333},
       {0.0026130418380988746, 0.00026910434048493906, 0},
       {}}}},
    {"SagePygCPUGPUPreload", &models::trainGraphSage, Framework::Pygx,
     RunMode::CPUGPU, true,
     {{{},
       {4.0755782031746108e-05, 1.63023128126984e-05, 0},
       {0, 0, 0.00010282200000000001},
       {0.0026130418380988746, 0.00026910434048493912, 0},
       {}}}},
    {"ClusterDglCPU", &models::trainClusterGcn, Framework::Dglx,
     RunMode::CPU, false, {}},
    {"ClusterDglCPUGPU", &models::trainClusterGcn, Framework::Dglx,
     RunMode::CPUGPU, false,
     {{{},
       {},
       {0, 0, 6.7240000000000014e-05},
       {0.0031079212414056537, 0.00031079212414056534, 0},
       {}}}},
    {"ClusterDglCPUGPUPreload", &models::trainClusterGcn, Framework::Dglx,
     RunMode::CPUGPU, true,
     {{{},
       {3.524975003174575e-05, 1.4099900012698427e-05, 0},
       {0, 0, 9.4072666666666671e-05},
       {0.0031079212414056537, 0.00031079212414056529, 0},
       {}}}},
    {"ClusterPygCPU", &models::trainClusterGcn, Framework::Pygx,
     RunMode::CPU, false, {}},
    {"ClusterPygCPUGPU", &models::trainClusterGcn, Framework::Pygx,
     RunMode::CPUGPU, false,
     {{{},
       {},
       {0, 0, 6.5639666666666668e-05},
       {0.0028554556324347888, 0.00028554556324347926, 0},
       {}}}},
    {"ClusterPygCPUGPUPreload", &models::trainClusterGcn, Framework::Pygx,
     RunMode::CPUGPU, true,
     {{{},
       {3.4940434920635111e-05, 1.3976173968253951e-05, 0},
       {0, 0, 8.3879666666666669e-05},
       {0.0028554556324347888, 0.00028554556324347931, 0},
       {}}}},
    {"SaintDglCPU", &models::trainGraphSaint, Framework::Dglx,
     RunMode::CPU, false, {}},
    {"SaintDglCPUGPU", &models::trainGraphSaint, Framework::Dglx,
     RunMode::CPUGPU, false,
     {{{},
       {},
       {0, 0, 5.4961666666666673e-05},
       {0.0023467726737967909, 0.00023467726737967919, 0},
       {}}}},
    {"SaintDglCPUGPUPreload", &models::trainGraphSaint, Framework::Dglx,
     RunMode::CPUGPU, true,
     {{{},
       {2.6597835936507992e-05, 1.0639134374603178e-05, 0},
       {0, 0, 8.5111000000000019e-05},
       {0.0023467726737967914, 0.00023467726737967914, 0},
       {}}}},
    {"SaintPygCPU", &models::trainGraphSaint, Framework::Pygx,
     RunMode::CPU, false, {}},
    {"SaintPygCPUGPU", &models::trainGraphSaint, Framework::Pygx,
     RunMode::CPUGPU, false,
     {{{},
       {},
       {0, 0, 5.8796666666666672e-05},
       {0.0023953517414238429, 0.00029001002727181046, 0},
       {}}}},
    {"SaintPygCPUGPUPreload", &models::trainGraphSaint, Framework::Pygx,
     RunMode::CPUGPU, true,
     {{{},
       {2.6665837142857032e-05, 1.0666334857142844e-05, 0},
       {0, 0, 7.8553333333333339e-05},
       {0.0023953517414238429, 0.00029001002727181029, 0},
       {}}}},
};

TEST(ModeledCharges, TrainingPipelines)
{
    const graph::Dataset ds = graph::loadDataset("ppi", 0.05, 5);
    for (const PipelinePin &pin : kPipelinePins) {
        SCOPED_TRACE(pin.name);
        models::TrainConfig cfg;
        cfg.framework = pin.fw;
        cfg.mode = pin.mode;
        cfg.preloadFeatures = pin.preload;
        cfg.epochs = 1;
        cfg.hiddenDim = 16;
        cfg.batchSize = 128;
        cfg.numParts = 20;
        cfg.clustersPerBatch = 5;
        cfg.saintRoots = 100;
        const models::TrainResult r = pin.train(ds, cfg);
        for (int p = 0; p < profiling::kNumPhases; ++p) {
            SCOPED_TRACE(profiling::phaseName(
                static_cast<profiling::Phase>(p)));
            const power::ActivitySlice &got = r.phases[p];
            const std::array<double, 3> &want = pin.phases[p];
            EXPECT_NEAR(got.gpuBusySeconds, want[0], 1e-12 * want[0]);
            EXPECT_NEAR(got.gpuUtilSeconds, want[1], 1e-12 * want[1]);
            EXPECT_NEAR(got.xferSeconds, want[2], 1e-12 * want[2]);
        }
    }
}

} // namespace
} // namespace gnnbench
