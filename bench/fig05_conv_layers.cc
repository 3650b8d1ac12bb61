/**
 * @file
 * Figure 5: runtime of eight convolution layers (one full-graph
 * forward, output dim 256) on CPU and (modeled) GPU, both frameworks.
 *
 * CPU cells are the median of five *interleaved* repetitions (DGL and
 * PyG alternate, so machine noise hits both equally); GPU cells are
 * modeled and need one repetition.
 *
 * Expected shape (Observation 3): DGL wins on CPU for all layers;
 * GPU gives large speedups over CPU; PyG's unfused ChebConv, GATConv
 * and GATv2Conv go OOM on large graphs (full-size equivalent).
 */

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "gnnbench/dglx/dataloader.h"
#include "gnnbench/dglx/nn.h"
#include "gnnbench/pygx/dataloader.h"
#include "gnnbench/pygx/nn.h"

using namespace gnnbench;

namespace {

constexpr int64_t kOutDim = 256;
constexpr int kCpuRepeats = 5;

std::string
cell(double seconds)
{
    return seconds < 0 ? "OOM" : profiling::fmtSeconds(seconds);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return -1.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options defaults;
    defaults.scale = 0.25;
    auto opts = bench::parseOptions(argc, argv, defaults);
    bench::banner(
        "Figure 5: runtime of eight Conv layers (forward, out=256)",
        opts);
    std::printf("kernel variant: %s (aggregation dispatch; also in "
                "the --json report options)\n\n",
                kernels::variantName(kernels::defaultVariant()));

    profiling::Table all({"Dataset", "Layer", "DGL-CPU", "PyG-CPU",
                          "DGL-GPU", "PyG-GPU", "DGL GPU speedup"});

    for (const auto &name : opts.datasets) {
        graph::Dataset ds = bench::loadDataset(name, opts);
        dglx::LoadedData dgl = dglx::DataLoader::load(ds);
        pygx::LoadedData pyg = pygx::DataLoader::load(ds);
        pyg.data->csc();  // conversion not part of the layer test

        std::printf("--- %s (n=%d, e=%lld, f=%lld) ---\n",
                    name.c_str(), ds.numNodes(),
                    static_cast<long long>(ds.numEdges()),
                    static_cast<long long>(ds.info.numFeatures));
        profiling::Table table({"Layer", "DGL-CPU", "PyG-CPU",
                                "DGL-GPU", "PyG-GPU",
                                "DGL GPU speedup"});

        // GCN2Conv operates at a fixed width: pre-project once.
        core::Rng prng(opts.seed);
        core::Tensor proj = core::Tensor::glorot(
            ds.info.numFeatures, kOutDim, prng);
        core::Tensor x256 = core::ops::matmul(ds.features, proj);

        for (auto kind : nn::allConvKinds()) {
            const bool is_gcn2 = kind == nn::ConvKind::Gcn2;
            const core::Tensor &x = is_gcn2 ? x256 : ds.features;
            const int64_t in_dim =
                is_gcn2 ? kOutDim : ds.info.numFeatures;

            // Build both layers with identical weights up front.
            core::Rng wrng_d(opts.seed + 7), wrng_p(opts.seed + 7);
            auto dconv = dglx::makeConv(kind, in_dim, kOutDim,
                                        wrng_d, false);
            auto pconv = pygx::makeConv(kind, in_dim, kOutDim,
                                        wrng_p, false);
            if (is_gcn2) {
                static_cast<dglx::Gcn2Conv *>(dconv.get())
                    ->setInitial(core::ag::constant(x.clone()));
                static_cast<pygx::Gcn2Conv *>(pconv.get())
                    ->setInitial(core::ag::constant(x.clone()));
            }

            auto run_dgl = [&](device::DeviceType dev) -> double {
                device::Session session;
                dglx::KernelCtx ctx{&session, dev, dglx::Costs{}};
                const auto t0 = session.snapshot();
                dconv->forward(*dgl.graph,
                               core::ag::constant(x.clone()), ctx);
                return device::Session::virtualSeconds(
                    t0, session.snapshot());
            };
            auto run_pyg = [&](device::DeviceType dev) -> double {
                device::Session session;
                pygx::KernelCtx ctx{&session, dev, pygx::Costs{},
                                    1.0 / ds.scale};
                const auto t0 = session.snapshot();
                try {
                    pconv->forward(*pyg.data,
                                   core::ag::constant(x.clone()),
                                   ctx);
                } catch (const pygx::OomError &) {
                    return -1.0;
                }
                return device::Session::virtualSeconds(
                    t0, session.snapshot());
            };

            // CPU: interleaved repetitions, median per framework.
            std::vector<double> d_cpu, p_cpu;
            bool pyg_oom_cpu = false;
            for (int r = 0; r < kCpuRepeats; ++r) {
                d_cpu.push_back(run_dgl(device::DeviceType::CPU));
                const double t =
                    run_pyg(device::DeviceType::CPU);
                if (t < 0) {
                    pyg_oom_cpu = true;
                    break;
                }
                p_cpu.push_back(t);
            }
            const double t_dgl_cpu = median(d_cpu);
            const double t_pyg_cpu =
                pyg_oom_cpu ? -1.0 : median(p_cpu);
            // GPU: modeled time is deterministic; one repetition.
            const double t_dgl_gpu =
                run_dgl(device::DeviceType::GPU);
            const double t_pyg_gpu =
                run_pyg(device::DeviceType::GPU);

            const std::string speedup =
                (t_dgl_cpu > 0 && t_dgl_gpu > 0)
                    ? profiling::fmtFixed(t_dgl_cpu / t_dgl_gpu,
                                          1) +
                          "x"
                    : "-";
            table.addRow({nn::convKindName(kind),
                          cell(t_dgl_cpu), cell(t_pyg_cpu),
                          cell(t_dgl_gpu), cell(t_pyg_gpu),
                          speedup});
            all.addRow({name, nn::convKindName(kind),
                        cell(t_dgl_cpu), cell(t_pyg_cpu),
                        cell(t_dgl_gpu), cell(t_pyg_gpu), speedup});
        }
        table.print();
        std::printf("\n");
    }
    bench::writeJsonReport(opts, "fig05_conv_layers",
                           {{"conv_runtime", &all}});
    std::printf(
        "Expected shape: DGL faster than PyG on CPU for all eight "
        "layers; GPU >> CPU; PyG OOM for ChebConv/GATConv/GATv2Conv "
        "on large graphs (full-size equivalent; Observation 3).\n");
    return 0;
}
