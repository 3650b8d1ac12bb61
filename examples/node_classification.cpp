/**
 * @file
 * End-to-end node classification on the Flickr stand-in dataset:
 * builds a two-layer GCN by hand on the dglx framework, trains with
 * mini-batches from the ClusterGCN sampler, and evaluates accuracy on
 * the held-out validation and test splits each epoch.
 *
 * This example shows the *library* API (graph object, sampler, nn
 * layers, autograd, optimizer) rather than the prepackaged model
 * drivers the benchmarks use.
 */

#include <cstdio>

#include "gnnbench/core/optim.h"
#include "gnnbench/dglx/dataloader.h"
#include "gnnbench/dglx/nn.h"
#include "gnnbench/dglx/sampler.h"
#include "gnnbench/graph/datasets.h"

using namespace gnnbench;
namespace ag = core::ag;

namespace {

/** Full-graph accuracy over a split. */
double
evaluate(dglx::GcnConv &l1, dglx::GcnConv &l2, const dglx::Graph &g,
         const core::Tensor &features,
         const std::vector<int32_t> &labels,
         const std::vector<NodeId> &split)
{
    dglx::KernelCtx ctx;  // no session: untimed inference
    ag::Var x = ag::constant(features.clone());
    ag::Var h = ag::relu(l1.forward(g, x, ctx));
    ag::Var out = l2.forward(g, h, ctx);
    const int64_t correct =
        core::ops::countCorrect(out->value, labels, split);
    return static_cast<double>(correct) / split.size();
}

} // namespace

int
main()
{
    // Flickr at 1/8 scale keeps this example snappy.
    graph::Dataset ds = graph::loadDataset("flickr", 0.125);
    dglx::LoadedData data = dglx::DataLoader::load(ds);
    std::printf("flickr stand-in: %d nodes, %lld edges, %lld "
                "features, %d classes\n",
                ds.numNodes(), static_cast<long long>(ds.numEdges()),
                static_cast<long long>(ds.info.numFeatures),
                ds.info.numClasses);

    // Model: GCN(500 -> 64) + ReLU + GCN(64 -> 7).
    core::Rng rng(7);
    dglx::GcnConv layer1(ds.info.numFeatures, 64, rng);
    dglx::GcnConv layer2(64, ds.info.numClasses, rng);
    std::vector<ag::Var> params = layer1.params();
    params.insert(params.end(), layer2.params().begin(),
                  layer2.params().end());
    core::Adam opt(params, 5e-3f);

    // Mini-batches: 64 clusters, 8 merged per batch.
    dglx::ClusterSampler sampler(*data.graph, 64, rng.fork());
    std::vector<bool> is_train(ds.numNodes(), false);
    for (NodeId v : data.trainIdx)
        is_train[v] = true;

    dglx::KernelCtx ctx;  // CPU, untimed
    for (int epoch = 1; epoch <= 5; ++epoch) {
        double loss_sum = 0.0;
        int64_t loss_nodes = 0;
        for (int batch = 0; batch < 8; ++batch) {
            auto smp = sampler.sample(8);
            // Local labels + training rows for this subgraph.
            std::vector<int32_t> labels(smp.nodes.size());
            std::vector<NodeId> rows;
            for (size_t i = 0; i < smp.nodes.size(); ++i) {
                labels[i] = data.labels[smp.nodes[i]];
                if (is_train[smp.nodes[i]])
                    rows.push_back(static_cast<NodeId>(i));
            }
            if (rows.empty())
                continue;
            const auto norm = nn::gcnNorm(smp.adj);
            const auto self = nn::selfScale(smp.adj);
            ag::Var x = ag::constant(
                core::ops::gatherRows(data.features, smp.nodes));
            ag::Var h = ag::relu(
                layer1.forwardInduced(smp.adj, norm, self, x, ctx));
            ag::Var out =
                layer2.forwardInduced(smp.adj, norm, self, h, ctx);
            ag::Var loss = ag::nllLoss(ag::logSoftmax(out), labels,
                                       rows);
            loss_sum += loss->value(0, 0) * rows.size();
            loss_nodes += static_cast<int64_t>(rows.size());
            opt.zeroGrad();
            ag::backward(loss);
            opt.step();
        }
        const double val_acc = evaluate(layer1, layer2, *data.graph,
                                        data.features, data.labels,
                                        data.valIdx);
        std::printf("epoch %d: train loss %.4f, val accuracy %.3f\n",
                    epoch, loss_sum / loss_nodes, val_acc);
    }
    const double test_acc = evaluate(layer1, layer2, *data.graph,
                                     data.features, data.labels,
                                     data.testIdx);
    std::printf("test accuracy: %.3f (random baseline %.3f)\n",
                test_acc, 1.0 / ds.info.numClasses);
    return 0;
}
