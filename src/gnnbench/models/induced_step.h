/**
 * @file
 * The per-batch training step shared by the induced-subgraph models
 * (ClusterGCN and GraphSAINT): two GCN layers over the sampled
 * subgraph, NLL loss on the batch's training nodes, Adam update.
 */

#ifndef GNNBENCH_MODELS_INDUCED_STEP_H
#define GNNBENCH_MODELS_INDUCED_STEP_H

#include "gnnbench/core/optim.h"
#include "gnnbench/dglx/nn.h"
#include "gnnbench/models/pipeline.h"
#include "gnnbench/pygx/nn.h"
#include "gnnbench/sampling/subgraph.h"

namespace gnnbench {
namespace models {

/** Local labels + the local row indices carrying training loss. */
struct BatchSupervision
{
    std::vector<int32_t> labels;
    std::vector<NodeId> lossRows;
};

/** Build local supervision for a batch of global node ids. */
inline BatchSupervision
localSupervision(const std::vector<NodeId> &nodes,
                 const std::vector<int32_t> &labels,
                 const std::vector<bool> &train_mask)
{
    BatchSupervision sup;
    sup.labels.resize(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
        sup.labels[i] = labels[nodes[i]];
        if (train_mask[nodes[i]])
            sup.lossRows.push_back(static_cast<NodeId>(i));
    }
    return sup;
}

/** One dglx training step over an induced subgraph. */
inline void
inducedStepDglx(const sampling::InducedSample &smp, core::Tensor x,
                const BatchSupervision &sup, dglx::GcnConv &layer1,
                dglx::GcnConv &layer2, core::Adam &opt,
                const dglx::KernelCtx &ctx, EpochStats &stats)
{
    if (sup.lossRows.empty())
        return;  // no supervised node sampled in this batch
    namespace ag = core::ag;
    // Per-subgraph normalization, recomputed per batch like both
    // frameworks do on sampled subgraphs.
    const std::vector<float> norm = nn::gcnNorm(smp.adj);
    const std::vector<float> self = nn::selfScale(smp.adj);
    ag::Var xv = ag::leaf(std::move(x), false);
    ag::Var h = layer1.forwardInduced(smp.adj, norm, self, xv, ctx);
    h = ag::relu(h);
    ag::Var out = layer2.forwardInduced(smp.adj, norm, self, h, ctx);
    ag::Var lp = ag::logSoftmax(out);
    stats.correct += core::ops::countCorrect(out->value, sup.labels,
                                             sup.lossRows);
    stats.total += static_cast<int64_t>(sup.lossRows.size());
    ag::Var loss = ag::nllLoss(lp, sup.labels, sup.lossRows);
    stats.loss += loss->value(0, 0) *
                  static_cast<double>(sup.lossRows.size());
    opt.zeroGrad();
    ag::backward(loss);
    opt.step();
}

/** One pygx training step over an induced edge batch. */
inline void
inducedStepPygx(const pygx::EdgeBatch &batch, core::Tensor x,
                const BatchSupervision &sup, pygx::GcnConv &layer1,
                pygx::GcnConv &layer2, core::Adam &opt,
                const pygx::KernelCtx &ctx, EpochStats &stats)
{
    if (sup.lossRows.empty())
        return;
    namespace ag = core::ag;
    ag::Var xv = ag::leaf(std::move(x), false);
    ag::Var h = layer1.forwardBatch(batch, xv, ctx);
    h = ag::relu(h);
    ag::Var out = layer2.forwardBatch(batch, h, ctx);
    ag::Var lp = ag::logSoftmax(out);
    stats.correct += core::ops::countCorrect(out->value, sup.labels,
                                             sup.lossRows);
    stats.total += static_cast<int64_t>(sup.lossRows.size());
    ag::Var loss = ag::nllLoss(lp, sup.labels, sup.lossRows);
    stats.loss += loss->value(0, 0) *
                  static_cast<double>(sup.lossRows.size());
    opt.zeroGrad();
    ag::backward(loss);
    opt.step();
}

/** Dense train-membership mask from the dataset's train indices. */
inline std::vector<bool>
trainMask(NodeId num_nodes, const std::vector<NodeId> &train_idx)
{
    std::vector<bool> mask(num_nodes, false);
    for (NodeId v : train_idx)
        mask[v] = true;
    return mask;
}

} // namespace models
} // namespace gnnbench

#endif // GNNBENCH_MODELS_INDUCED_STEP_H
