/**
 * @file
 * The pygx 'nn' module: the same eight convolution layers as dglx,
 * built PyG-style.
 *
 * GCN-family layers (GCN, GCN2, SAGE, TAG, SG) use the torch_sparse
 * fused spmm; ChebConv, GATConv and GATv2Conv have *no* fused kernel
 * (as in PyG v2.0.4) and materialize per-edge feature tensors through
 * gather-and-scatter message passing — which is why they OOM on large
 * graphs in the paper's Figure 5.  Sampled-batch forwards
 * (used by the end-to-end models) follow PyG's official examples and
 * use edge_index gather/scatter.
 */

#ifndef GNNBENCH_PYGX_NN_H
#define GNNBENCH_PYGX_NN_H

#include <memory>
#include <vector>

#include "gnnbench/nn/conv.h"
#include "gnnbench/pygx/batch.h"
#include "gnnbench/pygx/scatter.h"

namespace gnnbench {
namespace pygx {

using core::ag::Var;

/** Base of every pygx layer: the shared parameter registry with a
 *  full-graph forward over a Data object. */
using Conv = nn::Conv<Data>;

/** GCN layer; fused spmm on full graphs, edge_index on batches. */
class GcnConv : public Conv
{
  public:
    GcnConv(int64_t in_dim, int64_t out_dim, core::Rng &rng,
            bool trainable = true);

    Var forward(const Data &data, const Var &x,
                const KernelCtx &ctx) override;

    /** edge_index forward over an induced batch (official example
     *  path for ClusterGCN / GraphSAINT training). */
    Var forwardBatch(const EdgeBatch &batch, const Var &x,
                     const KernelCtx &ctx);

  private:
    Var weight_;
    Var bias_;
};

/** GCNII layer (fused path). */
class Gcn2Conv : public Conv
{
  public:
    Gcn2Conv(int64_t dim, float alpha, float beta, core::Rng &rng,
             bool trainable = true);

    Var forward(const Data &data, const Var &x,
                const KernelCtx &ctx) override;

    void setInitial(const Var &x0) { x0_ = x0; }

  private:
    Var weight_;
    Var x0_;
    float alpha_;
    float beta_;
};

/** Chebyshev convolution — *no* fused kernel in PyG: each hop runs
 *  through materializing gather/scatter (OOM risk on large graphs). */
class ChebConv : public Conv
{
  public:
    ChebConv(int64_t in_dim, int64_t out_dim, int k, core::Rng &rng,
             bool trainable = true);

    Var forward(const Data &data, const Var &x,
                const KernelCtx &ctx) override;

  private:
    int k_;
    std::vector<Var> weights_;
    Var bias_;
};

/** GraphSAGE layer; fused on full graphs, edge_index on batches. */
class SageConv : public Conv
{
  public:
    SageConv(int64_t in_dim, int64_t out_dim, core::Rng &rng,
             bool trainable = true);

    Var forward(const Data &data, const Var &x,
                const KernelCtx &ctx) override;

    /** NeighborLoader bipartite layer forward. */
    Var forwardLayer(const LayerBatch &layer, const Var &x_src,
                     const KernelCtx &ctx);

    /** edge_index forward over an induced batch. */
    Var forwardBatch(const EdgeBatch &batch, const Var &x,
                     const KernelCtx &ctx);

  private:
    Var selfWeight_;
    Var neighWeight_;
    Var bias_;
};

/** GAT layer — unfused; materializes E x F messages.
 *  Inference-only. */
class GatConv : public Conv
{
  public:
    GatConv(int64_t in_dim, int64_t out_dim, core::Rng &rng,
            bool trainable = false);

    Var forward(const Data &data, const Var &x,
                const KernelCtx &ctx) override;

  private:
    Var weight_;
    Var attnL_;
    Var attnR_;
};

/** GATv2 layer — unfused; materializes ~3 E x F tensors.
 *  Inference-only. */
class Gatv2Conv : public Conv
{
  public:
    Gatv2Conv(int64_t in_dim, int64_t out_dim, core::Rng &rng,
              bool trainable = false);

    Var forward(const Data &data, const Var &x,
                const KernelCtx &ctx) override;

  private:
    Var weightL_;
    Var weightR_;
    Var attn_;
};

/** Topology-adaptive GCN (fused path). */
class TagConv : public Conv
{
  public:
    TagConv(int64_t in_dim, int64_t out_dim, int k, core::Rng &rng,
            bool trainable = true);

    Var forward(const Data &data, const Var &x,
                const KernelCtx &ctx) override;

  private:
    int k_;
    std::vector<Var> weights_;
    Var bias_;
};

/** Simplified GCN (fused path). */
class SgConv : public Conv
{
  public:
    SgConv(int64_t in_dim, int64_t out_dim, int k, core::Rng &rng,
           bool trainable = true);

    Var forward(const Data &data, const Var &x,
                const KernelCtx &ctx) override;

  private:
    int k_;
    Var weight_;
    Var bias_;
};

/** Same factory contract as dglx::makeConv. */
std::unique_ptr<Conv> makeConv(nn::ConvKind kind, int64_t in_dim,
                               int64_t out_dim, core::Rng &rng,
                               bool trainable);

/** Per-edge symmetric GCN weights for an edge list (computes degrees
 *  by counting dst endpoints), the edge_index form of nn::gcnNorm;
 *  @p self_scale receives the matching 1/(deg+1) scales. */
std::vector<float> gcnNormEdges(const std::vector<NodeId> &src,
                                const std::vector<NodeId> &dst,
                                NodeId num_nodes,
                                std::vector<float> *self_scale);

} // namespace pygx
} // namespace gnnbench

#endif // GNNBENCH_PYGX_NN_H
