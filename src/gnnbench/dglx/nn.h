/**
 * @file
 * The dglx 'nn' module: graph-convolution layers built on the fused
 * g-SpMM / g-SDDMM kernels.
 *
 * The eight layers match the ones the paper functional-tests in
 * Figure 5: GCNConv, GCN2Conv, ChebConv, SAGEConv, GATConv,
 * GATv2Conv, TAGConv, SGConv.  All layers support full-graph forward;
 * SAGEConv and GCNConv additionally support the sampled inputs the
 * end-to-end models need (bipartite blocks and induced subgraphs).
 * Every layer is fully differentiable, including the attention
 * layers: their custom ops (u_add_v, edge softmax, fused GATv2
 * scoring, weighted aggregation) all carry backward passes over the
 * same csc structure, so training never materializes a transpose.
 */

#ifndef GNNBENCH_DGLX_NN_H
#define GNNBENCH_DGLX_NN_H

#include <memory>
#include <vector>

#include "gnnbench/dglx/graph.h"
#include "gnnbench/dglx/kernels.h"
#include "gnnbench/nn/conv.h"
#include "gnnbench/sampling/subgraph.h"

namespace gnnbench {
namespace dglx {

using core::ag::Var;

/** Base of every dglx layer: the shared parameter registry with a
 *  full-graph forward over a dglx::Graph. */
using Conv = nn::Conv<Graph>;

/** Kipf & Welling GCN layer with symmetric normalization. */
class GcnConv : public Conv
{
  public:
    GcnConv(int64_t in_dim, int64_t out_dim, core::Rng &rng,
            bool trainable = true);

    Var forward(const Graph &g, const Var &x,
                const KernelCtx &ctx) override;

    /**
     * Forward over a symmetric induced subgraph with precomputed
     * normalization (ClusterGCN / GraphSAINT training path).
     */
    Var forwardInduced(const graph::CsrGraph &adj,
                       const std::vector<float> &gcn_norm,
                       const std::vector<float> &self_scale,
                       const Var &x, const KernelCtx &ctx);

  private:
    Var weight_;
    Var bias_;
};

/** GCNII layer (Chen et al. 2020) with initial residual + identity. */
class Gcn2Conv : public Conv
{
  public:
    Gcn2Conv(int64_t dim, float alpha, float beta, core::Rng &rng,
             bool trainable = true);

    Var forward(const Graph &g, const Var &x,
                const KernelCtx &ctx) override;

    /** GCNII needs the layer-0 features; set before forward. */
    void setInitial(const Var &x0) { x0_ = x0; }

  private:
    Var weight_;
    Var x0_;
    float alpha_;
    float beta_;
};

/** Chebyshev spectral convolution of order K. */
class ChebConv : public Conv
{
  public:
    ChebConv(int64_t in_dim, int64_t out_dim, int k, core::Rng &rng,
             bool trainable = true);

    Var forward(const Graph &g, const Var &x,
                const KernelCtx &ctx) override;

  private:
    int k_;
    std::vector<Var> weights_;
    Var bias_;
};

/** GraphSAGE layer with mean aggregation. */
class SageConv : public Conv
{
  public:
    SageConv(int64_t in_dim, int64_t out_dim, core::Rng &rng,
             bool trainable = true);

    Var forward(const Graph &g, const Var &x,
                const KernelCtx &ctx) override;

    /**
     * Bipartite forward over a sampled block: @p x_src holds the
     * features of block.srcNodes; the output has |dst| rows.
     */
    Var forwardBlock(const sampling::Block &block, const Var &x_src,
                     const KernelCtx &ctx);

    /** Forward over a symmetric induced subgraph. */
    Var forwardInduced(const graph::CsrGraph &adj, const Var &x,
                       const KernelCtx &ctx);

  private:
    Var selfWeight_;
    Var neighWeight_;
    Var bias_;
};

/** Graph attention layer (GAT), single head. Fully trainable. */
class GatConv : public Conv
{
  public:
    GatConv(int64_t in_dim, int64_t out_dim, core::Rng &rng,
            bool trainable = true);

    Var forward(const Graph &g, const Var &x,
                const KernelCtx &ctx) override;

  private:
    Var weight_;
    Var attnL_;
    Var attnR_;
};

/** GATv2 (Brody et al. 2022), single head. Fully trainable. */
class Gatv2Conv : public Conv
{
  public:
    Gatv2Conv(int64_t in_dim, int64_t out_dim, core::Rng &rng,
              bool trainable = true);

    Var forward(const Graph &g, const Var &x,
                const KernelCtx &ctx) override;

  private:
    Var weightL_;
    Var weightR_;
    Var attn_;
};

/** Topology-adaptive GCN of order K. */
class TagConv : public Conv
{
  public:
    TagConv(int64_t in_dim, int64_t out_dim, int k, core::Rng &rng,
            bool trainable = true);

    Var forward(const Graph &g, const Var &x,
                const KernelCtx &ctx) override;

  private:
    int k_;
    std::vector<Var> weights_;
    Var bias_;
};

/** Simplified GCN: W applied to the K-step propagated features. */
class SgConv : public Conv
{
  public:
    SgConv(int64_t in_dim, int64_t out_dim, int k, core::Rng &rng,
           bool trainable = true);

    Var forward(const Graph &g, const Var &x,
                const KernelCtx &ctx) override;

  private:
    int k_;
    Var weight_;
    Var bias_;
};

/**
 * Build one conv layer by kind with the paper's hyperparameters
 * (ChebConv/TAGConv K = 3, SGConv K = 2, GCN2 alpha = 0.1,
 * beta = 0.5; GCN2Conv requires in_dim == out_dim and uses out_dim).
 */
std::unique_ptr<Conv> makeConv(nn::ConvKind kind, int64_t in_dim,
                               int64_t out_dim, core::Rng &rng,
                               bool trainable);

} // namespace dglx
} // namespace gnnbench

#endif // GNNBENCH_DGLX_NN_H
