#include "gnnbench/dglx/nn.h"

namespace gnnbench {
namespace dglx {

namespace ag = core::ag;
using core::Tensor;

namespace {

/**
 * Multiply by the symmetric-normalized adjacency with self loops:
 * P x = spmm(A_norm) x + diag(1/(d+1)) x.  Shared by GCN-family
 * layers.  Weight arrays are cached on the Graph.
 */
Var
propagateNorm(const Graph &g, const Var &x, const KernelCtx &ctx)
{
    Var agg = spmmVar(g.csc(), g.gcnNormCsc().data(), nn::borrow(g.csr()),
                      nn::borrow(g.gcnNormCsr()), x, ctx);
    std::vector<float> self;
    runPrep(ctx, static_cast<double>(g.numNodes()), [&] {
        self.resize(g.numNodes());
        for (NodeId v = 0; v < g.numNodes(); ++v)
            self[v] = 1.0f /
                      (static_cast<float>(g.inDegrees()[v]) + 1.0f);
    });
    return addVar(agg, rowScaleVar(x, std::move(self), ctx), ctx);
}

} // namespace

GcnConv::GcnConv(int64_t in_dim, int64_t out_dim, core::Rng &rng,
                 bool trainable)
    : Conv("GCNConv", trainable),
      weight_(addParam(Tensor::glorot(in_dim, out_dim, rng))),
      bias_(addParam(Tensor::zeros(1, out_dim)))
{
}

Var
GcnConv::forward(const Graph &g, const Var &x, const KernelCtx &ctx)
{
    Var xw = gemmVar(x, weight_, ctx);
    return addBiasVar(propagateNorm(g, xw, ctx), bias_, ctx);
}

Var
GcnConv::forwardInduced(const graph::CsrGraph &adj,
                        const std::vector<float> &gcn_norm,
                        const std::vector<float> &self_scale,
                        const Var &x, const KernelCtx &ctx)
{
    Var xw = gemmVar(x, weight_, ctx);
    // Symmetric adjacency + symmetric weight function: the same
    // structure/weights serve forward and backward.
    Var agg = spmmVar(adj, gcn_norm.data(), nn::borrow(adj),
                      nn::borrow(gcn_norm), xw, ctx);
    Var h = addVar(agg, rowScaleVar(xw, self_scale, ctx), ctx);
    return addBiasVar(h, bias_, ctx);
}

Gcn2Conv::Gcn2Conv(int64_t dim, float alpha, float beta, core::Rng &rng,
                   bool trainable)
    : Conv("GCN2Conv", trainable),
      weight_(addParam(Tensor::glorot(dim, dim, rng))), alpha_(alpha),
      beta_(beta)
{
}

Var
Gcn2Conv::forward(const Graph &g, const Var &x, const KernelCtx &ctx)
{
    GNNBENCH_CHECK(x0_ != nullptr,
                   "GCN2Conv: call setInitial() before forward");
    GNNBENCH_CHECK(x0_->value.sameShape(x->value),
                   "GCN2Conv: initial features shape mismatch");
    Var p = propagateNorm(g, x, ctx);
    Var h = addVar(scaleVar(p, 1.0f - alpha_, ctx), scaleVar(x0_, alpha_, ctx), ctx);
    return addVar(scaleVar(h, 1.0f - beta_, ctx),
                   scaleVar(gemmVar(h, weight_, ctx), beta_, ctx), ctx);
}

ChebConv::ChebConv(int64_t in_dim, int64_t out_dim, int k,
                   core::Rng &rng, bool trainable)
    : Conv("ChebConv", trainable), k_(k)
{
    GNNBENCH_CHECK(k >= 1, "ChebConv order must be >= 1");
    for (int i = 0; i < k; ++i)
        weights_.push_back(addParam(Tensor::glorot(in_dim, out_dim,
                                                   rng)));
    bias_ = addParam(Tensor::zeros(1, out_dim));
}

Var
ChebConv::forward(const Graph &g, const Var &x, const KernelCtx &ctx)
{
    // With lambda_max = 2, the scaled Laplacian is L~ = -P (P the
    // normalized adjacency), giving the standard Chebyshev recursion
    // T_k = -2 P T_{k-1} - T_{k-2}.
    Var out = gemmVar(x, weights_[0], ctx);
    Var t_prev2 = x;
    Var t_prev1;
    if (k_ > 1) {
        t_prev1 = scaleVar(propagateNorm(g, x, ctx), -1.0f, ctx);
        out = addVar(out, gemmVar(t_prev1, weights_[1], ctx), ctx);
    }
    for (int i = 2; i < k_; ++i) {
        Var t = addVar(
            scaleVar(propagateNorm(g, t_prev1, ctx), -2.0f, ctx),
            scaleVar(t_prev2, -1.0f, ctx), ctx);
        out = addVar(out, gemmVar(t, weights_[i], ctx), ctx);
        t_prev2 = t_prev1;
        t_prev1 = t;
    }
    return addBiasVar(out, bias_, ctx);
}

SageConv::SageConv(int64_t in_dim, int64_t out_dim, core::Rng &rng,
                   bool trainable)
    : Conv("SAGEConv", trainable),
      selfWeight_(addParam(Tensor::glorot(in_dim, out_dim, rng))),
      neighWeight_(addParam(Tensor::glorot(in_dim, out_dim, rng))),
      bias_(addParam(Tensor::zeros(1, out_dim)))
{
}

Var
SageConv::forward(const Graph &g, const Var &x, const KernelCtx &ctx)
{
    // Mean aggregation through the kernel graph: the spmm→row-scale
    // chain fuses into one gspmm_mean kernel when fusion is on.
    Var agg = spmmMeanVar(g.csc(), nn::borrow(g.csr()), x, ctx);
    Var h = addVar(gemmVar(x, selfWeight_, ctx),
                    gemmVar(agg, neighWeight_, ctx), ctx);
    return addBiasVar(h, bias_, ctx);
}

Var
SageConv::forwardBlock(const sampling::Block &block, const Var &x_src,
                       const KernelCtx &ctx)
{
    // Backward runs the scatter-form kernel over the same block
    // structure — no transpose is ever materialized (DGL's approach).
    // The mean normalization fuses into the aggregation kernel when
    // the kernel graph allows it.
    Var agg = spmmMeanScatterBwdVar(nn::borrow(block.csc), x_src, ctx);
    // Destination features are the first |dst| rows of x_src.
    std::vector<NodeId> dst_rows(block.dstNodes.size());
    for (size_t i = 0; i < dst_rows.size(); ++i)
        dst_rows[i] = static_cast<NodeId>(i);
    Var x_dst = ag::gatherRows(x_src, std::move(dst_rows));
    Var h = addVar(gemmVar(x_dst, selfWeight_, ctx),
                    gemmVar(agg, neighWeight_, ctx), ctx);
    return addBiasVar(h, bias_, ctx);
}

Var
SageConv::forwardInduced(const graph::CsrGraph &adj, const Var &x,
                         const KernelCtx &ctx)
{
    Var agg = spmmMeanVar(adj, nn::borrow(adj), x, ctx);
    Var h = addVar(gemmVar(x, selfWeight_, ctx),
                    gemmVar(agg, neighWeight_, ctx), ctx);
    return addBiasVar(h, bias_, ctx);
}

GatConv::GatConv(int64_t in_dim, int64_t out_dim, core::Rng &rng,
                 bool trainable)
    : Conv("GATConv", trainable),
      weight_(addParam(Tensor::glorot(in_dim, out_dim, rng))),
      attnL_(addParam(Tensor::glorot(out_dim, 1, rng))),
      attnR_(addParam(Tensor::glorot(out_dim, 1, rng)))
{
}

Var
GatConv::forward(const Graph &g, const Var &x, const KernelCtx &ctx)
{
    Var z = gemmVar(x, weight_, ctx);
    Var al = gemmVar(z, attnL_, ctx);
    Var ar = gemmVar(z, attnR_, ctx);
    // Per-edge scalar path: logits, LeakyReLU, segment softmax,
    // fused weighted aggregation — no E x F materialization, and
    // every step differentiable (training support).
    auto csc = nn::borrow(g.csc());
    Var logits = gsddmmAddVar(csc, al, ar, ctx);
    Var scores = elemVar(ctx, [&] {
        return ag::leakyRelu(logits, 0.2f);
    });
    Var att = edgeSoftmaxVar(csc, scores, ctx);
    return gspmmEdgeScalarVar(csc, z, att, ctx);
}

Gatv2Conv::Gatv2Conv(int64_t in_dim, int64_t out_dim, core::Rng &rng,
                     bool trainable)
    : Conv("GATv2Conv", trainable),
      weightL_(addParam(Tensor::glorot(in_dim, out_dim, rng))),
      weightR_(addParam(Tensor::glorot(in_dim, out_dim, rng))),
      attn_(addParam(Tensor::glorot(1, out_dim, rng)))
{
}

Var
Gatv2Conv::forward(const Graph &g, const Var &x, const KernelCtx &ctx)
{
    Var zl = gemmVar(x, weightL_, ctx);
    Var zr = gemmVar(x, weightR_, ctx);
    auto csc = nn::borrow(g.csc());
    Var scores = gsddmmAttnV2Var(csc, zl, zr, attn_, 0.2f, ctx);
    Var att = edgeSoftmaxVar(csc, scores, ctx);
    return gspmmEdgeScalarVar(csc, zr, att, ctx);
}

TagConv::TagConv(int64_t in_dim, int64_t out_dim, int k, core::Rng &rng,
                 bool trainable)
    : Conv("TAGConv", trainable), k_(k)
{
    GNNBENCH_CHECK(k >= 0, "TAGConv order must be >= 0");
    for (int i = 0; i <= k; ++i)
        weights_.push_back(addParam(Tensor::glorot(in_dim, out_dim,
                                                   rng)));
    bias_ = addParam(Tensor::zeros(1, out_dim));
}

Var
TagConv::forward(const Graph &g, const Var &x, const KernelCtx &ctx)
{
    Var out = gemmVar(x, weights_[0], ctx);
    Var xk = x;
    for (int i = 1; i <= k_; ++i) {
        xk = propagateNorm(g, xk, ctx);
        out = addVar(out, gemmVar(xk, weights_[i], ctx), ctx);
    }
    return addBiasVar(out, bias_, ctx);
}

SgConv::SgConv(int64_t in_dim, int64_t out_dim, int k, core::Rng &rng,
               bool trainable)
    : Conv("SGConv", trainable), k_(k),
      weight_(addParam(Tensor::glorot(in_dim, out_dim, rng))),
      bias_(addParam(Tensor::zeros(1, out_dim)))
{
    GNNBENCH_CHECK(k >= 1, "SGConv order must be >= 1");
}

Var
SgConv::forward(const Graph &g, const Var &x, const KernelCtx &ctx)
{
    Var xk = x;
    for (int i = 0; i < k_; ++i)
        xk = propagateNorm(g, xk, ctx);
    return addBiasVar(gemmVar(xk, weight_, ctx), bias_, ctx);
}

std::unique_ptr<Conv>
makeConv(nn::ConvKind kind, int64_t in_dim, int64_t out_dim, core::Rng &rng,
         bool trainable)
{
    switch (kind) {
      case nn::ConvKind::Gcn:
        return std::make_unique<GcnConv>(in_dim, out_dim, rng,
                                         trainable);
      case nn::ConvKind::Gcn2:
        return std::make_unique<Gcn2Conv>(out_dim, 0.1f, 0.5f, rng,
                                          trainable);
      case nn::ConvKind::Cheb:
        return std::make_unique<ChebConv>(in_dim, out_dim, 3, rng,
                                          trainable);
      case nn::ConvKind::Sage:
        return std::make_unique<SageConv>(in_dim, out_dim, rng,
                                          trainable);
      case nn::ConvKind::Gat:
        return std::make_unique<GatConv>(in_dim, out_dim, rng,
                                         trainable);
      case nn::ConvKind::Gatv2:
        return std::make_unique<Gatv2Conv>(in_dim, out_dim, rng,
                                           trainable);
      case nn::ConvKind::Tag:
        return std::make_unique<TagConv>(in_dim, out_dim, 3, rng,
                                         trainable);
      case nn::ConvKind::Sg:
        return std::make_unique<SgConv>(in_dim, out_dim, 2, rng,
                                        trainable);
    }
    GNNBENCH_ASSERT(false, "unknown conv kind");
    __builtin_unreachable();
}

} // namespace dglx
} // namespace gnnbench
