#include "gnnbench/pygx/nn.h"

#include <cmath>

namespace gnnbench {
namespace pygx {

namespace ag = core::ag;
using core::Tensor;

std::vector<float>
gcnNormEdges(const std::vector<NodeId> &src,
             const std::vector<NodeId> &dst, NodeId num_nodes,
             std::vector<float> *self_scale)
{
    std::vector<float> deg(num_nodes, 0.0f);
    for (NodeId d : dst)
        deg[d] += 1.0f;
    std::vector<float> inv_sqrt(num_nodes);
    for (NodeId v = 0; v < num_nodes; ++v)
        inv_sqrt[v] = 1.0f / std::sqrt(deg[v] + 1.0f);
    std::vector<float> w(src.size());
    for (size_t e = 0; e < src.size(); ++e)
        w[e] = inv_sqrt[src[e]] * inv_sqrt[dst[e]];
    if (self_scale) {
        self_scale->resize(num_nodes);
        for (NodeId v = 0; v < num_nodes; ++v)
            (*self_scale)[v] = 1.0f / (deg[v] + 1.0f);
    }
    return w;
}

namespace {

/**
 * Fused multiply by the symmetric-normalized adjacency with self
 * loops.  PyG recomputes gcn_norm each forward (cached=False default),
 * so the weight arrays are rebuilt here every call.  The symmetric
 * structure + symmetric weight function lets backward reuse the same
 * csc and weights.
 */
Var
propagateNormFused(const Data &data, const Var &x, const KernelCtx &ctx)
{
    const graph::CsrGraph &csc = data.csc();
    auto w = std::make_shared<std::vector<float>>();
    std::vector<float> self;
    runPrep(ctx, static_cast<double>(csc.numEdges()), [&] {
        *w = nn::gcnNorm(csc);
        self = nn::selfScale(csc);
    });
    Var agg = spmmVar(csc, w->data(), nn::borrow(csc), w, x, ctx);
    return addVar(agg, rowScaleVar(x, std::move(self), ctx), ctx);
}

/** Identity-prefix row selection (dst features from src features). */
Var
dstRows(const Var &x_src, size_t num_dst)
{
    std::vector<NodeId> rows(num_dst);
    for (size_t i = 0; i < num_dst; ++i)
        rows[i] = static_cast<NodeId>(i);
    return ag::gatherRows(x_src, std::move(rows));
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
GcnConv::forward(const Data &data, const Var &x, const KernelCtx &ctx)
{
    Var xw = gemmVar(x, weight_, ctx);
    return addBiasVar(propagateNormFused(data, xw, ctx), bias_, ctx);
}

Var
GcnConv::forwardBatch(const EdgeBatch &batch, const Var &x,
                      const KernelCtx &ctx)
{
    Var xw = gemmVar(x, weight_, ctx);
    std::vector<float> self;
    auto w = std::make_shared<std::vector<float>>();
    runPrep(ctx, static_cast<double>(batch.src.size()), [&] {
        *w = gcnNormEdges(batch.src, batch.dst, batch.numNodes(),
                          &self);
    });
    // Backward swaps src and dst; on the symmetric induced batch the
    // weight function is symmetric so the same array serves.
    Var agg = propagateVar(nn::borrow(batch.src), nn::borrow(batch.dst), w,
                           batch.numNodes(), batch.numNodes(), xw,
                           ctx);
    Var h = addVar(agg, rowScaleVar(xw, std::move(self), ctx), ctx);
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
Gcn2Conv::forward(const Data &data, const Var &x, const KernelCtx &ctx)
{
    GNNBENCH_CHECK(x0_ != nullptr,
                   "GCN2Conv: call setInitial() before forward");
    GNNBENCH_CHECK(x0_->value.sameShape(x->value),
                   "GCN2Conv: initial features shape mismatch");
    Var p = propagateNormFused(data, x, ctx);
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
        weights_.push_back(
            addParam(Tensor::glorot(in_dim, out_dim, rng)));
    bias_ = addParam(Tensor::zeros(1, out_dim));
}

Var
ChebConv::forward(const Data &data, const Var &x, const KernelCtx &ctx)
{
    // No fused kernel: every hop materializes E x F messages through
    // gather/scatter (the OOM path of the paper's Observation 3).
    std::vector<float> self;
    auto w = std::make_shared<std::vector<float>>();
    runPrep(ctx, static_cast<double>(data.numEdges()), [&] {
        *w = gcnNormEdges(data.edgeSrc(), data.edgeDst(),
                          data.numNodes(), &self);
    });
    auto hop = [&](const Var &v) {
        Var agg = propagateVar(nn::borrow(data.edgeSrc()),
                               nn::borrow(data.edgeDst()), w,
                               data.numNodes(), data.numNodes(), v,
                               ctx);
        return addVar(agg, rowScaleVar(v, self, ctx), ctx);
    };
    Var out = gemmVar(x, weights_[0], ctx);
    Var t_prev2 = x;
    Var t_prev1;
    if (k_ > 1) {
        t_prev1 = scaleVar(hop(x), -1.0f, ctx);
        out = addVar(out, gemmVar(t_prev1, weights_[1], ctx), ctx);
    }
    for (int i = 2; i < k_; ++i) {
        Var t = addVar(scaleVar(hop(t_prev1), -2.0f, ctx),
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

namespace {

/** 1/(edges into each of @p n destinations), 0 for none — the mean
 *  normalization of an edge-index batch. */
std::vector<float>
invInDegree(const std::vector<NodeId> &dst, NodeId n)
{
    std::vector<float> inv(n, 0.0f);
    for (NodeId d : dst)
        inv[d] += 1.0f;
    for (auto &v : inv)
        v = v > 0.0f ? 1.0f / v : 0.0f;
    return inv;
}

} // namespace

Var
SageConv::forward(const Data &data, const Var &x, const KernelCtx &ctx)
{
    const graph::CsrGraph &csc = data.csc();
    std::shared_ptr<std::vector<float>> w_fwd, w_bwd;
    runPrep(ctx, static_cast<double>(csc.numEdges()), [&] {
        // Per-edge mean weights: 1/in-degree of the row forward, of
        // the column endpoint for the backward over the same csc.
        const std::vector<float> inv = nn::invDegree(csc);
        w_fwd = std::make_shared<std::vector<float>>(csc.numEdges());
        w_bwd = std::make_shared<std::vector<float>>(csc.numEdges());
        for (NodeId d = 0; d < csc.numRows; ++d)
            for (EdgeId e = csc.indptr[d]; e < csc.indptr[d + 1]; ++e) {
                (*w_fwd)[e] = inv[d];
                (*w_bwd)[e] = inv[csc.indices[e]];
            }
    });
    Var agg =
        spmmVar(csc, w_fwd->data(), nn::borrow(csc), w_bwd, x, ctx);
    Var h = addVar(gemmVar(x, selfWeight_, ctx),
                    gemmVar(agg, neighWeight_, ctx), ctx);
    return addBiasVar(h, bias_, ctx);
}

Var
SageConv::forwardLayer(const LayerBatch &layer, const Var &x_src,
                       const KernelCtx &ctx)
{
    const NodeId num_dst = static_cast<NodeId>(layer.dstNodes.size());
    const NodeId num_src = static_cast<NodeId>(layer.srcNodes.size());
    // Mean aggregation = unweighted scatter-sum + per-dst scaling,
    // so the backward swap stays weight-free.
    Var agg = propagateVar(nn::borrow(layer.eSrc), nn::borrow(layer.eDst),
                           nullptr, num_dst, num_src, x_src, ctx);
    agg = rowScaleVar(agg, invInDegree(layer.eDst, num_dst), ctx);
    Var x_dst = dstRows(x_src, layer.dstNodes.size());
    Var h = addVar(gemmVar(x_dst, selfWeight_, ctx),
                    gemmVar(agg, neighWeight_, ctx), ctx);
    return addBiasVar(h, bias_, ctx);
}

Var
SageConv::forwardBatch(const EdgeBatch &batch, const Var &x,
                       const KernelCtx &ctx)
{
    const NodeId n = batch.numNodes();
    Var agg = propagateVar(nn::borrow(batch.src), nn::borrow(batch.dst),
                           nullptr, n, n, x, ctx);
    agg = rowScaleVar(agg, invInDegree(batch.dst, n), ctx);
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
    GNNBENCH_CHECK(!trainable,
                   "pygx GATConv is inference-only (Figure 5 path)");
}

Var
GatConv::forward(const Data &data, const Var &x, const KernelCtx &ctx)
{
    const auto &src = data.edgeSrc();
    const auto &dst = data.edgeDst();
    Var z = gemmVar(x, weight_, ctx);
    Var al = gemmVar(z, attnL_, ctx);
    Var ar = gemmVar(z, attnR_, ctx);
    // Unfused per-edge pipeline: gather endpoint scores, softmax via
    // three scatter passes, gather E x F messages, weight, scatter.
    Tensor alpha_dst = gather(al->value, dst, ctx);
    Tensor alpha_src = gather(ar->value, src, ctx);
    Tensor logits, scores;
    runPrep(ctx, static_cast<double>(alpha_dst.numel()) * 2, [&] {
        logits = core::ops::add(alpha_dst, alpha_src);
        scores = core::ops::leakyRelu(logits, 0.2f);
    });
    Tensor att =
        scatterSoftmax(scores, dst, data.numNodes(), ctx);
    Tensor msgs = gather(z->value, src, ctx);  // E x F materialized
    msgs = mulEdgeScalar(msgs, att, ctx);
    Tensor out = scatterSum(msgs, dst, data.numNodes(), ctx);
    return ag::constant(std::move(out));
}

Gatv2Conv::Gatv2Conv(int64_t in_dim, int64_t out_dim, core::Rng &rng,
                     bool trainable)
    : Conv("GATv2Conv", trainable),
      weightL_(addParam(Tensor::glorot(in_dim, out_dim, rng))),
      weightR_(addParam(Tensor::glorot(in_dim, out_dim, rng))),
      attn_(addParam(Tensor::glorot(out_dim, 1, rng)))
{
    GNNBENCH_CHECK(!trainable,
                   "pygx GATv2Conv is inference-only (Figure 5 path)");
}

Var
Gatv2Conv::forward(const Data &data, const Var &x, const KernelCtx &ctx)
{
    const auto &src = data.edgeSrc();
    const auto &dst = data.edgeDst();
    Var zl = gemmVar(x, weightL_, ctx);
    Var zr = gemmVar(x, weightR_, ctx);
    // GATv2 has no fused path at all: two E x F gathers plus the
    // E x F message tensor — the earliest layer to OOM in Figure 5.
    Tensor e_dst = gather(zl->value, dst, ctx);
    Tensor e_src = gather(zr->value, src, ctx);
    // The E x F sum and activation are themselves materializing
    // kernels; check and account them like the gathers.
    checkMaterialization(e_dst.bytes(), ctx);
    Tensor pre, scores;
    runPrep(ctx, static_cast<double>(e_dst.numel()) * 3, [&] {
        pre = core::ops::leakyRelu(core::ops::add(e_dst, e_src),
                                   0.2f);
        scores = core::ops::matmul(pre, attn_->value);
    });
    Tensor att =
        scatterSoftmax(scores, dst, data.numNodes(), ctx);
    Tensor msgs = mulEdgeScalar(e_src, att, ctx);
    Tensor out = scatterSum(msgs, dst, data.numNodes(), ctx);
    return ag::constant(std::move(out));
}

TagConv::TagConv(int64_t in_dim, int64_t out_dim, int k, core::Rng &rng,
                 bool trainable)
    : Conv("TAGConv", trainable), k_(k)
{
    GNNBENCH_CHECK(k >= 0, "TAGConv order must be >= 0");
    for (int i = 0; i <= k; ++i)
        weights_.push_back(
            addParam(Tensor::glorot(in_dim, out_dim, rng)));
    bias_ = addParam(Tensor::zeros(1, out_dim));
}

Var
TagConv::forward(const Data &data, const Var &x, const KernelCtx &ctx)
{
    Var out = gemmVar(x, weights_[0], ctx);
    Var xk = x;
    for (int i = 1; i <= k_; ++i) {
        xk = propagateNormFused(data, xk, ctx);
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
SgConv::forward(const Data &data, const Var &x, const KernelCtx &ctx)
{
    Var xk = x;
    for (int i = 0; i < k_; ++i)
        xk = propagateNormFused(data, xk, ctx);
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
        return std::make_unique<GatConv>(in_dim, out_dim, rng, false);
      case nn::ConvKind::Gatv2:
        return std::make_unique<Gatv2Conv>(in_dim, out_dim, rng,
                                           false);
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

} // namespace pygx
} // namespace gnnbench
