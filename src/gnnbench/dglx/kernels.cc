#include "gnnbench/dglx/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "gnnbench/kernels/fusion.h"
#include "gnnbench/kernels/kernels.h"
#include "gnnbench/nn/conv.h"

namespace gnnbench {
namespace dglx {

using core::Tensor;
using device::KernelDesc;

namespace {

/** Roofline signature of one fused g-SpMM call. */
KernelDesc
spmmDesc(const graph::CsrGraph &csc, int64_t feat_dim, bool weighted,
         const KernelCtx &ctx)
{
    const double e = static_cast<double>(csc.numEdges());
    const double n_out = static_cast<double>(csc.numRows);
    return nn::sparseDesc(
        "gspmm", (weighted ? 2.0 : 1.0) * e * feat_dim,
        4.0 * (e * feat_dim + n_out * feat_dim) + 8.0 * e +
            (weighted ? 4.0 * e : 0.0),
        ctx.costs.gpuSpmmEff, ctx);
}

KernelDesc
sddmmDesc(const graph::CsrGraph &csc, int64_t cols, const KernelCtx &ctx)
{
    const double e = static_cast<double>(csc.numEdges());
    return nn::sparseDesc("gsddmm", 2.0 * e * cols,
                          4.0 * e * (2.0 * cols + 1.0) + 8.0 * e,
                          ctx.costs.gpuSddmmEff, ctx);
}

kernels::ReduceOp
toReduceOp(Reducer reducer)
{
    switch (reducer) {
    case Reducer::Sum:
        return kernels::ReduceOp::Sum;
    case Reducer::Mean:
        return kernels::ReduceOp::Mean;
    case Reducer::Max:
        return kernels::ReduceOp::Max;
    }
    return kernels::ReduceOp::Sum;
}

} // namespace

Tensor
gspmm(const graph::CsrGraph &csc, const Tensor &x, Reducer reducer,
      const float *w, const KernelCtx &ctx)
{
    GNNBENCH_CHECK(x.rows() == csc.numCols,
                   "gspmm: feature rows != source nodes");
    const int64_t f = x.cols();
    Tensor out;
    runKernel(ctx, spmmDesc(csc, f, w != nullptr, ctx), [&] {
        out = kernels::spmm(csc, x, toReduceOp(reducer), w);
    });
    return out;
}

Tensor
gspmmScatter(const graph::CsrGraph &csc, const Tensor &x,
             const float *w, const KernelCtx &ctx)
{
    GNNBENCH_CHECK(x.rows() == csc.numRows,
                   "gspmmScatter: feature rows != adjacency rows");
    const int64_t f = x.cols();
    Tensor out;
    KernelDesc desc = spmmDesc(csc, f, w != nullptr, ctx);
    desc.name = "gspmm_scatter";
    runKernel(ctx, desc,
              [&] { out = kernels::spmmScatter(csc, x, w); });
    return out;
}

Tensor
gsddmmAdd(const graph::CsrGraph &csc, const Tensor &a_dst,
          const Tensor &b_src, const KernelCtx &ctx)
{
    GNNBENCH_CHECK(a_dst.rows() == csc.numRows &&
                       b_src.rows() == csc.numCols,
                   "gsddmmAdd: operand rows mismatch");
    GNNBENCH_CHECK(a_dst.cols() == b_src.cols(),
                   "gsddmmAdd: operand cols mismatch");
    const int64_t h = a_dst.cols();
    Tensor out;
    runKernel(ctx, sddmmDesc(csc, h, ctx),
              [&] { out = kernels::sddmmAdd(csc, a_dst, b_src); });
    return out;
}

Tensor
gsddmmDot(const graph::CsrGraph &csc, const Tensor &a_dst,
          const Tensor &b_src, const KernelCtx &ctx)
{
    GNNBENCH_CHECK(a_dst.rows() == csc.numRows &&
                       b_src.rows() == csc.numCols,
                   "gsddmmDot: operand rows mismatch");
    GNNBENCH_CHECK(a_dst.cols() == b_src.cols(),
                   "gsddmmDot: operand cols mismatch");
    const int64_t f = a_dst.cols();
    Tensor out;
    runKernel(ctx, sddmmDesc(csc, f, ctx),
              [&] { out = kernels::sddmmDot(csc, a_dst, b_src); });
    return out;
}

Tensor
gsddmmAttnV2(const graph::CsrGraph &csc, const Tensor &z_dst,
             const Tensor &z_src, const Tensor &attn_vec,
             float negative_slope, const KernelCtx &ctx)
{
    GNNBENCH_CHECK(z_dst.rows() == csc.numRows &&
                       z_src.rows() == csc.numCols,
                   "gsddmmAttnV2: operand rows mismatch");
    GNNBENCH_CHECK(attn_vec.rows() == 1 &&
                       attn_vec.cols() == z_dst.cols() &&
                       z_src.cols() == z_dst.cols(),
                   "gsddmmAttnV2: attention vector shape");
    const int64_t f = z_dst.cols();
    Tensor out;
    KernelDesc d = sddmmDesc(csc, f, ctx);
    d.name = "gsddmm_attn_v2";
    d.flops *= 2.0;  // add + leakyrelu + dot
    runKernel(ctx, d, [&] {
        out = Tensor::empty(csc.numEdges(), 1);
        const float *a = attn_vec.data();
        for (NodeId dst = 0; dst < csc.numRows; ++dst) {
            const float *zd = z_dst.row(dst);
            for (EdgeId e = csc.indptr[dst]; e < csc.indptr[dst + 1];
                 ++e) {
                const float *zs = z_src.row(csc.indices[e]);
                float acc = 0.0f;
                for (int64_t j = 0; j < f; ++j) {
                    float v = zd[j] + zs[j];
                    if (v < 0.0f)
                        v *= negative_slope;
                    acc += a[j] * v;
                }
                out(e, 0) = acc;
            }
        }
    });
    return out;
}

Tensor
edgeSoftmax(const graph::CsrGraph &csc, const Tensor &scores,
            const KernelCtx &ctx)
{
    GNNBENCH_CHECK(scores.rows() == csc.numEdges(),
                   "edgeSoftmax: one score row per edge required");
    const int64_t h = scores.cols();
    Tensor out;
    runKernel(
        ctx,
        nn::elemDesc("edge_softmax",
                     static_cast<double>(scores.numel()) * 3.0, ctx),
        [&] {
            out = Tensor::empty(scores.rows(), scores.cols());
            for (NodeId d = 0; d < csc.numRows; ++d) {
                const EdgeId begin = csc.indptr[d];
                const EdgeId end = csc.indptr[d + 1];
                for (int64_t j = 0; j < h; ++j) {
                    float mx = -std::numeric_limits<float>::infinity();
                    for (EdgeId e = begin; e < end; ++e)
                        mx = std::max(mx, scores(e, j));
                    double z = 0.0;
                    for (EdgeId e = begin; e < end; ++e)
                        z += std::exp(
                            static_cast<double>(scores(e, j) - mx));
                    const float invz =
                        z > 0.0 ? static_cast<float>(1.0 / z) : 0.0f;
                    for (EdgeId e = begin; e < end; ++e)
                        out(e, j) =
                            std::exp(scores(e, j) - mx) * invz;
                }
            }
        });
    return out;
}

Tensor
gspmmEdgeScalar(const graph::CsrGraph &csc, const Tensor &x,
                const Tensor &att, const KernelCtx &ctx)
{
    GNNBENCH_CHECK(att.rows() == csc.numEdges() && att.cols() == 1,
                   "gspmmEdgeScalar: attention must be E x 1");
    GNNBENCH_CHECK(x.rows() == csc.numCols,
                   "gspmmEdgeScalar: feature rows != source nodes");
    const int64_t f = x.cols();
    Tensor out;
    runKernel(ctx, spmmDesc(csc, f, true, ctx), [&] {
        // att is E x 1, so its storage is exactly the per-edge
        // weight array in csc traversal order.
        out = kernels::spmm(csc, x, kernels::ReduceOp::Sum,
                            att.data());
    });
    return out;
}

core::ag::Var
spmmVar(const graph::CsrGraph &csc, const float *w_csc,
        std::shared_ptr<const graph::CsrGraph> bwd,
        std::shared_ptr<const std::vector<float>> w_bwd,
        const core::ag::Var &x, const KernelCtx &ctx)
{
    Tensor y = gspmm(csc, x->value, Reducer::Sum, w_csc, ctx);
    return core::ag::makeOp(
        "dglx.spmm", std::move(y), {x},
        [bwd = std::move(bwd), w_bwd = std::move(w_bwd), x,
         ctx](core::ag::Node &n) {
            if (x->requiresGrad) {
                const float *w = w_bwd ? w_bwd->data() : nullptr;
                x->accumulateGrad(
                    gspmm(*bwd, n.grad, Reducer::Sum, w, ctx));
            }
        });
}

core::ag::Var
spmmScatterBwdVar(std::shared_ptr<const graph::CsrGraph> csc,
                  std::shared_ptr<const std::vector<float>> w,
                  const core::ag::Var &x, const KernelCtx &ctx)
{
    const float *w_fwd = w ? w->data() : nullptr;
    Tensor y = gspmm(*csc, x->value, Reducer::Sum, w_fwd, ctx);
    return core::ag::makeOp(
        "dglx.spmm", std::move(y), {x},
        [csc = std::move(csc), w = std::move(w), x,
         ctx](core::ag::Node &n) {
            if (x->requiresGrad) {
                const float *wb = w ? w->data() : nullptr;
                x->accumulateGrad(
                    gspmmScatter(*csc, n.grad, wb, ctx));
            }
        });
}

namespace {

/**
 * Record the spmm→row-scale chain in a kernel graph and ask it
 * whether the normalization may fold into the aggregation kernel.
 * The eliminated traffic is the two materialized elementwise passes
 * over the out_rows x f sum tensor (8 bytes/element each, forward
 * and backward).
 */
bool
fuseMeanChain(const graph::CsrGraph &csc, int64_t f)
{
    kernels::KernelGraph g(/*framework_supports_fusion=*/true);
    const uint64_t numel = static_cast<uint64_t>(csc.numRows) *
                           static_cast<uint64_t>(f);
    const int agg =
        g.addNode(kernels::FusedOp::Spmm, "gspmm", 4 * numel);
    const int scale =
        g.addNode(kernels::FusedOp::RowScale, "row_scale", 4 * numel);
    g.addEdge(agg, scale);
    return g.fuse(agg, scale, 16 * numel);
}

/** Unfused mean: scale a Sum aggregation by 1/in-degree of @p csc. */
core::ag::Var
scaleByInvDegree(const core::ag::Var &agg, const graph::CsrGraph &csc,
                 const KernelCtx &ctx)
{
    std::vector<float> inv;
    runPrep(ctx, static_cast<double>(csc.numRows),
            [&] { inv = nn::invDegree(csc); });
    return rowScaleVar(agg, std::move(inv), ctx);
}

/** Fused mean: the normalization folded into one aggregation kernel. */
Tensor
gspmmMean(const graph::CsrGraph &csc, const Tensor &x,
          const KernelCtx &ctx)
{
    KernelDesc desc = spmmDesc(csc, x.cols(), false, ctx);
    desc.name = "gspmm_mean";
    Tensor y;
    runKernel(ctx, desc, [&] {
        y = kernels::spmm(csc, x, kernels::ReduceOp::Mean);
    });
    return y;
}

} // namespace

core::ag::Var
spmmMeanVar(const graph::CsrGraph &csc,
            std::shared_ptr<const graph::CsrGraph> bwd,
            const core::ag::Var &x, const KernelCtx &ctx)
{
    if (!fuseMeanChain(csc, x->value.cols()))
        return scaleByInvDegree(
            spmmVar(csc, nullptr, std::move(bwd), nullptr, x, ctx), csc,
            ctx);
    Tensor y = gspmmMean(csc, x->value, ctx);
    // Backward folds the inverse destination degree into the
    // transposed aggregation's edge weights: bwd's indices are
    // destinations, so w[e] = inv[bwd.indices[e]].
    auto w_bwd = std::make_shared<std::vector<float>>();
    {
        const graph::CsrGraph &b = *bwd;
        runPrep(ctx,
                static_cast<double>(csc.numRows) +
                    static_cast<double>(b.numEdges()),
                [&] {
                    const std::vector<float> inv = nn::invDegree(csc);
                    w_bwd->resize(static_cast<size_t>(b.numEdges()));
                    for (EdgeId e = 0; e < b.numEdges(); ++e)
                        (*w_bwd)[static_cast<size_t>(e)] = inv[
                            static_cast<size_t>(b.indices[e])];
                });
    }
    return core::ag::makeOp(
        "dglx.spmm_mean", std::move(y), {x},
        [bwd = std::move(bwd), w_bwd = std::move(w_bwd), x,
         ctx](core::ag::Node &n) {
            if (x->requiresGrad)
                x->accumulateGrad(gspmm(*bwd, n.grad, Reducer::Sum,
                                        w_bwd->data(), ctx));
        });
}

core::ag::Var
spmmMeanScatterBwdVar(std::shared_ptr<const graph::CsrGraph> csc,
                      const core::ag::Var &x, const KernelCtx &ctx)
{
    const graph::CsrGraph &g = *csc;
    if (!fuseMeanChain(g, x->value.cols()))
        return scaleByInvDegree(spmmScatterBwdVar(csc, nullptr, x, ctx),
                                g, ctx);
    Tensor y = gspmmMean(g, x->value, ctx);
    // Scatter-form backward over the same adjacency: each edge's
    // weight is the inverse degree of its destination row.
    auto w_bwd = std::make_shared<std::vector<float>>();
    runPrep(ctx,
            static_cast<double>(g.numRows) +
                static_cast<double>(g.numEdges()),
            [&] {
                const std::vector<float> inv = nn::invDegree(g);
                w_bwd->resize(static_cast<size_t>(g.numEdges()));
                for (NodeId r = 0; r < g.numRows; ++r)
                    for (EdgeId e = g.indptr[r]; e < g.indptr[r + 1];
                         ++e)
                        (*w_bwd)[static_cast<size_t>(e)] =
                            inv[static_cast<size_t>(r)];
            });
    return core::ag::makeOp(
        "dglx.spmm_mean", std::move(y), {x},
        [csc = std::move(csc), w_bwd = std::move(w_bwd), x,
         ctx](core::ag::Node &n) {
            if (x->requiresGrad)
                x->accumulateGrad(gspmmScatter(*csc, n.grad,
                                               w_bwd->data(), ctx));
        });
}

core::Tensor
segmentSumRows(const graph::CsrGraph &csc, const Tensor &x,
               const KernelCtx &ctx)
{
    GNNBENCH_CHECK(x.rows() == csc.numEdges(),
                   "segmentSumRows: one row per edge required");
    Tensor out;
    runKernel(ctx,
              nn::elemDesc("segment_sum",
                           static_cast<double>(x.numel()), ctx),
              [&] { out = kernels::segmentSumRows(csc, x); });
    return out;
}

core::Tensor
scatterSumCols(const graph::CsrGraph &csc, const Tensor &x,
               const KernelCtx &ctx)
{
    GNNBENCH_CHECK(x.rows() == csc.numEdges(),
                   "scatterSumCols: one row per edge required");
    Tensor out;
    runKernel(ctx,
              nn::elemDesc("scatter_sum_cols",
                           static_cast<double>(x.numel()), ctx),
              [&] { out = kernels::scatterSumCols(csc, x); });
    return out;
}

core::ag::Var
gsddmmAddVar(std::shared_ptr<const graph::CsrGraph> csc,
             const core::ag::Var &a_dst, const core::ag::Var &b_src,
             const KernelCtx &ctx)
{
    Tensor y = gsddmmAdd(*csc, a_dst->value, b_src->value, ctx);
    return core::ag::makeOp(
        "dglx.gsddmm_add", std::move(y), {a_dst, b_src},
        [csc = std::move(csc), a_dst, b_src,
         ctx](core::ag::Node &n) {
            if (a_dst->requiresGrad)
                a_dst->accumulateGrad(
                    segmentSumRows(*csc, n.grad, ctx));
            if (b_src->requiresGrad)
                b_src->accumulateGrad(
                    scatterSumCols(*csc, n.grad, ctx));
        });
}

core::ag::Var
edgeSoftmaxVar(std::shared_ptr<const graph::CsrGraph> csc,
               const core::ag::Var &scores, const KernelCtx &ctx)
{
    Tensor y = edgeSoftmax(*csc, scores->value, ctx);
    return core::ag::makeOp(
        "dglx.edge_softmax", std::move(y), {scores},
        [csc = std::move(csc), scores, ctx](core::ag::Node &n) {
            if (!scores->requiresGrad)
                return;
            // dx[e] = y[e] * (g[e] - sum over the segment of y g).
            const Tensor &y_out = n.value;
            Tensor gx;
            runKernel(
                ctx,
                nn::elemDesc("edge_softmax_bwd",
                             3.0 * static_cast<double>(y_out.numel()),
                             ctx),
                [&] {
                    gx = Tensor::empty(y_out.rows(), y_out.cols());
                    const int64_t h = y_out.cols();
                    for (NodeId d = 0; d < csc->numRows; ++d) {
                        for (int64_t j = 0; j < h; ++j) {
                            double dot = 0.0;
                            for (EdgeId e = csc->indptr[d];
                                 e < csc->indptr[d + 1]; ++e)
                                dot += y_out(e, j) * n.grad(e, j);
                            for (EdgeId e = csc->indptr[d];
                                 e < csc->indptr[d + 1]; ++e)
                                gx(e, j) = y_out(e, j) *
                                           (n.grad(e, j) -
                                            static_cast<float>(dot));
                        }
                    }
                });
            scores->accumulateGrad(gx);
        });
}

core::ag::Var
gspmmEdgeScalarVar(std::shared_ptr<const graph::CsrGraph> csc,
                   const core::ag::Var &x, const core::ag::Var &att,
                   const KernelCtx &ctx)
{
    Tensor y = gspmmEdgeScalar(*csc, x->value, att->value, ctx);
    return core::ag::makeOp(
        "dglx.gspmm_edge", std::move(y), {x, att},
        [csc = std::move(csc), x, att, ctx](core::ag::Node &n) {
            if (att->requiresGrad) {
                // d att[e] = <grad[dst(e)], x[src(e)]>.
                att->accumulateGrad(
                    gsddmmDot(*csc, n.grad, x->value, ctx));
            }
            if (x->requiresGrad) {
                // d x[s] = sum over src(e)=s of att[e] * grad[dst(e)].
                std::vector<float> w(
                    static_cast<size_t>(csc->numEdges()));
                for (EdgeId e = 0; e < csc->numEdges(); ++e)
                    w[e] = att->value(e, 0);
                x->accumulateGrad(
                    gspmmScatter(*csc, n.grad, w.data(), ctx));
            }
        });
}

core::ag::Var
gsddmmAttnV2Var(std::shared_ptr<const graph::CsrGraph> csc,
                const core::ag::Var &z_dst, const core::ag::Var &z_src,
                const core::ag::Var &attn_vec, float negative_slope,
                const KernelCtx &ctx)
{
    Tensor y = gsddmmAttnV2(*csc, z_dst->value, z_src->value,
                            attn_vec->value, negative_slope, ctx);
    return core::ag::makeOp(
        "dglx.gsddmm_attn_v2", std::move(y),
        {z_dst, z_src, attn_vec},
        [csc = std::move(csc), z_dst, z_src, attn_vec, negative_slope,
         ctx](core::ag::Node &n) {
            // Fused backward: per-edge pre-activations are recomputed
            // on the fly (no E x F materialization, like forward).
            const int64_t f = z_dst->value.cols();
            Tensor g_dst(z_dst->value.rows(), f);
            Tensor g_src(z_src->value.rows(), f);
            Tensor g_attn(1, f);
            KernelDesc d = sddmmDesc(*csc, f, ctx);
            d.name = "gsddmm_attn_v2_bwd";
            d.flops *= 3.0;
            runKernel(ctx, d, [&] {
                const float *a = attn_vec->value.data();
                for (NodeId dst = 0; dst < csc->numRows; ++dst) {
                    const float *zd = z_dst->value.row(dst);
                    float *gd = g_dst.row(dst);
                    for (EdgeId e = csc->indptr[dst];
                         e < csc->indptr[dst + 1]; ++e) {
                        const NodeId s = csc->indices[e];
                        const float *zs = z_src->value.row(s);
                        float *gs = g_src.row(s);
                        const float ge = n.grad(e, 0);
                        for (int64_t j = 0; j < f; ++j) {
                            const float pre = zd[j] + zs[j];
                            const float act =
                                pre < 0.0f ? pre * negative_slope
                                           : pre;
                            const float slope =
                                pre < 0.0f ? negative_slope : 1.0f;
                            const float d_pre = ge * a[j] * slope;
                            gd[j] += d_pre;
                            gs[j] += d_pre;
                            g_attn(0, j) += ge * act;
                        }
                    }
                }
            });
            if (z_dst->requiresGrad)
                z_dst->accumulateGrad(g_dst);
            if (z_src->requiresGrad)
                z_src->accumulateGrad(g_src);
            if (attn_vec->requiresGrad)
                attn_vec->accumulateGrad(g_attn);
        });
}

} // namespace dglx
} // namespace gnnbench
