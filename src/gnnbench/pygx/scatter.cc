#include "gnnbench/pygx/scatter.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "gnnbench/core/parallel.h"
#include "gnnbench/core/timer.h"
#include "gnnbench/kernels/fusion.h"
#include "gnnbench/kernels/kernels.h"

namespace gnnbench {
namespace pygx {

using core::Tensor;
using core::parallel::parallelFor;

namespace {

/** Columns per chunk for column-blocked scatter accumulation. */
constexpr int64_t kColGrain = 32;

/** Rows per chunk for rowwise kernels, scaled by the row width. */
int64_t
rowGrain(int64_t cols)
{
    return std::max<int64_t>(1, (1 << 13) / std::max<int64_t>(cols, 1));
}

} // namespace

void
checkMaterialization(uint64_t bytes, const KernelCtx &ctx)
{
    const auto scaled =
        static_cast<uint64_t>(static_cast<double>(bytes) * ctx.memScale);
    uint64_t budget = 0;
    if (ctx.onGpu() && ctx.session) {
        budget = ctx.session->gpu().spec().memoryBytes;
    } else if (ctx.session) {
        budget = ctx.session->cpuSpec().memoryBytes;
    } else {
        return;  // no session, no budget to enforce
    }
    // Leave headroom for the operands already resident (graph,
    // features, activations): PyTorch OOMs well before 100%.
    const auto usable = static_cast<uint64_t>(0.85 * budget);
    if (scaled > usable)
        throw OomError(scaled, usable);
}

Tensor
gather(const Tensor &x, const std::vector<NodeId> &idx,
       const KernelCtx &ctx)
{
    const int64_t f = x.cols();
    const auto e = static_cast<int64_t>(idx.size());
    checkMaterialization(static_cast<uint64_t>(e) * f * 4, ctx);
    Tensor out;
    runKernel(ctx,
              nn::sparseDesc("gather", 0.0, 8.0 * e * f + 8.0 * e,
                             ctx.costs.gpuGatherEff, ctx),
              [&] { out = kernels::gatherRows(x, idx); });
    return out;
}

Tensor
scatterSum(const Tensor &src, const std::vector<NodeId> &idx,
           NodeId out_rows, const KernelCtx &ctx)
{
    GNNBENCH_CHECK(static_cast<int64_t>(idx.size()) == src.rows(),
                   "scatterSum: one index per row required");
    const int64_t f = src.cols();
    const auto e = static_cast<int64_t>(idx.size());
    Tensor out;
    runKernel(ctx,
              nn::sparseDesc("scatter_sum", static_cast<double>(e) * f,
                             12.0 * e * f + 8.0 * e,
                             ctx.costs.gpuScatterEff, ctx),
              [&] {
                  // Indexed accumulation (PyG's CPU scatter path);
                  // the unified kernel keeps the ascending-edge
                  // per-element order, so results are bit-identical
                  // at any thread count.
                  out = kernels::scatterSum(src, idx, out_rows);
              });
    return out;
}

Tensor
scatterMean(const Tensor &src, const std::vector<NodeId> &idx,
            NodeId out_rows, const KernelCtx &ctx)
{
    Tensor sum = scatterSum(src, idx, out_rows, ctx);
    Tensor out;
    runKernel(ctx,
              nn::sparseDesc("scatter_mean_div",
                             static_cast<double>(sum.numel()),
                             8.0 * sum.numel(), ctx.costs.gpuElemEff,
                             ctx),
              [&] {
                  out = std::move(sum);
                  std::vector<int64_t> counts(out_rows, 0);
                  for (NodeId i : idx)
                      ++counts[i];
                  parallelFor(
                      0, out.rows(), rowGrain(out.cols()),
                      [&](int64_t r0, int64_t r1) {
                          for (int64_t r = r0; r < r1; ++r) {
                              if (counts[r] <= 1)
                                  continue;
                              const float inv =
                                  1.0f / static_cast<float>(counts[r]);
                              float *orow = out.row(r);
                              for (int64_t j = 0; j < out.cols(); ++j)
                                  orow[j] *= inv;
                          }
                      });
              });
    return out;
}

Tensor
scatterMax(const Tensor &src, const std::vector<NodeId> &idx,
           NodeId out_rows, const KernelCtx &ctx)
{
    GNNBENCH_CHECK(static_cast<int64_t>(idx.size()) == src.rows(),
                   "scatterMax: one index per row required");
    const int64_t f = src.cols();
    const auto e = static_cast<int64_t>(idx.size());
    Tensor out;
    runKernel(
        ctx,
        nn::sparseDesc("scatter_max", static_cast<double>(e) * f,
                       12.0 * e * f + 8.0 * e, ctx.costs.gpuScatterEff,
                       ctx),
        [&] { out = kernels::scatterMax(src, idx, out_rows); });
    return out;
}

Tensor
scatterSoftmax(const Tensor &scores, const std::vector<NodeId> &idx,
               NodeId num_segments, const KernelCtx &ctx)
{
    GNNBENCH_CHECK(static_cast<int64_t>(idx.size()) == scores.rows(),
                   "scatterSoftmax: one index per row required");
    const int64_t h = scores.cols();
    const auto e = static_cast<int64_t>(scores.rows());
    Tensor out;
    runKernel(
        ctx,
        nn::sparseDesc("scatter_softmax", 6.0 * e * h, 24.0 * e * h,
                       ctx.costs.gpuScatterEff, ctx),
        [&] {
            out = Tensor::empty(e, h);
            // Three scatter passes (max, exp-sum, normalize) — the
            // unfused composition PyG's softmax() performs.  The two
            // segment-accumulating passes are column-blocked (chunks
            // own disjoint head columns of every segment), the final
            // normalize is row-parallel (disjoint edge rows).
            Tensor mx(num_segments, h);
            mx.fill(-std::numeric_limits<float>::infinity());
            Tensor z(num_segments, h);
            parallelFor(0, h, kColGrain, [&](int64_t j0, int64_t j1) {
                for (int64_t i = 0; i < e; ++i) {
                    float *m = mx.row(idx[i]);
                    const float *s = scores.row(i);
                    for (int64_t j = j0; j < j1; ++j)
                        m[j] = std::max(m[j], s[j]);
                }
                for (int64_t i = 0; i < e; ++i) {
                    float *zr = z.row(idx[i]);
                    const float *m = mx.row(idx[i]);
                    const float *s = scores.row(i);
                    float *o = out.row(i);
                    for (int64_t j = j0; j < j1; ++j) {
                        o[j] = std::exp(s[j] - m[j]);
                        zr[j] += o[j];
                    }
                }
            });
            parallelFor(0, e, rowGrain(h), [&](int64_t r0, int64_t r1) {
                for (int64_t i = r0; i < r1; ++i) {
                    const float *zr = z.row(idx[i]);
                    float *o = out.row(i);
                    for (int64_t j = 0; j < h; ++j)
                        o[j] = zr[j] > 0.0f ? o[j] / zr[j] : 0.0f;
                }
            });
        });
    return out;
}

Tensor
mulEdgeScalar(const Tensor &src, const Tensor &w, const KernelCtx &ctx)
{
    GNNBENCH_CHECK(w.rows() == src.rows() && w.cols() == 1,
                   "mulEdgeScalar: weights must be E x 1");
    Tensor out;
    runKernel(ctx,
              nn::sparseDesc("mul_edge_scalar",
                             static_cast<double>(src.numel()),
                             12.0 * src.numel(), ctx.costs.gpuElemEff,
                             ctx),
              [&] {
                  out = src.clone();
                  parallelFor(0, out.rows(), rowGrain(out.cols()),
                              [&](int64_t r0, int64_t r1) {
                                  for (int64_t i = r0; i < r1; ++i) {
                                      const float we = w(i, 0);
                                      float *orow = out.row(i);
                                      for (int64_t j = 0;
                                           j < out.cols(); ++j)
                                          orow[j] *= we;
                                  }
                              });
              });
    return out;
}

Tensor
spmm(const graph::CsrGraph &csc, const Tensor &x, const float *w,
     const KernelCtx &ctx)
{
    GNNBENCH_CHECK(x.rows() == csc.numCols,
                   "pygx spmm: feature rows != source nodes");
    const int64_t f = x.cols();
    const double e = static_cast<double>(csc.numEdges());
    Tensor out;
    auto run = [&] {
        out = kernels::spmm(csc, x, kernels::ReduceOp::Sum, w);
    };
    if (ctx.session && !ctx.onGpu() &&
        ctx.costs.cpuSparsePenalty > 0.0) {
        // Charge the modeled torch_sparse CPU kernel gap on top of the
        // measured time.  Only this fused path pays it: here torch's
        // generic loop and DGL's tuned kernel do the same algorithmic
        // work, while the gather/scatter path is already structurally
        // slower (materialization) and must not be double-charged.
        core::Timer t;
        run();
        ctx.session->chargeCpuOverhead(t.elapsed() *
                                       ctx.costs.cpuSparsePenalty);
        return out;
    }
    runKernel(ctx,
              nn::sparseDesc("torch_sparse_spmm", 2.0 * e * f,
                             4.0 * (e * f + csc.numRows * f) + 12.0 * e,
                             ctx.costs.gpuSpmmEff, ctx),
              run);
    return out;
}

core::ag::Var
propagateVar(std::shared_ptr<const std::vector<NodeId>> src,
             std::shared_ptr<const std::vector<NodeId>> dst,
             std::shared_ptr<const std::vector<float>> w,
             NodeId out_rows, NodeId src_rows, const core::ag::Var &x,
             const KernelCtx &ctx)
{
    // Record the per-op chain in a kernel graph.  PyG's eager
    // paradigm cannot execute fused kernels, so the eligible
    // gather→scatter (or mul-edge→scatter) pair is *rejected* — the
    // materialized per-edge message tensor below is exactly the
    // paper's Observation 3 — and the decline is counted under
    // device.fusion.rejected_pairs.
    {
        kernels::KernelGraph kg(/*framework_supports_fusion=*/false);
        const uint64_t msg_bytes = static_cast<uint64_t>(src->size()) *
                                   static_cast<uint64_t>(x->value.cols()) *
                                   sizeof(float);
        int producer = kg.addNode(kernels::FusedOp::Gather, "gather",
                                  msg_bytes);
        if (w) {
            const int mul = kg.addNode(kernels::FusedOp::MulEdge,
                                       "mul_edge_scalar", msg_bytes);
            kg.addEdge(producer, mul);
            producer = mul;
        }
        const int scat =
            kg.addNode(kernels::FusedOp::Scatter, "scatter_sum", 0);
        kg.addEdge(producer, scat);
        kg.fuse(producer, scat, 2 * msg_bytes);
    }
    // Forward: gather by src, optionally weight, scatter-add by dst.
    Tensor msgs = gather(x->value, *src, ctx);
    if (w) {
        GNNBENCH_CHECK(w->size() == src->size(),
                       "propagateVar: weight per edge required");
        Tensor wt(static_cast<int64_t>(w->size()), 1);
        std::copy(w->begin(), w->end(), wt.data());
        msgs = mulEdgeScalar(msgs, wt, ctx);
    }
    Tensor y = scatterSum(msgs, *dst, out_rows, ctx);
    return core::ag::makeOp(
        "pygx.propagate", std::move(y), {x},
        [src = std::move(src), dst = std::move(dst), w = std::move(w),
         src_rows, x, ctx](core::ag::Node &n) {
            if (!x->requiresGrad)
                return;
            Tensor g = gather(n.grad, *dst, ctx);
            if (w) {
                Tensor wt(static_cast<int64_t>(w->size()), 1);
                std::copy(w->begin(), w->end(), wt.data());
                g = mulEdgeScalar(g, wt, ctx);
            }
            x->accumulateGrad(scatterSum(g, *src, src_rows, ctx));
        });
}

core::ag::Var
spmmVar(const graph::CsrGraph &csc, const float *w_csc,
        std::shared_ptr<const graph::CsrGraph> bwd,
        std::shared_ptr<const std::vector<float>> w_bwd,
        const core::ag::Var &x, const KernelCtx &ctx)
{
    Tensor y = spmm(csc, x->value, w_csc, ctx);
    return core::ag::makeOp(
        "pygx.spmm", std::move(y), {x},
        [bwd = std::move(bwd), w_bwd = std::move(w_bwd), x,
         ctx](core::ag::Node &n) {
            if (x->requiresGrad) {
                const float *w = w_bwd ? w_bwd->data() : nullptr;
                x->accumulateGrad(spmm(*bwd, n.grad, w, ctx));
            }
        });
}

} // namespace pygx
} // namespace gnnbench
