/**
 * @file
 * Fused message-passing kernels of the dglx framework.
 *
 * DGL realizes GNN message passing with generalized SpMM (g-SpMM) and
 * generalized SDDMM (g-SDDMM) kernels that fuse message computation
 * with aggregation, never materializing per-edge feature tensors.
 * dglx reproduces that design: gspmm() aggregates features straight
 * out of the source feature matrix, and gsddmm()/edgeSoftmax() only
 * ever materialize per-edge *scalars* (attention scores).
 *
 * Every kernel is routed through the shared nn::KernelCtx with DGL's
 * cost profile (Costs); dense GEMM, elementwise and prep ops come
 * from the shared op layer (nn/ops.h).
 */

#ifndef GNNBENCH_DGLX_KERNELS_H
#define GNNBENCH_DGLX_KERNELS_H

#include "gnnbench/graph/csr.h"
#include "gnnbench/nn/ops.h"

namespace gnnbench {
namespace dglx {

using nn::KernelCtx;

/** `dglx::Costs{}` selects DGL's cost profile (nn::kDglxCosts). */
struct Costs : nn::CostProfile
{
    Costs() : nn::CostProfile(nn::kDglxCosts) {}
};

/** Aggregation operators supported by gspmm. */
enum class Reducer { Sum, Mean, Max };

/**
 * Fused g-SpMM over an in-adjacency: for each destination row d,
 * out[d, :] = reduce over in-edges e of (w[e] * x[src(e), :]).
 * @param csc in-adjacency (rows = destinations, cols index into x)
 * @param w optional per-edge weights in csc traversal order
 */
core::Tensor gspmm(const graph::CsrGraph &csc, const core::Tensor &x,
                   Reducer reducer, const float *w,
                   const KernelCtx &ctx);

/**
 * Scatter-form g-SpMM over the same in-adjacency: for each row r and
 * in-edge e, out[col(e), :] += w[e] * x[r, :].  This is multiplication
 * by the *transpose* of the adjacency without materializing it — the
 * kernel DGL uses for the backward pass of update_all.
 */
core::Tensor gspmmScatter(const graph::CsrGraph &csc,
                          const core::Tensor &x, const float *w,
                          const KernelCtx &ctx);

/**
 * g-SDDMM "u_add_v" on per-node scalar columns: for each edge e,
 * out[e, h] = a_dst[dst(e), h] + b_src[src(e), h].  Used to compute
 * GAT attention logits without materializing features.
 */
core::Tensor gsddmmAdd(const graph::CsrGraph &csc,
                       const core::Tensor &a_dst,
                       const core::Tensor &b_src, const KernelCtx &ctx);

/**
 * g-SDDMM "u_dot_v": per-edge dot product of destination and source
 * feature rows, out[e, 0] = <a_dst[dst(e), :], b_src[src(e), :]>.
 */
core::Tensor gsddmmDot(const graph::CsrGraph &csc,
                       const core::Tensor &a_dst,
                       const core::Tensor &b_src, const KernelCtx &ctx);

/**
 * Fused GATv2 scoring: out[e, 0] = <a, LeakyReLU(z_dst[dst(e), :] +
 * z_src[src(e), :])> computed edge-by-edge *without* materializing the
 * E x F per-edge feature tensor — the fused-kernel capability the
 * paper credits for DGL avoiding PyG's out-of-memory failures.
 */
core::Tensor gsddmmAttnV2(const graph::CsrGraph &csc,
                          const core::Tensor &z_dst,
                          const core::Tensor &z_src,
                          const core::Tensor &attn_vec,
                          float negative_slope, const KernelCtx &ctx);

/** Segment softmax of per-edge scores over each destination's edges. */
core::Tensor edgeSoftmax(const graph::CsrGraph &csc,
                         const core::Tensor &scores,
                         const KernelCtx &ctx);

/**
 * Attention aggregation: out[d, :] = sum over in-edges e of
 * att[e, 0] * x[src(e), :] (fused; no per-edge feature tensor).
 */
core::Tensor gspmmEdgeScalar(const graph::CsrGraph &csc,
                             const core::Tensor &x,
                             const core::Tensor &att,
                             const KernelCtx &ctx);

/// @name Autograd wrappers
/// @{

/**
 * Differentiable fused aggregation y = A x with per-edge weights.
 * The backward pass aggregates the upstream gradient through the
 * *transposed* adjacency @p bwd with weights @p w_bwd aligned to its
 * traversal order (both held by shared_ptr so temporaries — e.g.
 * per-block transposes — survive until backward runs; use borrow()
 * for cached structures).
 */
core::ag::Var spmmVar(const graph::CsrGraph &csc, const float *w_csc,
                      std::shared_ptr<const graph::CsrGraph> bwd,
                      std::shared_ptr<const std::vector<float>> w_bwd,
                      const core::ag::Var &x, const KernelCtx &ctx);

/**
 * Differentiable fused aggregation whose backward runs the
 * scatter-form kernel over the *same* adjacency (no transpose is ever
 * built) — the right choice for per-batch bipartite blocks.  The
 * optional weights apply in both directions (per-edge).
 */
core::ag::Var spmmScatterBwdVar(
    std::shared_ptr<const graph::CsrGraph> csc,
    std::shared_ptr<const std::vector<float>> w, const core::ag::Var &x,
    const KernelCtx &ctx);

/**
 * Differentiable *mean* aggregation, recorded as an spmm→row-scale
 * chain in the kernel graph.  When the chain fuses
 * (GNNBENCH_DEVICE_FUSION on), the degree normalization folds into a
 * single "gspmm_mean" kernel — forward skips the materialized sum
 * tensor, backward folds the inverse destination degrees into the
 * transposed aggregation's edge weights — and the eliminated
 * elementwise passes are booked as fused_bytes_saved.  When the fuse
 * is declined it falls back to Sum + rowScaleVar.  Both executions
 * are bit-identical for any variant and thread count.  @p bwd is the
 * transposed adjacency the backward aggregates through (as spmmVar).
 */
core::ag::Var spmmMeanVar(const graph::CsrGraph &csc,
                          std::shared_ptr<const graph::CsrGraph> bwd,
                          const core::ag::Var &x, const KernelCtx &ctx);

/**
 * Mean-aggregation counterpart of spmmScatterBwdVar for bipartite
 * blocks: same fusion/fallback behavior as spmmMeanVar, backward runs
 * the scatter-form kernel over the same adjacency with inverse-degree
 * edge weights.
 */
core::ag::Var spmmMeanScatterBwdVar(
    std::shared_ptr<const graph::CsrGraph> csc, const core::ag::Var &x,
    const KernelCtx &ctx);

/// @}

/// @name Differentiable attention ops
/// Full training support for the attention layers: every backward
/// traverses the *same* csc structure (segment sums over rows,
/// scatter sums over columns), so no edge permutation or transpose
/// is ever materialized.
/// @{

/** Segment sum of per-edge rows onto destinations:
 *  out[d, :] = sum over edges e of row d of x[e, :]. */
core::Tensor segmentSumRows(const graph::CsrGraph &csc,
                            const core::Tensor &x,
                            const KernelCtx &ctx);

/** Scatter sum of per-edge rows onto sources:
 *  out[src(e), :] += x[e, :]. */
core::Tensor scatterSumCols(const graph::CsrGraph &csc,
                            const core::Tensor &x,
                            const KernelCtx &ctx);

/** Differentiable u_add_v: y[e, :] = a_dst[dst(e), :] +
 *  b_src[src(e), :]. */
core::ag::Var gsddmmAddVar(std::shared_ptr<const graph::CsrGraph> csc,
                           const core::ag::Var &a_dst,
                           const core::ag::Var &b_src,
                           const KernelCtx &ctx);

/** Differentiable segment softmax over each destination's edges. */
core::ag::Var edgeSoftmaxVar(
    std::shared_ptr<const graph::CsrGraph> csc,
    const core::ag::Var &scores, const KernelCtx &ctx);

/** Differentiable attention aggregation
 *  out[d, :] = sum over in-edges e of att[e, 0] * x[src(e), :]. */
core::ag::Var gspmmEdgeScalarVar(
    std::shared_ptr<const graph::CsrGraph> csc, const core::ag::Var &x,
    const core::ag::Var &att, const KernelCtx &ctx);

/** Differentiable fused GATv2 scoring (see gsddmmAttnV2). */
core::ag::Var gsddmmAttnV2Var(
    std::shared_ptr<const graph::CsrGraph> csc,
    const core::ag::Var &z_dst, const core::ag::Var &z_src,
    const core::ag::Var &attn_vec, float negative_slope,
    const KernelCtx &ctx);

/// @}

} // namespace dglx
} // namespace gnnbench

#endif // GNNBENCH_DGLX_KERNELS_H
