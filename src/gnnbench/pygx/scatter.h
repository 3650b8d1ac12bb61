/**
 * @file
 * PyTorch Scatter / PyTorch Sparse-style kernels of the pygx
 * framework.
 *
 * Where dglx fuses message computation with aggregation, pygx follows
 * PyG's gather-and-scatter paradigm: gather() materializes an E x F
 * per-edge message tensor which scatter*() then reduces.  The extra
 * materialization costs memory traffic on CPU, atomics-limited
 * bandwidth on the modeled GPU, and — for the layers PyG has no fused
 * kernel for — O(E x F) memory that overflows the modeled GPU on
 * large graphs (paper Observation 3).  spmm() is the torch_sparse
 * fused path available to GCN-like layers.
 *
 * Every kernel is routed through the shared nn::KernelCtx with PyG's
 * cost profile (Costs); dense GEMM, elementwise and prep ops come
 * from the shared op layer (nn/ops.h).
 */

#ifndef GNNBENCH_PYGX_SCATTER_H
#define GNNBENCH_PYGX_SCATTER_H

#include "gnnbench/nn/ops.h"
#include "gnnbench/pygx/data.h"

namespace gnnbench {
namespace pygx {

using nn::KernelCtx;

/** `pygx::Costs{}` selects PyG's cost profile (nn::kPygxCosts). */
struct Costs : nn::CostProfile
{
    Costs() : nn::CostProfile(nn::kPygxCosts) {}
};

/**
 * Raise OomError if materializing @p bytes (scaled by ctx.memScale to
 * full dataset size) would exceed the target device's memory.
 */
void checkMaterialization(uint64_t bytes, const KernelCtx &ctx);

/** Materialize per-edge messages: out[e, :] = x[idx[e], :]. */
core::Tensor gather(const core::Tensor &x,
                    const std::vector<NodeId> &idx,
                    const KernelCtx &ctx);

/** out[idx[e], :] += src[e, :] over @p out_rows rows. */
core::Tensor scatterSum(const core::Tensor &src,
                        const std::vector<NodeId> &idx, NodeId out_rows,
                        const KernelCtx &ctx);

/** Scatter mean: sum then divide by per-row counts. */
core::Tensor scatterMean(const core::Tensor &src,
                         const std::vector<NodeId> &idx,
                         NodeId out_rows, const KernelCtx &ctx);

/** Scatter max (rows with no contribution become 0). */
core::Tensor scatterMax(const core::Tensor &src,
                        const std::vector<NodeId> &idx, NodeId out_rows,
                        const KernelCtx &ctx);

/**
 * Segment softmax over an index vector (PyG's softmax(src, index)):
 * per column, softmax of the entries sharing the same index value.
 */
core::Tensor scatterSoftmax(const core::Tensor &scores,
                            const std::vector<NodeId> &idx,
                            NodeId num_segments, const KernelCtx &ctx);

/** out[e, :] = src[e, :] * w[e] (per-edge scalar broadcast). */
core::Tensor mulEdgeScalar(const core::Tensor &src,
                           const core::Tensor &w, const KernelCtx &ctx);

/**
 * torch_sparse::matmul-style fused SpMM over an in-adjacency: a
 * straightforward (unblocked, un-unrolled) CSR loop — functional but
 * without dglx's tuned inner kernel.  On the CPU it is the one op that
 * pays the profile's cpuSparsePenalty on top of its measured time.
 */
core::Tensor spmm(const graph::CsrGraph &csc, const core::Tensor &x,
                  const float *w, const KernelCtx &ctx);

/// @name Autograd wrappers
/// @{

/**
 * Differentiable gather-multiply-scatter aggregation over an edge
 * list: out[dst[e], :] += w[e] * x[src[e], :].  The backward swaps
 * the roles of src and dst.  Edge arrays and weights are shared so
 * sampled-subgraph temporaries survive until backward.
 */
core::ag::Var propagateVar(
    std::shared_ptr<const std::vector<NodeId>> src,
    std::shared_ptr<const std::vector<NodeId>> dst,
    std::shared_ptr<const std::vector<float>> w, NodeId out_rows,
    NodeId src_rows, const core::ag::Var &x, const KernelCtx &ctx);

/** Differentiable fused SpMM (forward csc / backward csr pair). */
core::ag::Var spmmVar(const graph::CsrGraph &csc, const float *w_csc,
                      std::shared_ptr<const graph::CsrGraph> bwd,
                      std::shared_ptr<const std::vector<float>> w_bwd,
                      const core::ag::Var &x, const KernelCtx &ctx);

/// @}

} // namespace pygx
} // namespace gnnbench

#endif // GNNBENCH_PYGX_SCATTER_H
