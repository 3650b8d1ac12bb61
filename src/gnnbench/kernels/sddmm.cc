/**
 * @file
 * SDDMM primitives: per-stored-entry dense ops sampled by the sparse
 * pattern.  Each stored entry's output is written exactly once, so the
 * Tiled variant simply row-panels the adjacency (fixed nnz-balanced
 * chunks); no accumulation order is at stake.
 */

#include <algorithm>
#include <vector>

#include "gnnbench/core/common.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/kernels/detail.h"
#include "gnnbench/kernels/kernels.h"

namespace gnnbench {
namespace kernels {

using core::Tensor;
using graph::CsrGraph;

namespace {

/**
 * Row panels with ~kPanelNnz stored entries each, boundaries a pure
 * function of indptr.  SDDMM entries are written once, so heavy rows
 * need no special casing here.
 */
std::vector<NodeId>
panelBounds(const CsrGraph &adj)
{
    std::vector<NodeId> bounds{0};
    EdgeId panelNnz = 0;
    for (NodeId r = 0; r < adj.numRows; ++r) {
        panelNnz += adj.degree(r);
        if (panelNnz >= Tiling::kPanelNnz) {
            bounds.push_back(r + 1);
            panelNnz = 0;
        }
    }
    if (bounds.back() != adj.numRows)
        bounds.push_back(adj.numRows);
    return bounds;
}

void
runPanels(const CsrGraph &adj, KernelVariant chosen,
          const std::function<void(NodeId, NodeId)> &body)
{
    if (chosen == KernelVariant::Reference) {
        body(0, adj.numRows);
        return;
    }
    const std::vector<NodeId> bounds = panelBounds(adj);
    core::parallel::parallelFor(
        0, static_cast<int64_t>(bounds.size()) - 1, 1,
        [&](int64_t b, int64_t e) {
            for (int64_t p = b; p < e; ++p)
                body(bounds[static_cast<size_t>(p)],
                     bounds[static_cast<size_t>(p) + 1]);
        });
}

} // namespace

Tensor
sddmmAdd(const CsrGraph &adj, const Tensor &a_row, const Tensor &b_col,
         KernelVariant v, KernelStats *stats)
{
    GNNBENCH_CHECK(a_row.rows() == adj.numRows,
                   "sddmmAdd: a_row rows must match adjacency rows");
    GNNBENCH_CHECK(b_col.rows() == adj.numCols,
                   "sddmmAdd: b_col rows must match adjacency columns");
    GNNBENCH_CHECK(a_row.cols() == b_col.cols(),
                   "sddmmAdd: operand widths must match");
    const int64_t h = a_row.cols();
    const KernelVariant chosen = resolveVariant(v, adj.numEdges(), h);
    detail::OpObserver obs(
        "kernels.sddmm", static_cast<uint64_t>(adj.numRows),
        static_cast<uint64_t>(adj.numEdges()),
        profiling::sddmmAddCost(static_cast<uint64_t>(adj.numEdges()),
                                h),
        chosen, stats);

    Tensor out = Tensor::empty(adj.numEdges(), h);
    if (h == 0 || adj.numRows == 0)
        return out;
    const NodeId *idx = adj.indices.data();
    runPanels(adj, chosen, [&](NodeId r0, NodeId r1) {
        for (NodeId r = r0; r < r1; ++r) {
            const float *__restrict arow = a_row.row(r);
            const EdgeId e0 = adj.indptr[r];
            const EdgeId e1 = adj.indptr[r + 1];
            for (EdgeId e = e0; e < e1; ++e) {
                const float *__restrict brow = b_col.row(idx[e]);
                float *__restrict orow = out.row(e);
                for (int64_t j = 0; j < h; ++j)
                    orow[j] = arow[j] + brow[j];
            }
        }
    });
    return out;
}

Tensor
sddmmDot(const CsrGraph &adj, const Tensor &a_row, const Tensor &b_col,
         KernelVariant v, KernelStats *stats)
{
    GNNBENCH_CHECK(a_row.rows() == adj.numRows,
                   "sddmmDot: a_row rows must match adjacency rows");
    GNNBENCH_CHECK(b_col.rows() == adj.numCols,
                   "sddmmDot: b_col rows must match adjacency columns");
    GNNBENCH_CHECK(a_row.cols() == b_col.cols(),
                   "sddmmDot: operand widths must match");
    const int64_t h = a_row.cols();
    const KernelVariant chosen = resolveVariant(v, adj.numEdges(), h);
    detail::OpObserver obs(
        "kernels.sddmm", static_cast<uint64_t>(adj.numRows),
        static_cast<uint64_t>(adj.numEdges()),
        profiling::sddmmDotCost(static_cast<uint64_t>(adj.numEdges()),
                                h),
        chosen, stats);

    Tensor out = Tensor::empty(adj.numEdges(), 1);
    if (adj.numRows == 0)
        return out;
    const NodeId *idx = adj.indices.data();
    // A serial chain per edge: a lane-parallel reduction would
    // reassociate the sum and break bit-equality.
    runPanels(adj, chosen, [&](NodeId r0, NodeId r1) {
        for (NodeId r = r0; r < r1; ++r) {
            const float *__restrict arow = a_row.row(r);
            const EdgeId e0 = adj.indptr[r];
            const EdgeId e1 = adj.indptr[r + 1];
            for (EdgeId e = e0; e < e1; ++e) {
                const float *__restrict brow = b_col.row(idx[e]);
                float acc = 0.0f;
                for (int64_t j = 0; j < h; ++j)
                    acc += arow[j] * brow[j];
                out(e, 0) = acc;
            }
        }
    });
    return out;
}

} // namespace kernels
} // namespace gnnbench
