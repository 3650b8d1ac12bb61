/**
 * @file
 * CSR SpMM family: fused gather-reduce (spmm), its transpose scatter
 * form, argmax-tracking max, and the edge-major segment ops.
 *
 * Bit-exactness across variants rests on two rules enforced here:
 *  1. every output element accumulates its contributions in ascending
 *     stored-entry order with the exact same arithmetic expression the
 *     Reference loop uses, and
 *  2. parallel decomposition (row panels, feature tiles) is a pure
 *     function of (indptr, feature width) — never of the pool size.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "gnnbench/core/common.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/core/timer.h"
#include "gnnbench/kernels/detail.h"
#include "gnnbench/kernels/kernels.h"
#include "gnnbench/kernels/simd.h"

namespace gnnbench {
namespace kernels {

using core::Tensor;
using graph::CsrGraph;

namespace {

/**
 * One unit of Tiled work: rows [rowBegin, rowEnd) over features
 * [jBegin, jEnd).  Light rows travel in nnz-balanced panels spanning
 * the full feature range; a heavy row (degree >= Tiling::kHeavyDegree)
 * becomes one task per feature tile, so its work parallelizes across
 * disjoint column ranges without ever splitting an output element's
 * accumulation chain.
 */
struct RowTask
{
    NodeId rowBegin;
    NodeId rowEnd;
    int64_t jBegin;
    int64_t jEnd;
};

std::vector<RowTask>
buildRowTasks(const CsrGraph &adj, int64_t f)
{
    std::vector<RowTask> tasks;
    NodeId panelStart = 0;
    EdgeId panelNnz = 0;
    auto flushPanel = [&](NodeId panelEnd) {
        if (panelEnd > panelStart)
            tasks.push_back({panelStart, panelEnd, 0, f});
        panelNnz = 0;
    };
    for (NodeId r = 0; r < adj.numRows; ++r) {
        const EdgeId deg = adj.degree(r);
        if (deg >= Tiling::kHeavyDegree && f > 0) {
            flushPanel(r);
            for (int64_t j = 0; j < f; j += Tiling::kFeatTile)
                tasks.push_back(
                    {r, r + 1, j, std::min(j + Tiling::kFeatTile, f)});
            panelStart = r + 1;
            continue;
        }
        panelNnz += deg;
        if (panelNnz >= Tiling::kPanelNnz) {
            flushPanel(r + 1);
            panelStart = r + 1;
        }
    }
    flushPanel(adj.numRows);
    return tasks;
}

/**
 * Accumulate rows [r0, r1) x features [j0, j1) of a sum/mean SpMM.
 * The inner expressions are shared verbatim by Reference and Tiled so
 * the compiler emits identical arithmetic for both.
 */
void
spmmSumRange(const CsrGraph &adj, const Tensor &x, const float *w,
             bool mean, Tensor &out, NodeId r0, NodeId r1, int64_t j0,
             int64_t j1)
{
    const NodeId *idx = adj.indices.data();
    for (NodeId r = r0; r < r1; ++r) {
        float *__restrict orow = out.row(r);
        const EdgeId e0 = adj.indptr[r];
        const EdgeId e1 = adj.indptr[r + 1];
        for (int64_t jt = j0; jt < j1; jt += Tiling::kFeatTile) {
            const int64_t jtEnd = std::min(jt + Tiling::kFeatTile, j1);
            for (EdgeId e = e0; e < e1; ++e) {
                const float *__restrict xrow = x.row(idx[e]);
                if (w) {
                    const float we = w[e];
                    for (int64_t j = jt; j < jtEnd; ++j)
                        orow[j] += we * xrow[j];
                } else {
                    for (int64_t j = jt; j < jtEnd; ++j)
                        orow[j] += xrow[j];
                }
            }
        }
        if (mean && e1 > e0) {
            const float inv =
                1.0f / static_cast<float>(e1 - e0);
            for (int64_t j = j0; j < j1; ++j)
                orow[j] *= inv;
        }
    }
}

/** Max-reduce over the same range; empty rows come out zero. */
void
spmmMaxRange(const CsrGraph &adj, const Tensor &x, Tensor &out,
             NodeId r0, NodeId r1, int64_t j0, int64_t j1)
{
    const NodeId *idx = adj.indices.data();
    constexpr float kNegInf = -std::numeric_limits<float>::infinity();
    for (NodeId r = r0; r < r1; ++r) {
        float *__restrict orow = out.row(r);
        const EdgeId e0 = adj.indptr[r];
        const EdgeId e1 = adj.indptr[r + 1];
        if (e0 == e1) {
            for (int64_t j = j0; j < j1; ++j)
                orow[j] = 0.0f;
            continue;
        }
        for (int64_t j = j0; j < j1; ++j)
            orow[j] = kNegInf;
        for (int64_t jt = j0; jt < j1; jt += Tiling::kFeatTile) {
            const int64_t jtEnd = std::min(jt + Tiling::kFeatTile, j1);
            for (EdgeId e = e0; e < e1; ++e) {
                const float *__restrict xrow = x.row(idx[e]);
                for (int64_t j = jt; j < jtEnd; ++j)
                    orow[j] = std::max(orow[j], xrow[j]);
            }
        }
    }
}

void
runTasks(const std::vector<RowTask> &tasks, KernelStats *stats,
         const std::function<void(const RowTask &)> &body)
{
    if (stats)
        stats->chunkSeconds.assign(tasks.size(), 0.0);
    core::parallel::parallelForChunks(
        0, static_cast<int64_t>(tasks.size()), 1,
        [&](int64_t chunk, int64_t b, int64_t /*e*/) {
            if (stats) {
                core::ThreadCpuTimer t;
                body(tasks[static_cast<size_t>(b)]);
                stats->chunkSeconds[static_cast<size_t>(chunk)] =
                    t.elapsed();
            } else {
                body(tasks[static_cast<size_t>(b)]);
            }
        });
}

} // namespace

Tensor
spmm(const CsrGraph &adj, const Tensor &x, ReduceOp op, const float *w,
     KernelVariant v, KernelStats *stats)
{
    GNNBENCH_CHECK(x.rows() == adj.numCols,
                   "spmm: feature rows must match adjacency columns");
    GNNBENCH_CHECK(op != ReduceOp::Max || w == nullptr,
                   "spmm: max reduce does not take edge weights");
    const int64_t f = x.cols();
    const KernelVariant chosen = resolveVariant(v, adj.numEdges(), f);
    const profiling::OpCost cost =
        op == ReduceOp::Max
            ? profiling::spmmMaxCost(
                  static_cast<uint64_t>(adj.numRows),
                  static_cast<uint64_t>(adj.numEdges()), f)
            : profiling::spmmCost(
                  static_cast<uint64_t>(adj.numRows),
                  static_cast<uint64_t>(adj.numEdges()), f,
                  w != nullptr, op == ReduceOp::Mean);
    detail::OpObserver obs("kernels.spmm",
                           static_cast<uint64_t>(adj.numRows),
                           static_cast<uint64_t>(adj.numEdges()), cost,
                           chosen, stats);

    Tensor out(adj.numRows, f);
    if (stats)
        stats->chunkSeconds.clear();
    if (f == 0 || adj.numRows == 0)
        return out;

    const bool mean = op == ReduceOp::Mean;
    if (chosen == KernelVariant::Reference) {
        if (stats) {
            core::ThreadCpuTimer t;
            if (op == ReduceOp::Max)
                spmmMaxRange(adj, x, out, 0, adj.numRows, 0, f);
            else
                spmmSumRange(adj, x, w, mean, out, 0, adj.numRows, 0,
                             f);
            stats->chunkSeconds.push_back(t.elapsed());
        } else {
            if (op == ReduceOp::Max)
                spmmMaxRange(adj, x, out, 0, adj.numRows, 0, f);
            else
                spmmSumRange(adj, x, w, mean, out, 0, adj.numRows, 0,
                             f);
        }
        return out;
    }

    const bool useSimd = chosen == KernelVariant::Simd;
    const std::vector<RowTask> tasks = buildRowTasks(adj, f);
    runTasks(tasks, stats, [&](const RowTask &t) {
        if (op == ReduceOp::Max) {
            if (useSimd)
                simd::spmmMaxRows(adj, x, out, t.rowBegin, t.rowEnd,
                                  t.jBegin, t.jEnd);
            else
                spmmMaxRange(adj, x, out, t.rowBegin, t.rowEnd,
                             t.jBegin, t.jEnd);
        } else {
            if (useSimd)
                simd::spmmSumRows(adj, x, w, mean, out, t.rowBegin,
                                  t.rowEnd, t.jBegin, t.jEnd);
            else
                spmmSumRange(adj, x, w, mean, out, t.rowBegin,
                             t.rowEnd, t.jBegin, t.jEnd);
        }
    });
    return out;
}

Tensor
spmmScatter(const CsrGraph &adj, const Tensor &x, const float *w,
            KernelVariant v, KernelStats *stats)
{
    GNNBENCH_CHECK(x.rows() == adj.numRows,
                   "spmmScatter: feature rows must match adjacency rows");
    const int64_t f = x.cols();
    const KernelVariant chosen = resolveVariant(v, adj.numEdges(), f);
    detail::OpObserver obs(
        "kernels.spmmScatter", static_cast<uint64_t>(adj.numCols),
        static_cast<uint64_t>(adj.numEdges()),
        profiling::spmmScatterCost(
            static_cast<uint64_t>(adj.numEdges()), f, w != nullptr),
        chosen, stats);

    Tensor out(adj.numCols, f);
    if (f == 0)
        return out;
    const NodeId *idx = adj.indices.data();

    // Every output row can receive contributions from any adjacency
    // row, so the only decomposition that keeps ascending-entry order
    // per element AND writes disjoint memory is column blocking: each
    // chunk owns a feature tile and walks all stored entries in order.
    auto scatterTile = [&](int64_t j0, int64_t j1) {
        for (NodeId r = 0; r < adj.numRows; ++r) {
            const float *__restrict xrow = x.row(r);
            const EdgeId e0 = adj.indptr[r];
            const EdgeId e1 = adj.indptr[r + 1];
            for (EdgeId e = e0; e < e1; ++e) {
                float *__restrict orow = out.row(idx[e]);
                if (w) {
                    const float we = w[e];
                    for (int64_t j = j0; j < j1; ++j)
                        orow[j] += we * xrow[j];
                } else {
                    for (int64_t j = j0; j < j1; ++j)
                        orow[j] += xrow[j];
                }
            }
        }
    };
    if (chosen == KernelVariant::Reference)
        scatterTile(0, f);
    else
        core::parallel::parallelFor(0, f, Tiling::kFeatTile,
                                    scatterTile);
    return out;
}

Tensor
spmmMaxArg(const CsrGraph &adj, const Tensor &x,
           std::vector<NodeId> *arg_src, KernelVariant v,
           KernelStats *stats)
{
    GNNBENCH_CHECK(x.rows() == adj.numCols,
                   "spmmMaxArg: feature rows must match adjacency columns");
    const int64_t f = x.cols();
    const KernelVariant chosen = resolveVariant(v, adj.numEdges(), f);
    profiling::OpCost cost = profiling::spmmMaxCost(
        static_cast<uint64_t>(adj.numRows),
        static_cast<uint64_t>(adj.numEdges()), f);
    // The argmax writes one NodeId per output element on top of the
    // plain max traffic.
    cost.bytes += static_cast<double>(adj.numRows) * f * 4.0;
    detail::OpObserver obs("kernels.spmm",
                           static_cast<uint64_t>(adj.numRows),
                           static_cast<uint64_t>(adj.numEdges()), cost,
                           chosen, stats);

    Tensor out(adj.numRows, f);
    if (arg_src)
        arg_src->assign(static_cast<size_t>(adj.numRows) * f, -1);
    if (f == 0 || adj.numRows == 0)
        return out;
    const NodeId *idx = adj.indices.data();

    auto maxRows = [&](NodeId r0, NodeId r1, int64_t j0, int64_t j1) {
        constexpr float kNegInf =
            -std::numeric_limits<float>::infinity();
        for (NodeId r = r0; r < r1; ++r) {
            float *__restrict orow = out.row(r);
            NodeId *arow =
                arg_src ? arg_src->data() + static_cast<size_t>(r) * f
                        : nullptr;
            const EdgeId e0 = adj.indptr[r];
            const EdgeId e1 = adj.indptr[r + 1];
            if (e0 == e1) {
                for (int64_t j = j0; j < j1; ++j)
                    orow[j] = 0.0f;
                continue;
            }
            for (int64_t j = j0; j < j1; ++j)
                orow[j] = kNegInf;
            for (EdgeId e = e0; e < e1; ++e) {
                const NodeId s = idx[e];
                const float *__restrict xrow = x.row(s);
                // Strict > keeps the first maximal edge on ties —
                // the Reference order the autograd backward relies
                // on for reproducibility.
                for (int64_t j = j0; j < j1; ++j) {
                    if (xrow[j] > orow[j]) {
                        orow[j] = xrow[j];
                        if (arow)
                            arow[j] = s;
                    }
                }
            }
        }
    };

    if (chosen == KernelVariant::Reference) {
        maxRows(0, adj.numRows, 0, f);
        return out;
    }
    const std::vector<RowTask> tasks = buildRowTasks(adj, f);
    runTasks(tasks, nullptr, [&](const RowTask &t) {
        maxRows(t.rowBegin, t.rowEnd, t.jBegin, t.jEnd);
    });
    return out;
}

Tensor
segmentSumRows(const CsrGraph &adj, const Tensor &x, KernelVariant v,
               KernelStats *stats)
{
    GNNBENCH_CHECK(x.rows() == adj.numEdges(),
                   "segmentSumRows: one feature row per stored entry");
    const int64_t f = x.cols();
    const KernelVariant chosen = resolveVariant(v, adj.numEdges(), f);
    detail::OpObserver obs(
        "kernels.segment", static_cast<uint64_t>(adj.numRows),
        static_cast<uint64_t>(adj.numEdges()),
        profiling::segmentSumCost(
            static_cast<uint64_t>(adj.numRows),
            static_cast<uint64_t>(adj.numEdges()), f),
        chosen, stats);

    Tensor out(adj.numRows, f);
    if (f == 0 || adj.numRows == 0)
        return out;
    auto sumRows = [&](NodeId r0, NodeId r1, int64_t j0, int64_t j1) {
        for (NodeId r = r0; r < r1; ++r) {
            float *__restrict orow = out.row(r);
            const EdgeId e0 = adj.indptr[r];
            const EdgeId e1 = adj.indptr[r + 1];
            for (EdgeId e = e0; e < e1; ++e) {
                const float *__restrict xrow = x.row(e);
                for (int64_t j = j0; j < j1; ++j)
                    orow[j] += xrow[j];
            }
        }
    };
    if (chosen == KernelVariant::Reference) {
        sumRows(0, adj.numRows, 0, f);
        return out;
    }
    const bool useSimd = chosen == KernelVariant::Simd;
    const std::vector<RowTask> tasks = buildRowTasks(adj, f);
    runTasks(tasks, nullptr, [&](const RowTask &t) {
        if (useSimd)
            simd::segmentSumRows(adj, x, out, t.rowBegin, t.rowEnd,
                                 t.jBegin, t.jEnd);
        else
            sumRows(t.rowBegin, t.rowEnd, t.jBegin, t.jEnd);
    });
    return out;
}

Tensor
scatterSumCols(const CsrGraph &adj, const Tensor &x, KernelVariant v,
               KernelStats *stats)
{
    GNNBENCH_CHECK(x.rows() == adj.numEdges(),
                   "scatterSumCols: one feature row per stored entry");
    const int64_t f = x.cols();
    const KernelVariant chosen = resolveVariant(v, adj.numEdges(), f);
    detail::OpObserver obs(
        "kernels.scatter", static_cast<uint64_t>(adj.numCols),
        static_cast<uint64_t>(adj.numEdges()),
        profiling::scatterCost(static_cast<uint64_t>(adj.numEdges()),
                               static_cast<uint64_t>(adj.numCols), f),
        chosen, stats);

    Tensor out(adj.numCols, f);
    if (f == 0)
        return out;
    const NodeId *idx = adj.indices.data();
    auto scatterTile = [&](int64_t j0, int64_t j1) {
        const EdgeId nnz = adj.numEdges();
        for (EdgeId e = 0; e < nnz; ++e) {
            float *__restrict orow = out.row(idx[e]);
            const float *__restrict xrow = x.row(e);
            for (int64_t j = j0; j < j1; ++j)
                orow[j] += xrow[j];
        }
    };
    if (chosen == KernelVariant::Reference)
        scatterTile(0, f);
    else
        core::parallel::parallelFor(0, f, Tiling::kFeatTile,
                                    scatterTile);
    return out;
}

} // namespace kernels
} // namespace gnnbench
