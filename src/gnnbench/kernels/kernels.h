/**
 * @file
 * Unified sparse aggregation kernel layer.
 *
 * Both framework reimplementations (dglx and pygx) spend the bulk of
 * their training time in sparse gather/reduce — the paper's
 * component-level breakdown puts graph-convolution aggregation on the
 * hottest path of DGL and PyG alike.  This subsystem is the single
 * home for those kernels: CSR SpMM (sum/mean/max), its scatter
 * (transpose) form, SDDMM primitives, and the edge-list
 * gather/scatter family, each available in several variants that are
 * *bit-identical* to one another:
 *
 *  - KernelVariant::Reference — the naive scalar loops the frameworks
 *    originally carried, kept alive as the golden model the
 *    conformance suite (tests/test_kernels.cc) compares against.
 *  - KernelVariant::Tiled — the optimized path: feature-dimension
 *    tiling (FeatGraph-style), cache-blocked row panels balanced by
 *    nnz (Gunrock-style load-balanced row partitioning), and
 *    heavy-row parallelism across feature tiles, all running over
 *    core/parallel.
 *  - KernelVariant::Simd — Tiled with hand-written AVX2 row kernels
 *    for spmm and segmentSumRows, which keep each output feature
 *    tile in registers across a row's whole edge list; every other
 *    entry point runs its Tiled loop.  Same arithmetic order as
 *    Reference, so still bit-identical (see kernels/simd.h).  Where
 *    the build or the CPU lacks AVX2, Simd resolves to Tiled.
 *
 * Determinism contract: work decomposes into chunks that depend only
 * on the problem (graph + feature width), never on the pool size, a
 * panel boundary is always a row boundary, and every output element
 * accumulates its contributions in ascending edge order — exactly the
 * Reference order.  Results are therefore bit-identical across
 * variants and for any GNNBENCH_NUM_THREADS (max is additionally
 * order-insensitive up to NaN handling; the suite checks it
 * ULP-bounded).
 *
 * Every entry point feeds the profiling metrics registry
 * ("kernels.*" counters: calls, rows, nnz, bytes moved, and the
 * variant chosen), so run reports can attribute aggregation work and
 * distinguish implementations.
 */

#ifndef GNNBENCH_KERNELS_KERNELS_H
#define GNNBENCH_KERNELS_KERNELS_H

#include <string>
#include <string_view>
#include <vector>

#include "gnnbench/core/tensor.h"
#include "gnnbench/graph/csr.h"
#include "gnnbench/profiling/perf_counters.h"
#include "gnnbench/profiling/roofline.h"

namespace gnnbench {
namespace kernels {

/** Aggregation operators shared by every sparse reduce kernel. */
enum class ReduceOp { Sum, Mean, Max };

/** Selectable kernel implementations. */
enum class KernelVariant
{
    Auto,       ///< resolve per call (size-based policy)
    Reference,  ///< naive scalar golden model (serial)
    Tiled,      ///< tiled + row-panel load-balanced parallel path
    Simd,       ///< Tiled decomposition + vectorized inner loops
};

const char *reduceOpName(ReduceOp op);
const char *variantName(KernelVariant v);

/** "auto/reference/tiled/simd" — for error messages and help text. */
const char *validVariantList();

/** Parse a name from validVariantList(); false on unknown. */
bool parseVariant(std::string_view name, KernelVariant *out);

/**
 * The process default used whenever a call site passes Auto: the
 * GNNBENCH_KERNEL_VARIANT environment variable at first use
 * ("reference"/"tiled"/"auto"), overridable in-process with
 * setDefaultVariant() (benches and tests).
 */
KernelVariant defaultVariant();
void setDefaultVariant(KernelVariant v);

/**
 * Resolve Auto into a concrete variant for a problem of @p nnz stored
 * entries and feature width @p f: tiny problems stay on Reference
 * (the panel build would dominate), everything else runs Simd.
 * Simd, explicit or chosen by Auto, becomes Tiled where the AVX2 row
 * kernels are unavailable; other explicit variants pass through.
 */
KernelVariant resolveVariant(KernelVariant v, EdgeId nnz, int64_t f);

/**
 * Human-readable label of what @p v actually executes on this machine
 * once Auto policy and CPU-feature dispatch are applied, for bench
 * reports: "simd[avx2]", "tiled" or "reference".  The Auto policy is
 * reported for the large-problem regime (nnz above
 * Tiling::kAutoReferenceNnz), which is what benches measure.
 */
std::string resolvedVariantLabel(KernelVariant v = KernelVariant::Auto);

/** Tiling/partitioning parameters of the Tiled variant. */
struct Tiling
{
    /** Feature-tile width in floats (256 B = 4 cache lines). */
    static constexpr int64_t kFeatTile = 64;
    /** Target stored entries per row panel (cache-blocked). */
    static constexpr EdgeId kPanelNnz = 8192;
    /** Rows at or above this degree parallelize across feature
     *  tiles instead of joining a row panel. */
    static constexpr EdgeId kHeavyDegree = 8192;
    /** Below this nnz, Auto resolves to Reference. */
    static constexpr EdgeId kAutoReferenceNnz = 2048;
};

/**
 * Optional per-call observability sink.  When given, the Tiled
 * variant records the wall seconds of every chunk it executed (in
 * chunk order); the variant-comparison bench replays those onto N
 * virtual threads to compute the critical path on this one-core
 * harness (the repo's virtual-time methodology).
 *
 * Every entry point additionally fills the dispatch-level fields:
 * wall seconds, the analytic FLOP/byte cost (matching the
 * "kernels.*" counters), and the PMU delta over the dispatch when
 * the perf layer is live — together these place the call on the
 * roofline (see profiling/roofline.h).
 */
struct KernelStats
{
    std::vector<double> chunkSeconds;

    /** Wall seconds of the whole dispatch. */
    double seconds = 0.0;
    /** Analytic FLOPs and modeled bytes charged to the dispatch. */
    profiling::OpCost cost;
    /** Hardware-counter delta (valid only when the PMU is live). */
    profiling::PerfDelta perf;

    /** FLOPs per modeled byte. */
    double
    operationalIntensity() const
    {
        return cost.intensity();
    }

    /** Achieved fraction of the machine's roofline ceiling at this
     *  op's intensity (triggers calibration on first use). */
    double rooflineFraction() const;
};

/// @name CSR SpMM family
/// @{

/**
 * CSR SpMM over an in-adjacency: for each row r,
 * out[r, :] = reduce over stored entries e of (w[e] * x[col(e), :]).
 * @param adj adjacency (rows = outputs, cols index into x)
 * @param x   dense features, one row per adjacency column
 * @param w   optional per-edge weights in adjacency traversal order
 *            (must be null for ReduceOp::Max)
 * Mean divides the sum by the row degree; empty rows are zero (all
 * reduce ops).
 */
core::Tensor spmm(const graph::CsrGraph &adj, const core::Tensor &x,
                  ReduceOp op, const float *w = nullptr,
                  KernelVariant v = KernelVariant::Auto,
                  KernelStats *stats = nullptr);

/**
 * Scatter (transpose) form: for each row r and stored entry e,
 * out[col(e), :] += w[e] * x[r, :] — multiplication by the transpose
 * without materializing it, the backward kernel of spmm(Sum).
 */
core::Tensor spmmScatter(const graph::CsrGraph &adj,
                         const core::Tensor &x, const float *w = nullptr,
                         KernelVariant v = KernelVariant::Auto,
                         KernelStats *stats = nullptr);

/**
 * spmm(Max) that additionally records, per output element, the
 * source node that won the max (-1 for empty rows) — the forward
 * pass of the differentiable max aggregation.  Ties keep the first
 * maximal edge in ascending order (the Reference order).
 */
core::Tensor spmmMaxArg(const graph::CsrGraph &adj,
                        const core::Tensor &x,
                        std::vector<NodeId> *arg_src,
                        KernelVariant v = KernelVariant::Auto,
                        KernelStats *stats = nullptr);

/// @}
/// @name SDDMM family
/// @{

/** For each stored entry e: out[e, :] = a_row[r(e), :] + b_col[col(e), :]. */
core::Tensor sddmmAdd(const graph::CsrGraph &adj,
                      const core::Tensor &a_row,
                      const core::Tensor &b_col,
                      KernelVariant v = KernelVariant::Auto,
                      KernelStats *stats = nullptr);

/** For each stored entry e: out[e, 0] = <a_row[r(e), :], b_col[col(e), :]>. */
core::Tensor sddmmDot(const graph::CsrGraph &adj,
                      const core::Tensor &a_row,
                      const core::Tensor &b_col,
                      KernelVariant v = KernelVariant::Auto,
                      KernelStats *stats = nullptr);

/// @}
/// @name Edge-list gather/scatter family (the PyG-paradigm kernels)
/// @{

/** out[i, :] = x[idx[i], :]. */
core::Tensor gatherRows(const core::Tensor &x,
                        const std::vector<NodeId> &idx,
                        KernelVariant v = KernelVariant::Auto,
                        KernelStats *stats = nullptr);

/** out[idx[i], :] += src[i, :] over @p out_rows rows (ascending-i
 *  accumulation order per element, any variant). */
core::Tensor scatterSum(const core::Tensor &src,
                        const std::vector<NodeId> &idx, NodeId out_rows,
                        KernelVariant v = KernelVariant::Auto,
                        KernelStats *stats = nullptr);

/** Scatter sum divided by per-row contribution counts. */
core::Tensor scatterMean(const core::Tensor &src,
                         const std::vector<NodeId> &idx,
                         NodeId out_rows,
                         KernelVariant v = KernelVariant::Auto,
                         KernelStats *stats = nullptr);

/** Scatter max; rows with no contribution become 0. */
core::Tensor scatterMax(const core::Tensor &src,
                        const std::vector<NodeId> &idx, NodeId out_rows,
                        KernelVariant v = KernelVariant::Auto,
                        KernelStats *stats = nullptr);

/// @}
/// @name Segment ops over an adjacency's stored entries
/// @{

/** Per-row segment sum of edge-major rows:
 *  out[r, :] = sum over stored entries e of row r of x[e, :]. */
core::Tensor segmentSumRows(const graph::CsrGraph &adj,
                            const core::Tensor &x,
                            KernelVariant v = KernelVariant::Auto,
                            KernelStats *stats = nullptr);

/** Scatter edge-major rows onto columns: out[col(e), :] += x[e, :]. */
core::Tensor scatterSumCols(const graph::CsrGraph &adj,
                            const core::Tensor &x,
                            KernelVariant v = KernelVariant::Auto,
                            KernelStats *stats = nullptr);

/// @}

} // namespace kernels
} // namespace gnnbench

#endif // GNNBENCH_KERNELS_KERNELS_H
