/**
 * @file
 * Edge-list gather/scatter kernels — the PyG execution paradigm:
 * materialize per-edge rows with gatherRows, reduce them back onto
 * nodes with scatterSum/Mean/Max.
 *
 * Scatter targets are arbitrary (idx is unsorted and may repeat), so
 * the Tiled variant parallelizes over feature tiles: each chunk owns a
 * disjoint column range and walks the index list in ascending order,
 * which reproduces the Reference accumulation order per element.
 */

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "gnnbench/core/common.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/kernels/detail.h"
#include "gnnbench/kernels/kernels.h"

namespace gnnbench {
namespace kernels {

using core::Tensor;

namespace {

/** Rows per chunk for the row-parallel gather (about 32 KiB each). */
int64_t
gatherGrain(int64_t f)
{
    return std::max<int64_t>(1, 8192 / std::max<int64_t>(1, f));
}

} // namespace

Tensor
gatherRows(const Tensor &x, const std::vector<NodeId> &idx,
           KernelVariant v, KernelStats *stats)
{
    const int64_t n = static_cast<int64_t>(idx.size());
    const int64_t f = x.cols();
    const KernelVariant chosen = resolveVariant(v, n, f);
    detail::OpObserver obs(
        "kernels.gather", static_cast<uint64_t>(n),
        static_cast<uint64_t>(n),
        profiling::gatherCost(static_cast<uint64_t>(n), f), chosen,
        stats);

    Tensor out = Tensor::empty(n, f);
    if (f == 0 || n == 0)
        return out;
    auto copyRows = [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            std::memcpy(out.row(i), x.row(idx[static_cast<size_t>(i)]),
                        static_cast<size_t>(f) * sizeof(float));
    };
    if (chosen == KernelVariant::Reference)
        copyRows(0, n);
    else
        core::parallel::parallelFor(0, n, gatherGrain(f), copyRows);
    return out;
}

Tensor
scatterSum(const Tensor &src, const std::vector<NodeId> &idx,
           NodeId out_rows, KernelVariant v, KernelStats *stats)
{
    GNNBENCH_CHECK(src.rows() == static_cast<int64_t>(idx.size()),
                   "scatterSum: one index per source row");
    const int64_t n = src.rows();
    const int64_t f = src.cols();
    const KernelVariant chosen = resolveVariant(v, n, f);
    detail::OpObserver obs(
        "kernels.scatter", static_cast<uint64_t>(out_rows),
        static_cast<uint64_t>(n),
        profiling::scatterCost(static_cast<uint64_t>(n),
                               static_cast<uint64_t>(out_rows), f),
        chosen, stats);

    Tensor out(out_rows, f);
    if (f == 0 || n == 0)
        return out;
    auto scatterTile = [&](int64_t j0, int64_t j1) {
        for (int64_t i = 0; i < n; ++i) {
            float *__restrict orow =
                out.row(idx[static_cast<size_t>(i)]);
            const float *__restrict srow = src.row(i);
            for (int64_t j = j0; j < j1; ++j)
                orow[j] += srow[j];
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
scatterMean(const Tensor &src, const std::vector<NodeId> &idx,
            NodeId out_rows, KernelVariant v, KernelStats *stats)
{
    Tensor out = scatterSum(src, idx, out_rows, v, stats);
    const int64_t f = src.cols();
    if (f == 0)
        return out;
    std::vector<int64_t> count(static_cast<size_t>(out_rows), 0);
    for (const NodeId r : idx)
        ++count[static_cast<size_t>(r)];
    const KernelVariant chosen =
        resolveVariant(v, static_cast<EdgeId>(idx.size()), f);
    auto divideRows = [&](int64_t b, int64_t e) {
        for (int64_t r = b; r < e; ++r) {
            const int64_t c = count[static_cast<size_t>(r)];
            if (c <= 1)
                continue;
            const float inv = 1.0f / static_cast<float>(c);
            float *__restrict orow = out.row(r);
            for (int64_t j = 0; j < f; ++j)
                orow[j] *= inv;
        }
    };
    if (chosen == KernelVariant::Reference)
        divideRows(0, out_rows);
    else
        core::parallel::parallelFor(0, out_rows, gatherGrain(f),
                                    divideRows);
    return out;
}

Tensor
scatterMax(const Tensor &src, const std::vector<NodeId> &idx,
           NodeId out_rows, KernelVariant v, KernelStats *stats)
{
    GNNBENCH_CHECK(src.rows() == static_cast<int64_t>(idx.size()),
                   "scatterMax: one index per source row");
    const int64_t n = src.rows();
    const int64_t f = src.cols();
    const KernelVariant chosen = resolveVariant(v, n, f);
    detail::OpObserver obs(
        "kernels.scatter", static_cast<uint64_t>(out_rows),
        static_cast<uint64_t>(n),
        profiling::scatterCost(static_cast<uint64_t>(n),
                               static_cast<uint64_t>(out_rows), f),
        chosen, stats);

    Tensor out = Tensor::empty(out_rows, f);
    if (f == 0)
        return out;
    constexpr float kNegInf = -std::numeric_limits<float>::infinity();
    std::vector<char> touched(static_cast<size_t>(out_rows), 0);
    for (const NodeId r : idx)
        touched[static_cast<size_t>(r)] = 1;

    auto maxTile = [&](int64_t j0, int64_t j1) {
        for (int64_t r = 0; r < out_rows; ++r) {
            float *__restrict orow = out.row(r);
            const float init =
                touched[static_cast<size_t>(r)] ? kNegInf : 0.0f;
            for (int64_t j = j0; j < j1; ++j)
                orow[j] = init;
        }
        for (int64_t i = 0; i < n; ++i) {
            float *__restrict orow =
                out.row(idx[static_cast<size_t>(i)]);
            const float *__restrict srow = src.row(i);
            for (int64_t j = j0; j < j1; ++j)
                orow[j] = std::max(orow[j], srow[j]);
        }
    };
    if (chosen == KernelVariant::Reference)
        maxTile(0, f);
    else
        core::parallel::parallelFor(0, f, Tiling::kFeatTile, maxTile);
    return out;
}

} // namespace kernels
} // namespace gnnbench
