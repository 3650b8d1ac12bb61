#include "gnnbench/kernels/fusion.h"

#include <algorithm>
#include <utility>

#include "gnnbench/core/common.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/device/hierarchy.h"
#include "gnnbench/kernels/detail.h"
#include "gnnbench/profiling/metrics_registry.h"

namespace gnnbench {
namespace kernels {

using core::Tensor;

const char *
fusedOpName(FusedOp op)
{
    switch (op) {
    case FusedOp::Sample:
        return "sample";
    case FusedOp::Gather:
        return "gather";
    case FusedOp::MulEdge:
        return "mul_edge";
    case FusedOp::Spmm:
        return "spmm";
    case FusedOp::RowScale:
        return "row_scale";
    case FusedOp::Scatter:
        return "scatter";
    case FusedOp::Activation:
        return "activation";
    }
    return "?";
}

bool
fusionEnabled()
{
    return device::deviceConfig().fusionEnabled;
}

namespace {

struct FusionCounters
{
    profiling::Counter &fusedPairs;
    profiling::Counter &bytesSaved;
    profiling::Counter &rejectedPairs;
};

FusionCounters &
fusionCounters()
{
    auto &reg = profiling::MetricsRegistry::global();
    static FusionCounters c{
        reg.counter("device.fusion.fused_pairs"),
        reg.counter("device.fusion.fused_bytes_saved"),
        reg.counter("device.fusion.rejected_pairs"),
    };
    return c;
}

bool
eligiblePair(FusedOp producer, FusedOp consumer)
{
    switch (producer) {
    case FusedOp::Gather:
    case FusedOp::MulEdge:
        return consumer == FusedOp::Scatter;
    case FusedOp::Spmm:
        return consumer == FusedOp::RowScale ||
               consumer == FusedOp::Activation;
    default:
        return false;
    }
}

} // namespace

KernelGraph::KernelGraph(bool framework_supports_fusion)
    : supportsFusion_(framework_supports_fusion)
{
}

int
KernelGraph::addNode(FusedOp op, std::string name,
                     uint64_t output_bytes)
{
    nodes_.push_back(Node{op, std::move(name), output_bytes, 0});
    return static_cast<int>(nodes_.size()) - 1;
}

void
KernelGraph::addEdge(int producer, int consumer)
{
    GNNBENCH_ASSERT(producer >= 0 &&
                        producer < static_cast<int>(nodes_.size()) &&
                        consumer >= 0 &&
                        consumer < static_cast<int>(nodes_.size()) &&
                        producer != consumer,
                    "KernelGraph::addEdge: bad endpoint");
    edges_.emplace_back(producer, consumer);
    ++nodes_[static_cast<size_t>(producer)].consumers;
}

bool
KernelGraph::edgeExists(int producer, int consumer) const
{
    return std::find(edges_.begin(), edges_.end(),
                     std::make_pair(producer, consumer)) !=
           edges_.end();
}

bool
KernelGraph::fuse(int producer, int consumer, uint64_t bytes_saved)
{
    GNNBENCH_ASSERT(edgeExists(producer, consumer),
                    "KernelGraph::fuse: no such edge");
    const Node &p = nodes_[static_cast<size_t>(producer)];
    const Node &c = nodes_[static_cast<size_t>(consumer)];
    if (!eligiblePair(p.op, c.op))
        return false;
    if (!supportsFusion_ || !fusionEnabled() || p.consumers != 1) {
        ++rejectedPairs_;
        fusionCounters().rejectedPairs.add(1);
        return false;
    }
    ++fusedPairs_;
    bytesSaved_ += bytes_saved;
    fusionCounters().fusedPairs.add(1);
    fusionCounters().bytesSaved.add(bytes_saved);
    return true;
}

Tensor
gatherScatterSum(const Tensor &x, const std::vector<NodeId> &src,
                 const std::vector<NodeId> &dst, const float *w,
                 NodeId out_rows, KernelVariant v, KernelStats *stats)
{
    GNNBENCH_CHECK(src.size() == dst.size(),
                   "gatherScatterSum: one (src, dst) pair per edge");
    const int64_t n = static_cast<int64_t>(src.size());
    const int64_t f = x.cols();
    const KernelVariant chosen = resolveVariant(v, n, f);
    detail::OpObserver obs(
        "kernels.fused_scatter", static_cast<uint64_t>(out_rows),
        static_cast<uint64_t>(n),
        profiling::scatterCost(static_cast<uint64_t>(n),
                               static_cast<uint64_t>(out_rows), f),
        chosen, stats);

    Tensor out(out_rows, f);
    if (f == 0 || n == 0)
        return out;
    auto fusedTile = [&](int64_t j0, int64_t j1) {
        for (int64_t i = 0; i < n; ++i) {
            float *__restrict orow =
                out.row(dst[static_cast<size_t>(i)]);
            const float *__restrict xrow =
                x.row(src[static_cast<size_t>(i)]);
            if (w) {
                const float we = w[i];
                for (int64_t j = j0; j < j1; ++j)
                    orow[j] += we * xrow[j];
            } else {
                for (int64_t j = j0; j < j1; ++j)
                    orow[j] += xrow[j];
            }
        }
    };
    if (chosen == KernelVariant::Reference)
        fusedTile(0, f);
    else
        core::parallel::parallelFor(0, f, Tiling::kFeatTile, fusedTile);
    return out;
}

Tensor
spmmRelu(const graph::CsrGraph &adj, const Tensor &x, ReduceOp op,
         const float *w, KernelVariant v, KernelStats *stats)
{
    Tensor out = spmm(adj, x, op, w, v, stats);
    const int64_t numel = out.numel();
    if (numel == 0)
        return out;
    float *p = out.data();
    const KernelVariant chosen = resolveVariant(v, adj.numEdges(), 1);
    auto reluRange = [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            p[i] = std::max(p[i], 0.0f);
    };
    // ReLU is exact (no rounding), so the epilogue needs no
    // variant-specific arithmetic order.
    if (chosen == KernelVariant::Reference)
        reluRange(0, numel);
    else
        core::parallel::parallelFor(0, numel, 4096, reluRange);
    return out;
}

} // namespace kernels
} // namespace gnnbench
