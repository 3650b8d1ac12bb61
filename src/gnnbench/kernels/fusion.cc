#include "gnnbench/kernels/fusion.h"

#include <algorithm>
#include <utility>

#include "gnnbench/core/common.h"
#include "gnnbench/device/hierarchy.h"
#include "gnnbench/profiling/metrics_registry.h"

namespace gnnbench {
namespace kernels {

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

} // namespace kernels
} // namespace gnnbench
