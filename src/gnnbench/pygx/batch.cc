#include "gnnbench/pygx/batch.h"

namespace gnnbench {
namespace pygx {

uint64_t
EdgeBatch::structureBytes() const
{
    return nodes.size() * sizeof(NodeId) +
           (src.size() + dst.size()) * sizeof(NodeId);
}

void
EdgeBatch::validate() const
{
    GNNBENCH_CHECK(src.size() == dst.size(),
                   "edge batch: src/dst length mismatch");
    const NodeId n = numNodes();
    for (size_t i = 0; i < src.size(); ++i)
        GNNBENCH_CHECK(src[i] >= 0 && src[i] < n && dst[i] >= 0 &&
                           dst[i] < n,
                       "edge batch: endpoint out of range");
}

uint64_t
LayerBatch::structureBytes() const
{
    return (srcNodes.size() + dstNodes.size() + eSrc.size() +
            eDst.size()) *
           sizeof(NodeId);
}

void
LayerBatch::validate() const
{
    GNNBENCH_CHECK(eSrc.size() == eDst.size(),
                   "layer batch: edge arrays mismatch");
    GNNBENCH_CHECK(dstNodes.size() <= srcNodes.size(),
                   "layer batch: more dst than src");
    for (size_t i = 0; i < dstNodes.size(); ++i)
        GNNBENCH_CHECK(srcNodes[i] == dstNodes[i],
                       "layer batch: dst must prefix src");
    const NodeId ns = static_cast<NodeId>(srcNodes.size());
    const NodeId nd = static_cast<NodeId>(dstNodes.size());
    for (size_t i = 0; i < eSrc.size(); ++i)
        GNNBENCH_CHECK(eSrc[i] >= 0 && eSrc[i] < ns && eDst[i] >= 0 &&
                           eDst[i] < nd,
                       "layer batch: edge endpoint out of range");
}

uint64_t
NeighborBatch::structureBytes() const
{
    uint64_t bytes = seeds.size() * sizeof(NodeId);
    for (const auto &l : layers)
        bytes += l.structureBytes();
    return bytes;
}

void
NeighborBatch::validate() const
{
    GNNBENCH_CHECK(!layers.empty(), "neighbor batch without layers");
    for (const auto &l : layers)
        l.validate();
    for (size_t l = 0; l + 1 < layers.size(); ++l)
        GNNBENCH_CHECK(layers[l].dstNodes == layers[l + 1].srcNodes,
                       "neighbor batch: layer wiring broken at ", l);
    GNNBENCH_CHECK(layers.back().dstNodes == seeds,
                   "neighbor batch: seeds mismatch");
}

} // namespace pygx
} // namespace gnnbench
