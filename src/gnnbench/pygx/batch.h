/**
 * @file
 * The sampled-batch containers of the pygx framework.
 *
 * PyG's samplers hand models edge_index lists rather than adjacency
 * blocks; the batch types below carry edge arrays over locally
 * relabeled nodes, which the layers aggregate with the materializing
 * gather/scatter propagate (pygx/scatter.h).
 */

#ifndef GNNBENCH_PYGX_BATCH_H
#define GNNBENCH_PYGX_BATCH_H

#include <vector>

#include "gnnbench/core/common.h"

namespace gnnbench {
namespace pygx {

/** An induced subgraph as PyG's subgraph() returns it: edge_index
 *  over locally relabeled nodes. */
struct EdgeBatch
{
    std::vector<NodeId> nodes;  ///< global ids (position = local id)
    std::vector<NodeId> src;    ///< local source endpoints
    std::vector<NodeId> dst;    ///< local destination endpoints

    NodeId numNodes() const
    {
        return static_cast<NodeId>(nodes.size());
    }
    EdgeId numEdges() const
    {
        return static_cast<EdgeId>(src.size());
    }

    uint64_t structureBytes() const;

    void validate() const;
};

/** One sampled bipartite layer, PyG NeighborLoader style. */
struct LayerBatch
{
    /** Global ids of sources; dstNodes is a prefix of srcNodes. */
    std::vector<NodeId> srcNodes;
    std::vector<NodeId> dstNodes;
    std::vector<NodeId> eSrc;  ///< local src endpoint per edge
    std::vector<NodeId> eDst;  ///< local dst endpoint per edge

    uint64_t structureBytes() const;

    void validate() const;
};

/** Output of the pygx neighbor sampler for one seed batch. */
struct NeighborBatch
{
    std::vector<NodeId> seeds;
    /** layers[0] is the input-side layer (applied first). */
    std::vector<LayerBatch> layers;

    const std::vector<NodeId> &
    inputNodes() const
    {
        return layers.front().srcNodes;
    }

    uint64_t structureBytes() const;

    void validate() const;
};

} // namespace pygx
} // namespace gnnbench

#endif // GNNBENCH_PYGX_BATCH_H
