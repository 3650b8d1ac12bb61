/**
 * @file
 * dglx::Graph — the graph-centric core object of the DGL-like
 * framework.
 *
 * Like DGLGraph, construction is *eager*: the object materializes the
 * COO edge list plus both CSR and CSC adjacencies and the degree
 * arrays up front, so every downstream operation (sampling in any
 * direction, fused kernels, partitioning) has its preferred format
 * available.  This is exactly the richness the paper credits for
 * DGL's fast samplers/kernels — and blames for its slower data loader
 * (Observation 1).
 */

#ifndef GNNBENCH_DGLX_GRAPH_H
#define GNNBENCH_DGLX_GRAPH_H

#include <memory>
#include <vector>

#include "gnnbench/core/tensor.h"
#include "gnnbench/graph/convert.h"

namespace gnnbench {
namespace dglx {

/** The DGL-like framework's central graph object. */
class Graph
{
  public:
    /** Build from an edge list; materializes all formats eagerly. */
    explicit Graph(const graph::CooGraph &coo);

    NodeId numNodes() const { return coo_.numNodes; }
    EdgeId numEdges() const { return coo_.numEdges(); }

    const graph::CooGraph &coo() const { return coo_; }
    const graph::CsrGraph &csr() const { return csr_; }
    const graph::CsrGraph &csc() const { return csc_; }

    const std::vector<EdgeId> &inDegrees() const { return inDeg_; }
    const std::vector<EdgeId> &outDegrees() const { return outDeg_; }

    /**
     * Symmetric GCN normalization 1/sqrt((d_u+1)(d_v+1)) aligned with
     * the CSC edge traversal order (computed lazily, then cached —
     * like DGL caching normalized adjacency).
     */
    const std::vector<float> &gcnNormCsc() const;

    /** Same weights aligned with the CSR traversal order. */
    const std::vector<float> &gcnNormCsr() const;

    /** Total bytes of the graph structure (for transfer modeling). */
    uint64_t structureBytes() const;

  private:
    graph::CooGraph coo_;
    graph::CsrGraph csr_;
    graph::CsrGraph csc_;
    std::vector<EdgeId> inDeg_;
    std::vector<EdgeId> outDeg_;
    mutable std::vector<float> gcnNormCsc_;
    mutable std::vector<float> gcnNormCsr_;
};

} // namespace dglx
} // namespace gnnbench

#endif // GNNBENCH_DGLX_GRAPH_H
