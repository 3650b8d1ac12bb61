/**
 * @file
 * dglx data loader: turns a raw dataset into the framework-native
 * in-memory representation.
 *
 * DGL's loader builds the full DGLGraph object — every adjacency
 * format, degree arrays, and validation — which is why the paper's
 * Figure 3 finds it slower than PyG's.  The work is real here, so the
 * measured loader time reproduces that gap.
 */

#ifndef GNNBENCH_DGLX_DATALOADER_H
#define GNNBENCH_DGLX_DATALOADER_H

#include <memory>

#include "gnnbench/dglx/graph.h"
#include "gnnbench/dglx/sampler.h"
#include "gnnbench/graph/datasets.h"
#include "gnnbench/sampling/loader.h"

namespace gnnbench {
namespace dglx {

/** A dataset materialized as dglx-native objects. */
struct LoadedData
{
    std::shared_ptr<Graph> graph;
    core::Tensor features;
    std::vector<int32_t> labels;
    std::vector<NodeId> trainIdx;
    std::vector<NodeId> valIdx;
    std::vector<NodeId> testIdx;

    uint64_t featureBytes() const { return features.bytes(); }
};

/** The dglx data-loading entry point (Figure 3 workload). */
class DataLoader
{
  public:
    /** Build the full graph object + feature tensors from raw data. */
    static LoadedData load(const graph::Dataset &dataset);
};

/**
 * DGL's NeighborLoader over sampling::Loader: batch i samples around
 * seed_batches[i] on a worker's sampler clone.
 */
class NeighborLoader : public sampling::Loader<sampling::NeighborSample>
{
  public:
    NeighborLoader(const NeighborSampler &proto, core::Rng &rng,
                   std::vector<std::vector<NodeId>> seed_batches,
                   int num_workers, int prefetch_depth);
};

/** Loader of induced subgraphs (ClusterGCN, GraphSAINT). */
using InducedLoader = sampling::Loader<sampling::InducedSample>;

/** ClusterGCN loader: worker clones share the one-time partition. */
InducedLoader makeClusterLoader(const ClusterSampler &proto,
                                core::Rng &rng,
                                int32_t clusters_per_batch,
                                int num_batches, int num_workers,
                                int prefetch_depth);

/** GraphSAINT random-walk loader. */
InducedLoader makeSaintRwLoader(const SaintRwSampler &proto,
                                core::Rng &rng, int num_batches,
                                int num_workers, int prefetch_depth);

} // namespace dglx
} // namespace gnnbench

#endif // GNNBENCH_DGLX_DATALOADER_H
