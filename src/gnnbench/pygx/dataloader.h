/**
 * @file
 * pygx data loader.
 *
 * PyG's loader only wraps the raw arrays in a lightweight Data object
 * (edge_index + tensors), deferring format conversion to whoever
 * needs it — the reason its loader wins Figure 3.
 */

#ifndef GNNBENCH_PYGX_DATALOADER_H
#define GNNBENCH_PYGX_DATALOADER_H

#include <memory>

#include "gnnbench/graph/datasets.h"
#include "gnnbench/pygx/data.h"
#include "gnnbench/pygx/sampler.h"
#include "gnnbench/sampling/loader.h"

namespace gnnbench {
namespace pygx {

/** A dataset materialized as pygx-native objects. */
struct LoadedData
{
    std::shared_ptr<Data> data;
    core::Tensor features;
    std::vector<int32_t> labels;
    std::vector<NodeId> trainIdx;
    std::vector<NodeId> valIdx;
    std::vector<NodeId> testIdx;

    uint64_t featureBytes() const { return features.bytes(); }
};

/** The pygx data-loading entry point (Figure 3 workload). */
class DataLoader
{
  public:
    /** Wrap raw arrays in a Data object (cheap, lazy formats). */
    static LoadedData load(const graph::Dataset &dataset);
};

/**
 * PyG's NeighborLoader over sampling::Loader: batch i samples around
 * seed_batches[i] on a worker's null-session sampler clone, and
 * next() charges its modeled interpreter seconds to @p session.
 */
class NeighborLoader : public sampling::Loader<NeighborBatch>
{
  public:
    NeighborLoader(const NeighborSampler &proto, core::Rng &rng,
                   std::vector<std::vector<NodeId>> seed_batches,
                   int num_workers, int prefetch_depth,
                   device::Session *session);
};

/** Loader of EdgeBatch subgraphs (ClusterGCN, GraphSAINT). */
using EdgeBatchLoader = sampling::Loader<EdgeBatch>;

/** ClusterGCN loader: worker clones share the one-time partition. */
EdgeBatchLoader makeClusterLoader(const ClusterSampler &proto,
                                  core::Rng &rng,
                                  int32_t clusters_per_batch,
                                  int num_batches, int num_workers,
                                  int prefetch_depth,
                                  device::Session *session);

/** GraphSAINT random-walk loader. */
EdgeBatchLoader makeSaintRwLoader(const SaintRwSampler &proto,
                                  core::Rng &rng, int num_batches,
                                  int num_workers, int prefetch_depth,
                                  device::Session *session);

} // namespace pygx
} // namespace gnnbench

#endif // GNNBENCH_PYGX_DATALOADER_H
