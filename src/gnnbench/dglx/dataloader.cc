#include "gnnbench/dglx/dataloader.h"

namespace gnnbench {
namespace dglx {

LoadedData
DataLoader::load(const graph::Dataset &dataset)
{
    LoadedData out;
    // Eager DGLGraph-style construction: COO copy + CSR + CSC +
    // degree arrays + structural validation.
    out.graph = std::make_shared<Graph>(dataset.graph);
    out.graph->csr().validate();
    out.graph->csc().validate();
    out.features = dataset.features.clone();
    out.labels = dataset.labels;
    out.trainIdx = dataset.trainIdx;
    out.valIdx = dataset.valIdx;
    out.testIdx = dataset.testIdx;
    return out;
}

namespace {

// Per-loader-type salts for chunkSeed (see sampling/loader.h).
constexpr uint64_t kNeighborSalt = 0x646E6269;  // "dnbi"
constexpr uint64_t kClusterSalt = 0x64636C75;   // "dclu"
constexpr uint64_t kSaintSalt = 0x64737274;     // "dsrt"

} // namespace

NeighborLoader::NeighborLoader(
    const NeighborSampler &proto, core::Rng &rng,
    std::vector<std::vector<NodeId>> seed_batches, int num_workers,
    int prefetch_depth)
    : Loader(sampling::makeLoader(proto, rng, kNeighborSalt,
                                  std::move(seed_batches), num_workers,
                                  prefetch_depth, "dgl-neighbor",
                                  nullptr))
{
}

InducedLoader
makeClusterLoader(const ClusterSampler &proto, core::Rng &rng,
                  int32_t clusters_per_batch, int num_batches,
                  int num_workers, int prefetch_depth)
{
    return sampling::makeLoader(
        proto, rng, kClusterSalt, num_batches, num_workers,
        prefetch_depth, "dgl-cluster", nullptr,
        [clusters_per_batch](ClusterSampler &s, int64_t) {
            return s.sample(clusters_per_batch);
        });
}

InducedLoader
makeSaintRwLoader(const SaintRwSampler &proto, core::Rng &rng,
                  int num_batches, int num_workers,
                  int prefetch_depth)
{
    return sampling::makeLoader(
        proto, rng, kSaintSalt, num_batches, num_workers,
        prefetch_depth, "dgl-saint", nullptr,
        [](SaintRwSampler &s, int64_t) { return s.sample(); });
}

} // namespace dglx
} // namespace gnnbench
