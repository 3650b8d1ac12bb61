#include "gnnbench/pygx/dataloader.h"

namespace gnnbench {
namespace pygx {

LoadedData
DataLoader::load(const graph::Dataset &dataset)
{
    LoadedData out;
    out.data = std::make_shared<Data>(dataset.graph);
    out.features = dataset.features.clone();
    out.labels = dataset.labels;
    out.trainIdx = dataset.trainIdx;
    out.valIdx = dataset.valIdx;
    out.testIdx = dataset.testIdx;
    return out;
}

namespace {

// Per-loader-type salts for chunkSeed (see sampling/loader.h).
constexpr uint64_t kNeighborSalt = 0x706E6269;  // "pnbi"
constexpr uint64_t kClusterSalt = 0x70636C75;   // "pclu"
constexpr uint64_t kSaintSalt = 0x70737274;     // "psrt"

} // namespace

NeighborLoader::NeighborLoader(
    const NeighborSampler &proto, core::Rng &rng,
    std::vector<std::vector<NodeId>> seed_batches, int num_workers,
    int prefetch_depth, device::Session *session)
    : Loader(sampling::makeLoader(proto, rng, kNeighborSalt,
                                  std::move(seed_batches), num_workers,
                                  prefetch_depth, "pyg-neighbor",
                                  session))
{
}

EdgeBatchLoader
makeClusterLoader(const ClusterSampler &proto, core::Rng &rng,
                  int32_t clusters_per_batch, int num_batches,
                  int num_workers, int prefetch_depth,
                  device::Session *session)
{
    return sampling::makeLoader(
        proto, rng, kClusterSalt, num_batches, num_workers,
        prefetch_depth, "pyg-cluster", session,
        [clusters_per_batch](ClusterSampler &s, int64_t) {
            return s.sample(clusters_per_batch);
        });
}

EdgeBatchLoader
makeSaintRwLoader(const SaintRwSampler &proto, core::Rng &rng,
                  int num_batches, int num_workers,
                  int prefetch_depth, device::Session *session)
{
    return sampling::makeLoader(
        proto, rng, kSaintSalt, num_batches, num_workers,
        prefetch_depth, "pyg-saint", session,
        [](SaintRwSampler &s, int64_t) { return s.sample(); });
}

} // namespace pygx
} // namespace gnnbench
