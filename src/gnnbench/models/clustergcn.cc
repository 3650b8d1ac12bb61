#include "gnnbench/models/clustergcn.h"

#include "gnnbench/models/driver.h"

namespace gnnbench {
namespace models {

namespace {

/** ClusterGCN's batches: unions of random clusters of a one-time
 *  METIS-style partition, clamped to small scaled datasets. */
template <typename FW>
class ClusterSampling : public driver::InducedSubgraphs<FW>
{
  public:
    ClusterSampling(const typename FW::Loaded &ld,
                    const graph::Dataset &dataset, const TrainConfig &cfg,
                    core::Rng rng, device::Session &session)
        : driver::InducedSubgraphs<FW>(ld, dataset.numNodes()),
          cfg_(cfg),
          numParts_(
              std::min<int32_t>(cfg.numParts, dataset.numNodes() / 2)),
          perBatch_(std::min(cfg.clustersPerBatch, numParts_)),
          sampler_(FW::template make<typename FW::ClusterSampler>(
              session, FW::graph(ld), numParts_, rng))
    {
    }

    int batchesPerEpoch() const { return std::max(1, numParts_ / perBatch_); }

    std::unique_ptr<typename FW::InducedLoader>
    makeLoader(core::Rng &rng, device::Session &session)
    {
        return FW::clusterLoader(*sampler_, rng, perBatch_,
                                 batchesPerEpoch(), cfg_, session);
    }

  private:
    const TrainConfig &cfg_;
    int32_t numParts_;
    int32_t perBatch_;
    std::unique_ptr<typename FW::ClusterSampler> sampler_;
};

} // namespace

TrainResult
trainClusterGcn(const graph::Dataset &dataset, const TrainConfig &cfg)
{
    GNNBENCH_CHECK(cfg.mode == RunMode::CPU ||
                       cfg.mode == RunMode::CPUGPU,
                   "ClusterGCN supports CPU and CPUGPU modes only");
    return driver::runPipeline<ClusterSampling>(dataset, cfg);
}

} // namespace models
} // namespace gnnbench
