#include "gnnbench/models/graphsaint.h"

#include "gnnbench/models/driver.h"

namespace gnnbench {
namespace models {

namespace {

/** GraphSAINT's batches: subgraphs induced by random walks from
 *  random roots, enough per epoch to cover every node once in
 *  expectation. */
template <typename FW>
class SaintSampling : public driver::InducedSubgraphs<FW>
{
  public:
    SaintSampling(const typename FW::Loaded &ld,
                  const graph::Dataset &dataset, const TrainConfig &cfg,
                  core::Rng rng, device::Session &session)
        : driver::InducedSubgraphs<FW>(ld, dataset.numNodes()),
          cfg_(cfg),
          // The paper's root count, clamped to small scaled datasets.
          roots_(std::min<int32_t>(
              cfg.saintRoots,
              std::max<NodeId>(1, dataset.numNodes() / 4))),
          batches_(saintBatchesPerEpoch(dataset.numNodes(), roots_,
                                        cfg.saintWalkLength)),
          sampler_(FW::template make<typename FW::SaintSampler>(
              session, FW::graph(ld), roots_, cfg.saintWalkLength, rng))
    {
    }

    int batchesPerEpoch() const { return batches_; }

    std::unique_ptr<typename FW::InducedLoader>
    makeLoader(core::Rng &rng, device::Session &session)
    {
        return FW::saintLoader(*sampler_, rng, batches_, cfg_, session);
    }

  private:
    const TrainConfig &cfg_;
    int32_t roots_;
    int batches_;
    std::unique_ptr<typename FW::SaintSampler> sampler_;
};

} // namespace

TrainResult
trainGraphSaint(const graph::Dataset &dataset, const TrainConfig &cfg)
{
    GNNBENCH_CHECK(cfg.mode == RunMode::CPU ||
                       cfg.mode == RunMode::CPUGPU,
                   "GraphSAINT supports CPU and CPUGPU modes only");
    return driver::runPipeline<SaintSampling>(dataset, cfg);
}

} // namespace models
} // namespace gnnbench
