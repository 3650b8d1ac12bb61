#include "gnnbench/models/graphsage.h"

#include "gnnbench/dglx/gpu_sampler.h"
#include "gnnbench/models/driver.h"

namespace gnnbench {
namespace models {

namespace {

using driver::SeedBatches;

/** What GraphSAGE's samplers share: shuffled batches of training
 *  seeds, one sampled layer per conv, every seed carrying loss. */
template <typename FW>
class SeedBatching
{
  public:
    using Framework = FW;
    using Conv = typename FW::SageConv;

    SeedBatching(const typename FW::Loaded &ld, const TrainConfig &cfg)
        : cfg_(cfg), trainIdx_(ld.trainIdx)
    {
    }

    int
    batchesPerEpoch() const
    {
        return static_cast<int>(
            (trainIdx_.size() + cfg_.batchSize - 1) / cfg_.batchSize);
    }

    template <typename Batch>
    static const std::vector<NodeId> &
    inputNodes(const Batch &batch)
    {
        return batch.inputNodes();
    }

    template <typename Batch>
    static std::optional<driver::Supervision>
    supervise(const Batch &batch, const std::vector<int32_t> &labels)
    {
        driver::Supervision sup;
        for (NodeId v : batch.seeds)
            sup.labels.push_back(labels[v]);
        return sup;
    }

  protected:
    SeedBatches
    shuffledSeeds(core::Rng &rng) const
    {
        return makeBatches(trainIdx_, cfg_.batchSize, rng);
    }

    const TrainConfig &cfg_;

  private:
    const std::vector<NodeId> &trainIdx_;
};

/** CPU sampling behind the framework's prefetching loader. */
template <typename FW>
class NeighborSampling : public SeedBatching<FW>
{
  public:
    NeighborSampling(const typename FW::Loaded &ld,
                     const graph::Dataset &, const TrainConfig &cfg,
                     core::Rng rng, device::Session &session)
        : SeedBatching<FW>(ld, cfg),
          sampler_(FW::template make<typename FW::NeighborSampler>(
              session, FW::graph(ld), cfg.fanouts, rng))
    {
    }

    std::unique_ptr<typename FW::NeighborLoader>
    makeLoader(core::Rng &rng, device::Session &session)
    {
        return FW::template make<typename FW::NeighborLoader>(
            session, *sampler_, rng, this->shuffledSeeds(rng),
            this->cfg_.numWorkers, this->cfg_.prefetchDepth);
    }

  private:
    std::unique_ptr<typename FW::NeighborSampler> sampler_;
};

/**
 * DGL's GPU sampler (GPU and UVAGPU modes): each seed batch is
 * sampled inline on the modeled device, with no loader and no worker
 * time.  Its blocks are built in device memory, so fetchFeatures
 * moves no structure in these modes.
 */
class GpuNeighborSampling : public SeedBatching<driver::Dglx>
{
  public:
    /** The epoch's seed batches, sampled one by one. */
    class Loader
    {
      public:
        Loader(dglx::GpuNeighborSampler &sampler, SeedBatches seeds)
            : sampler_(sampler), seeds_(std::move(seeds))
        {
        }

        std::optional<sampling::NeighborSample>
        next()
        {
            if (next_ == seeds_.size())
                return std::nullopt;
            return sampler_.sample(seeds_[next_++]);
        }

        std::vector<double> workerBusySeconds() const { return {}; }

      private:
        dglx::GpuNeighborSampler &sampler_;
        SeedBatches seeds_;
        size_t next_ = 0;
    };

    GpuNeighborSampling(const dglx::LoadedData &ld,
                        const graph::Dataset &, const TrainConfig &cfg,
                        core::Rng rng, device::Session &session)
        : SeedBatching(ld, cfg),
          sampler_(*ld.graph, cfg.fanouts, rng,
                   cfg.mode == RunMode::GPU
                       ? dglx::GpuNeighborSampler::Mode::GpuResident
                       : dglx::GpuNeighborSampler::Mode::Uva,
                   session)
    {
    }

    std::unique_ptr<Loader>
    makeLoader(core::Rng &rng, device::Session &)
    {
        return std::make_unique<Loader>(sampler_, shuffledSeeds(rng));
    }

  private:
    dglx::GpuNeighborSampler sampler_;
};

} // namespace

TrainResult
trainGraphSage(const graph::Dataset &dataset, const TrainConfig &cfg)
{
    // DGL's GPU sampler draws the batches of Figures 20-21.
    const bool gpu_sampled =
        cfg.mode == RunMode::GPU || cfg.mode == RunMode::UVAGPU;
    GNNBENCH_CHECK(cfg.framework == Framework::Dglx || !gpu_sampled,
                   "PyG has no GPU/UVA sampler (paper Section 4.3)");
    GNNBENCH_CHECK(cfg.fanouts.size() == 2,
                   "GraphSAGE model uses two layers / two fanouts");
    if (gpu_sampled)
        return driver::runPipeline<GpuNeighborSampling>(dataset, cfg);
    return driver::runPipeline<NeighborSampling>(dataset, cfg);
}

} // namespace models
} // namespace gnnbench
