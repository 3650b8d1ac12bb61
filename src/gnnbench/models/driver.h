/**
 * @file
 * The training driver behind every mini-batch pipeline: the paper's
 * Figure 2 loop (load the data, then per batch sample, move and
 * train), written once over a framework trait (Dglx, Pygx) and a
 * sampling family per model, defined in the model's .cc file.  The
 * driver owns the policy the pipelines share: which phase each step's
 * work is charged to, and how a batch's features reach the device in
 * each RunMode.  docs/extending.md walks through adding a model.
 */

#ifndef GNNBENCH_MODELS_DRIVER_H
#define GNNBENCH_MODELS_DRIVER_H

#include <memory>
#include <optional>

#include "gnnbench/core/ops.h"
#include "gnnbench/core/optim.h"
#include "gnnbench/dglx/dataloader.h"
#include "gnnbench/dglx/nn.h"
#include "gnnbench/models/pipeline.h"
#include "gnnbench/pygx/dataloader.h"
#include "gnnbench/pygx/nn.h"

namespace gnnbench {
namespace models {
namespace driver {

namespace ag = core::ag;
using sampling::SeedBatches;

/** DGL: the eager graph object, fused kernels, and samplers and
 *  loaders that take no session. */
struct Dglx
{
    static constexpr Framework kFramework = Framework::Dglx;
    using Loaded = dglx::LoadedData;
    using SageConv = dglx::SageConv;
    using GcnConv = dglx::GcnConv;
    using NeighborSampler = dglx::NeighborSampler;
    using NeighborLoader = dglx::NeighborLoader;
    using ClusterSampler = dglx::ClusterSampler;
    using SaintSampler = dglx::SaintRwSampler;
    using InducedLoader = dglx::InducedLoader;

    static Loaded
    load(const graph::Dataset &ds)
    {
        return dglx::DataLoader::load(ds);
    }
    static const dglx::Graph &graph(const Loaded &ld) { return *ld.graph; }

    static nn::KernelCtx
    kernelCtx(device::Session &session, device::DeviceType dev,
              const graph::Dataset &)
    {
        return {&session, dev, dglx::Costs{}};
    }

    /** Construct a sampler or loader. */
    template <typename T, typename... Args>
    static std::unique_ptr<T>
    make(device::Session &, Args &&...args)
    {
        return std::make_unique<T>(std::forward<Args>(args)...);
    }
    static std::unique_ptr<InducedLoader>
    clusterLoader(const ClusterSampler &sampler, core::Rng &rng,
                  int32_t per_batch, int batches, const TrainConfig &cfg,
                  device::Session &)
    {
        return std::make_unique<InducedLoader>(dglx::makeClusterLoader(
            sampler, rng, per_batch, batches, cfg.numWorkers,
            cfg.prefetchDepth));
    }
    static std::unique_ptr<InducedLoader>
    saintLoader(const SaintSampler &sampler, core::Rng &rng, int batches,
                const TrainConfig &cfg, device::Session &)
    {
        return std::make_unique<InducedLoader>(dglx::makeSaintRwLoader(
            sampler, rng, batches, cfg.numWorkers, cfg.prefetchDepth));
    }

    /**
     * An induced subgraph with its GCN normalization, recomputed per
     * batch like DGL does on sampled subgraphs.  The layers borrow the
     * vectors without owning them, so the step keeps this alive until
     * the backward pass has read them.
     */
    struct Induced
    {
        const sampling::InducedSample &smp;
        std::vector<float> norm;
        std::vector<float> self;
    };

    /** What the conv layers read from a batch. */
    template <typename Batch>
    static const Batch &layerInput(const Batch &batch) { return batch; }
    static Induced
    layerInput(const sampling::InducedSample &smp)
    {
        return {smp, nn::gcnNorm(smp.adj), nn::selfScale(smp.adj)};
    }

    /** Conv layer @p i over a batch's layer input or the full graph. */
    static ag::Var
    layer(SageConv &conv, const sampling::NeighborSample &smp, int i,
          const ag::Var &x, const nn::KernelCtx &ctx)
    {
        return conv.forwardBlock(smp.blocks[i], x, ctx);
    }
    static ag::Var
    layer(GcnConv &conv, const Induced &in, int, const ag::Var &x,
          const nn::KernelCtx &ctx)
    {
        return conv.forwardInduced(in.smp.adj, in.norm, in.self, x, ctx);
    }
    static ag::Var
    layer(dglx::Conv &conv, const dglx::Graph &g, int, const ag::Var &x,
          const nn::KernelCtx &ctx)
    {
        return conv.forward(g, x, ctx);
    }
};

/** PyG: the lazy Data object, gather/scatter message passing, and
 *  samplers and loaders that charge modeled interpreter time to the
 *  session. */
struct Pygx
{
    static constexpr Framework kFramework = Framework::Pygx;
    using Loaded = pygx::LoadedData;
    using SageConv = pygx::SageConv;
    using GcnConv = pygx::GcnConv;
    using NeighborSampler = pygx::NeighborSampler;
    using NeighborLoader = pygx::NeighborLoader;
    using ClusterSampler = pygx::ClusterSampler;
    using SaintSampler = pygx::SaintRwSampler;
    using InducedLoader = pygx::EdgeBatchLoader;

    static Loaded
    load(const graph::Dataset &ds)
    {
        return pygx::DataLoader::load(ds);
    }
    static const pygx::Data &graph(const Loaded &ld) { return *ld.data; }

    /** Materialization checks scale up to the full-size dataset. */
    static nn::KernelCtx
    kernelCtx(device::Session &session, device::DeviceType dev,
              const graph::Dataset &ds)
    {
        return {&session, dev, pygx::Costs{}, 1.0 / ds.scale};
    }

    /** Construct a sampler or loader; the session comes last. */
    template <typename T, typename... Args>
    static std::unique_ptr<T>
    make(device::Session &session, Args &&...args)
    {
        return std::make_unique<T>(std::forward<Args>(args)..., &session);
    }
    static std::unique_ptr<InducedLoader>
    clusterLoader(const ClusterSampler &sampler, core::Rng &rng,
                  int32_t per_batch, int batches, const TrainConfig &cfg,
                  device::Session &session)
    {
        return std::make_unique<InducedLoader>(pygx::makeClusterLoader(
            sampler, rng, per_batch, batches, cfg.numWorkers,
            cfg.prefetchDepth, &session));
    }
    static std::unique_ptr<InducedLoader>
    saintLoader(const SaintSampler &sampler, core::Rng &rng, int batches,
                const TrainConfig &cfg, device::Session &session)
    {
        return std::make_unique<InducedLoader>(pygx::makeSaintRwLoader(
            sampler, rng, batches, cfg.numWorkers, cfg.prefetchDepth,
            &session));
    }

    template <typename Batch>
    static const Batch &layerInput(const Batch &batch) { return batch; }

    static ag::Var
    layer(SageConv &conv, const pygx::NeighborBatch &batch, int i,
          const ag::Var &x, const nn::KernelCtx &ctx)
    {
        return conv.forwardLayer(batch.layers[i], x, ctx);
    }
    static ag::Var
    layer(GcnConv &conv, const pygx::EdgeBatch &batch, int,
          const ag::Var &x, const nn::KernelCtx &ctx)
    {
        return conv.forwardBatch(batch, x, ctx);
    }
    static ag::Var
    layer(pygx::Conv &conv, const pygx::Data &data, int, const ag::Var &x,
          const nn::KernelCtx &ctx)
    {
        return conv.forward(data, x, ctx);
    }
};

/**
 * The model every pipeline trains: two conv layers with a ReLU
 * between, optimized by Adam.  Layer 1 draws its weights first.
 */
template <typename FW, typename Conv>
struct TwoLayerModel
{
    Conv layer1;
    Conv layer2;
    core::Adam opt;

    TwoLayerModel(int64_t in_dim, int64_t hidden, int64_t out_dim,
                  core::Rng &wrng, float lr)
        : layer1(in_dim, hidden, wrng), layer2(hidden, out_dim, wrng),
          opt(params(), lr)
    {
    }

    std::vector<ag::Var>
    params() const
    {
        std::vector<ag::Var> all = layer1.params();
        all.insert(all.end(), layer2.params().begin(),
                   layer2.params().end());
        return all;
    }

    template <typename In>
    ag::Var
    forward(const In &in, core::Tensor x, const nn::KernelCtx &ctx)
    {
        ag::Var xv = ag::leaf(std::move(x), false);
        ag::Var h = ag::relu(FW::layer(layer1, in, 0, xv, ctx));
        return FW::layer(layer2, in, 1, h, ctx);
    }

    /** Backward from @p loss, then one Adam step. */
    void
    update(const ag::Var &loss)
    {
        opt.zeroGrad();
        ag::backward(loss);
        opt.step();
    }
};

/** Labels of a batch's output rows and the rows carrying loss (empty:
 *  every row). */
struct Supervision
{
    std::vector<int32_t> labels;
    std::vector<NodeId> lossRows;

    int64_t
    count() const
    {
        return static_cast<int64_t>(lossRows.empty() ? labels.size()
                                                     : lossRows.size());
    }
};

/**
 * Get a batch's feature rows to the training device.  Fetching counts
 * as sampling (the paper's definition of that phase) and host-to-
 * device copies as data movement.  Device-side gathers walk
 * @p region's cache tiers, so pre-loaded rows hit VRAM/L2 and UVA
 * rows pay a per-tile link transaction.  The phase scopes follow one
 * another and never nest: nesting would count a transfer twice.
 */
inline core::Tensor
fetchFeatures(const core::Tensor &features,
              const std::vector<NodeId> &nodes, uint64_t structure_bytes,
              const TrainConfig &cfg, bool preloaded,
              double prev_train_seconds,
              const device::FeatureRegion &region,
              device::Session &session, profiling::PhaseTracker &tracker)
{
    using profiling::Phase;
    core::Tensor x;
    auto gather_host = [&] {
        auto s = tracker.track(Phase::Sampling);
        x = core::ops::gatherRows(features, nodes);
    };
    auto gather_device = [&](device::Placement placement) {
        auto s = tracker.track(Phase::Sampling);
        core::Timer t;
        x = core::ops::gatherRows(features, nodes);
        session.excludeWall(t.elapsed());
        session.gatherFromRegion(region, nodes, placement);
    };
    switch (cfg.mode) {
      case RunMode::CPU:
        gather_host();
        break;
      case RunMode::CPUGPU:
        if (preloaded) {
            {
                auto s = tracker.track(Phase::DataMovement);
                session.transfer(structure_bytes);
            }
            gather_device(device::Placement::Device);
        } else {
            gather_host();
            auto s = tracker.track(Phase::DataMovement);
            const uint64_t bytes = static_cast<uint64_t>(nodes.size()) *
                                       features.cols() * 4 +
                                   structure_bytes;
            if (cfg.prefetch)
                session.transferOverlapped(bytes, prev_train_seconds);
            else
                session.transfer(bytes);
        }
        break;
      case RunMode::GPU:
        // Graph, features and the GPU sampler's output are resident.
        gather_device(device::Placement::Device);
        break;
      case RunMode::UVAGPU:
        gather_device(device::Placement::Host);
        break;
    }
    return x;
}

/**
 * The Figure 2 loop for one sampling family.  @p Family provides:
 *  - `Framework` (the trait) and `Conv` (the model's layer type);
 *  - a constructor `(ld, dataset, cfg, rng, session)` that builds the
 *    sampler, charged to sampling;
 *  - `batchesPerEpoch()` and `makeLoader(rng, session)`, the epoch's
 *    loader: anything with next() and workerBusySeconds();
 *  - `inputNodes(batch)`, the rows whose features the batch needs;
 *  - `supervise(batch, labels)`, or nothing when no row carries loss
 *    (the Training scope then opens and closes with no step).
 */
template <typename Family>
TrainResult
runPipeline(const graph::Dataset &dataset, const TrainConfig &cfg)
{
    using FW = typename Family::Framework;
    using profiling::Phase;
    device::Session session;
    profiling::PhaseTracker tracker(session);
    core::Rng rng(cfg.seed);

    auto charged = [&](Phase phase, auto f) {
        auto s = tracker.track(phase);
        return f();
    };

    const auto ld =
        charged(Phase::DataLoading, [&] { return FW::load(dataset); });
    const nn::KernelCtx ctx =
        FW::kernelCtx(session,
                      usesGpu(cfg.mode) ? device::DeviceType::GPU
                                        : device::DeviceType::CPU,
                      dataset);
    core::Rng wrng = rng.fork();
    TwoLayerModel<FW, typename Family::Conv> model(
        dataset.info.numFeatures, cfg.hiddenDim, dataset.info.numClasses,
        wrng, cfg.lr);

    // One-time movement: the initial model, plus graph and features
    // when pre-loading (mandatory for the GPU-resident sampler).  The
    // feature matrix is registered with the memory hierarchy so
    // gathers walk the cache tiers; pre-loading streams its tiles
    // into the VRAM tier up front.
    const bool preloaded =
        cfg.preloadFeatures || cfg.mode == RunMode::GPU;
    device::FeatureRegion region;
    if (usesGpu(cfg.mode)) {
        auto s = tracker.track(Phase::DataMovement);
        region = session.registerRegion(ld.features.rows(),
                                        ld.features.cols() * 4);
        uint64_t bytes = model.layer1.paramBytes() +
                         model.layer2.paramBytes();
        if (preloaded) {
            bytes += FW::graph(ld).structureBytes();
            session.preloadRegion(region);
        }
        session.transfer(bytes);
        const uint64_t resident =
            bytes + (preloaded ? ld.features.bytes() : 0);
        GNNBENCH_CHECK(session.reserveGpu(resident),
                       "graph + features exceed GPU memory; "
                       "pre-loading infeasible");
    }

    Family family = charged(Phase::Sampling, [&] {
        return Family(ld, dataset, cfg, rng.fork(), session);
    });

    std::vector<EpochStats> epochs;
    double prev_train_seconds = 0.0;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        EpochStats es;
        // Batch RNG streams depend only on the batch index, so
        // numWorkers (0 = inline) scales prefetch overlap without
        // changing results.
        auto loader = charged(Phase::Sampling, [&] {
            return family.makeLoader(rng, session);
        });
        for (int b = 0; b < family.batchesPerEpoch(); ++b) {
            auto batch = charged(Phase::Sampling, [&] {
                auto got = loader->next();
                GNNBENCH_CHECK(got.has_value(),
                               "prefetch loader exhausted early");
                return std::move(*got);
            });
            core::Tensor x = fetchFeatures(
                ld.features, family.inputNodes(batch),
                batch.structureBytes(), cfg, preloaded,
                prev_train_seconds, region, session, tracker);

            const auto t0 = session.snapshot();
            {
                auto s = tracker.track(Phase::Training);
                if (auto sup = family.supervise(batch, ld.labels)) {
                    const auto &in = FW::layerInput(batch);
                    ag::Var out = model.forward(in, std::move(x), ctx);
                    ag::Var lp = ag::logSoftmax(out);
                    const int64_t rows = sup->count();
                    es.correct += core::ops::countCorrect(
                        out->value, sup->labels, sup->lossRows);
                    es.total += rows;
                    ag::Var loss =
                        ag::nllLoss(lp, std::move(sup->labels),
                                    std::move(sup->lossRows));
                    es.loss +=
                        loss->value(0, 0) * static_cast<double>(rows);
                    model.update(loss);
                }
            }
            prev_train_seconds =
                device::Session::virtualSeconds(t0, session.snapshot());
        }
        chargeWorkerSampling(tracker, *loader);
        es.loss /= std::max<int64_t>(es.total, 1);
        epochs.push_back(es);
    }

    TrainResult result = finalizeResult(FW::kFramework, cfg.mode,
                                        tracker, power::PowerSpec{});
    result.epochs = std::move(epochs);
    return result;
}

/** runPipeline for the framework @p cfg selects. */
template <template <typename> class Family>
TrainResult
runPipeline(const graph::Dataset &dataset, const TrainConfig &cfg)
{
    if (cfg.framework == Framework::Dglx)
        return runPipeline<Family<Dglx>>(dataset, cfg);
    return runPipeline<Family<Pygx>>(dataset, cfg);
}

/** What ClusterGCN and GraphSAINT share: induced subgraphs trained by
 *  two GCN layers, with loss on the subgraph's training nodes. */
template <typename FW>
class InducedSubgraphs
{
  public:
    using Framework = FW;
    using Conv = typename FW::GcnConv;

    InducedSubgraphs(const typename FW::Loaded &ld, NodeId num_nodes)
        : trainMask_(num_nodes, false)
    {
        for (NodeId v : ld.trainIdx)
            trainMask_[v] = true;
    }

    template <typename Batch>
    static const std::vector<NodeId> &
    inputNodes(const Batch &batch)
    {
        return batch.nodes;
    }

    template <typename Batch>
    std::optional<Supervision>
    supervise(const Batch &batch, const std::vector<int32_t> &labels) const
    {
        Supervision sup;
        sup.labels.resize(batch.nodes.size());
        for (size_t i = 0; i < batch.nodes.size(); ++i) {
            sup.labels[i] = labels[batch.nodes[i]];
            if (trainMask_[batch.nodes[i]])
                sup.lossRows.push_back(static_cast<NodeId>(i));
        }
        if (sup.lossRows.empty())
            return std::nullopt;
        return sup;
    }

  private:
    std::vector<bool> trainMask_;
};

} // namespace driver
} // namespace models
} // namespace gnnbench

#endif // GNNBENCH_MODELS_DRIVER_H
