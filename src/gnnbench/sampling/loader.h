/**
 * @file
 * The prefetching loader both frameworks feed training through:
 * torch.utils.data.DataLoader's num_workers model, written once.
 *
 * DGL and PyG both drive their samplers from torch's DataLoader, so
 * the loader is shared machinery here and only the samplers are
 * framework-specific (the paper places PyG's sampling loss in its
 * samplers, Observation 2, not in the loader).  dglx/dataloader.h and
 * pygx/dataloader.h name the six loaders; each is one makeLoader()
 * call with its own salt and trace-lane tag.
 *
 * Determinism: makeLoader() draws one base seed from the caller's RNG
 * and clones the sampler prototype once per worker.  Before batch i
 * the clone is reseeded from chunkSeed(base, salt, i), so batch i is
 * a pure function of (base, salt, i) — never of the worker that runs
 * it — and the delivered batches are bit-identical for any
 * num_workers, 0 included (num_workers == 0 samples inline on the
 * consumer thread).  Delivery follows batch order (Prefetcher).
 *
 * Modeled time: device::Session is single-threaded, so a sampler that
 * charges modeled interpreter seconds (pygx) is cloned with a null
 * session and accumulates them instead.  The seconds ride the queue
 * with their batch (Timed) and Loader::next() charges them on the
 * consumer thread at delivery — when the training loop would have
 * waited for the worker.  The charge is the same for any worker count.
 */

#ifndef GNNBENCH_SAMPLING_LOADER_H
#define GNNBENCH_SAMPLING_LOADER_H

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gnnbench/check/validate.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/core/rng.h"
#include "gnnbench/device/session.h"
#include "gnnbench/sampling/prefetch.h"

namespace gnnbench {
namespace sampling {

/** The seed nodes of each mini-batch, in delivery order. */
using SeedBatches = std::vector<std::vector<NodeId>>;

/** A batch and the modeled seconds its production cost. */
template <typename Batch>
struct Timed
{
    Batch batch;
    double modeledSeconds = 0.0;
};

/** A batch sampled around given seed nodes (neighbor batches). */
template <typename B>
concept SeededBatch = requires(const B &b) { b.seeds; };

/** A sampler that models interpreter time (pygx): a clone takes a
 *  null session and hands back the seconds it accumulated. */
template <typename S>
concept ModeledSampler = requires(const S &s) {
    s.withRng(core::Rng(0), nullptr);
    s.takeModeledOverheadSeconds();
};

/**
 * A prefetching loader over Prefetcher<Timed<Batch>>: inline when
 * num_workers == 0, threaded otherwise.  Destroying it mid-epoch
 * drains and joins its workers.
 */
template <typename Batch>
class Loader
{
  public:
    using Producer = typename Prefetcher<Timed<Batch>>::Producer;

    /**
     * @param producers one per worker; inline mode runs the first.
     * @param session charged each batch's modeled seconds at
     *        delivery; may be null.
     * @param seeds batch i's seed nodes, for loaders over seed
     *        batches (else null): seedBatches() returns them and,
     *        under check::enabled(), next() checks delivery order
     *        with them.
     */
    Loader(std::vector<Producer> producers, int64_t num_batches,
           int num_workers, int depth, std::string lane_tag,
           device::Session *session,
           std::shared_ptr<const SeedBatches> seeds)
        : session_(session), seeds_(std::move(seeds)),
          prefetcher_(
              num_workers == 0
                  ? std::make_unique<Prefetcher<Timed<Batch>>>(
                        std::move(producers.front()), num_batches,
                        std::move(lane_tag))
                  : std::make_unique<Prefetcher<Timed<Batch>>>(
                        std::move(producers), num_batches, depth,
                        std::move(lane_tag)))
    {
    }

    /** Seed batches in delivery order (loaders over seed batches). */
    const SeedBatches &
    seedBatches() const
        requires SeededBatch<Batch>
    {
        return *seeds_;
    }

    /** Next batch in order, its modeled seconds charged to the
     *  session; empty when exhausted. */
    std::optional<Batch>
    next()
    {
        std::optional<Timed<Batch>> t = prefetcher_->next();
        if (!t)
            return std::nullopt;
        if (session_)
            session_->chargeCpuOverhead(t->modeledSeconds);
        if constexpr (SeededBatch<Batch>) {
            // Loader seam: the pipeline must deliver batches in
            // serial seed-batch order no matter which worker finished
            // first.
            if (seeds_ && check::enabled() &&
                t->batch.seeds !=
                    (*seeds_)[static_cast<size_t>(delivered_)])
                check::require(check::Result::fail(
                    "neighbor loader delivered batch out of order (at "
                    "position " + std::to_string(delivered_) + ")"));
        }
        ++delivered_;
        return std::move(t->batch);
    }

    /** Drain and join workers (idempotent). */
    void shutdown() { prefetcher_->shutdown(); }

    /** Per-worker sampling busy seconds (joins workers first). */
    const std::vector<double> &
    workerBusySeconds()
    {
        return prefetcher_->workerBusySeconds();
    }

    /** Aggregate prefetch-queue statistics. */
    const core::parallel::QueueStats &
    queueStats() const
    {
        return prefetcher_->queueStats();
    }

  private:
    device::Session *session_;
    std::shared_ptr<const SeedBatches> seeds_;
    int64_t delivered_ = 0;
    std::unique_ptr<Prefetcher<Timed<Batch>>> prefetcher_;
};

/**
 * A loader of @p n batches drawn by @p draw(clone, i) on per-worker
 * clones of @p proto, each reseeded before batch i from
 * chunkSeed(base, @p salt, i), where base is the one draw this makes
 * from @p rng.
 *
 * @param lane_tag trace-lane prefix of the workers ("<tag>/w<k>").
 */
template <typename Sampler, typename Draw>
auto
makeLoader(const Sampler &proto, core::Rng &rng, uint64_t salt,
           int64_t n, int num_workers, int depth, std::string lane_tag,
           device::Session *session, Draw draw,
           std::shared_ptr<const SeedBatches> seeds = nullptr)
{
    using Batch = std::invoke_result_t<Draw &, Sampler &, int64_t>;
    GNNBENCH_CHECK(num_workers >= 0, "negative worker count");
    const uint64_t base = rng.next();
    std::vector<typename Loader<Batch>::Producer> producers;
    for (int w = 0; w < std::max(num_workers, 1); ++w) {
        std::shared_ptr<Sampler> sampler;
        if constexpr (ModeledSampler<Sampler>)
            sampler = std::make_shared<Sampler>(
                proto.withRng(core::Rng(base), nullptr));
        else
            sampler =
                std::make_shared<Sampler>(proto.withRng(core::Rng(base)));
        producers.push_back([sampler, draw, base, salt](int64_t i) {
            sampler->reseed(core::Rng(core::parallel::chunkSeed(
                base, salt, static_cast<uint64_t>(i))));
            Timed<Batch> t{draw(*sampler, i)};
            if constexpr (ModeledSampler<Sampler>)
                t.modeledSeconds = sampler->takeModeledOverheadSeconds();
            return t;
        });
    }
    return Loader<Batch>(std::move(producers), n, num_workers, depth,
                         std::move(lane_tag), session, std::move(seeds));
}

/** A loader over seed batches: batch i samples around
 *  @p seed_batches[i]. */
template <typename Sampler>
auto
makeLoader(const Sampler &proto, core::Rng &rng, uint64_t salt,
           SeedBatches seed_batches, int num_workers, int depth,
           std::string lane_tag, device::Session *session)
{
    auto seeds = std::make_shared<const SeedBatches>(
        std::move(seed_batches));
    return makeLoader(
        proto, rng, salt, static_cast<int64_t>(seeds->size()),
        num_workers, depth, std::move(lane_tag), session,
        [seeds](Sampler &s, int64_t i) {
            return s.sample((*seeds)[static_cast<size_t>(i)]);
        },
        seeds);
}

} // namespace sampling
} // namespace gnnbench

#endif // GNNBENCH_SAMPLING_LOADER_H
