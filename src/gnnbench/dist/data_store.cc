#include "gnnbench/dist/data_store.h"

#include <cstring>

#include "gnnbench/profiling/metrics_registry.h"

namespace gnnbench {
namespace dist {

FeatureStore::FeatureStore(const core::Tensor &features,
                           const ShardedGraph &sharded,
                           uint64_t halo_capacity_bytes)
    : features_(&features), sharded_(&sharded)
{
    GNNBENCH_CHECK(halo_capacity_bytes == 0 ||
                       halo_capacity_bytes >= rowBytes(),
                   "FeatureStore: capacity below one feature row");
    caches_.reserve(sharded.ranks.size());
    for (const RankShard &shard : sharded.ranks) {
        const auto n_halo =
            static_cast<int64_t>(shard.haloIn.size());
        caches_.push_back(
            {core::Tensor(n_halo, features.cols()),
             device::CacheTier("halo", halo_capacity_bytes, rowBytes())});
        // Owned rows are preloaded into the rank's partition of the
        // (shared, immutable) feature matrix: charged once, never
        // fetched.
        preloadBytes_ +=
            static_cast<uint64_t>(shard.localNodes.size()) *
            rowBytes();
    }
    profiling::MetricsRegistry::global()
        .counter("datastore.preload.bytes")
        .add(preloadBytes_);
}

const core::Tensor &
FeatureStore::fetchHalo(int rank, ModeledComm *comm)
{
    GNNBENCH_CHECK(rank >= 0 &&
                       rank < static_cast<int>(caches_.size()),
                   "FeatureStore: bad rank");
    const RankShard &shard =
        sharded_->ranks[static_cast<size_t>(rank)];
    RankCache &cache = caches_[static_cast<size_t>(rank)];
    device::CacheTier &rows = cache.rows;
    const uint64_t row_bytes = rowBytes();

    const uint64_t hits_before = rows.hits();
    const uint64_t misses_before = rows.misses();
    const uint64_t evictions_before = rows.evictions();
    std::vector<uint64_t> bytes_from(
        static_cast<size_t>(sharded_->numRanks), 0);

    for (size_t h = 0; h < shard.haloIn.size(); ++h) {
        if (rows.access(h))
            continue;
        const NodeId u = shard.haloIn[h];
        std::memcpy(cache.buffer.row(static_cast<int64_t>(h)),
                    features_->row(u), row_bytes);
        bytes_from[static_cast<size_t>(sharded_->owner(u))] +=
            row_bytes;
        // Admit at MRU, evicting the LRU resident row over budget; a
        // zero budget caches nothing (the row stays valid in the
        // working buffer).
        rows.insert(h);
    }
    const uint64_t hits = rows.hits() - hits_before;
    const uint64_t misses = rows.misses() - misses_before;
    const uint64_t evictions = rows.evictions() - evictions_before;

    uint64_t fetch_bytes = 0;
    if (comm != nullptr)
        for (int src = 0; src < sharded_->numRanks; ++src)
            if (bytes_from[static_cast<size_t>(src)] > 0) {
                comm->message(src, rank,
                              bytes_from[static_cast<size_t>(src)],
                              "x");
                fetch_bytes +=
                    bytes_from[static_cast<size_t>(src)];
            }
    if (comm == nullptr)
        for (uint64_t b : bytes_from)
            fetch_bytes += b;

    hits_ += hits;
    misses_ += misses;
    evictions_ += evictions;
    fetchBytes_ += fetch_bytes;
    auto &reg = profiling::MetricsRegistry::global();
    reg.counter("datastore.hits").add(hits);
    reg.counter("datastore.misses").add(misses);
    reg.counter("datastore.fetch.bytes").add(fetch_bytes);
    reg.counter("datastore.evictions").add(evictions);
    return cache.buffer;
}

} // namespace dist
} // namespace gnnbench
