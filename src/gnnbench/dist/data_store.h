/**
 * @file
 * In-memory feature data store for the modeled ranks.
 *
 * Mirrors the partitioned-IO layer of distributed GNN systems (LBANN's
 * partitioned_io_buffer, DistDGL's KVStore): every rank preloads the
 * feature rows of its owned nodes (resident for the whole run, no
 * traffic), and keeps a bounded cache of *halo* feature rows fetched
 * from their owner ranks.  Because node features are immutable across
 * epochs, a halo row fetched in epoch 1 can be served from the cache
 * in later epochs — the fetch traffic then drops to zero and the
 * scaling ablation's data-store hit rate climbs accordingly.  An
 * undersized cache (haloCapacityBytes) forces deterministic
 * least-recently-used eviction and re-fetching, which the accounting
 * tests pin down; the cache is a device::CacheTier, the LRU the
 * device hierarchy's tiers use.
 *
 * fetchHalo() is an epoch-granular bulk operation: it walks the
 * rank's haloIn set in ascending order, counts a hit or a miss per
 * row, groups the misses by owner rank into one modeled message per
 * (owner -> rank) pair, and returns the fully materialized halo
 * feature buffer (rows in haloIn order) for the layer-1 aggregation.
 * All accounting is sequential and deterministic: same shard, same
 * capacity -> bit-identical hit/miss/eviction counts at any thread
 * count.
 *
 * Metrics: datastore.hits, datastore.misses, datastore.evictions,
 * datastore.fetch.bytes, datastore.preload.bytes — per-instance
 * tallies are kept alongside the process registry.
 */

#ifndef GNNBENCH_DIST_DATA_STORE_H
#define GNNBENCH_DIST_DATA_STORE_H

#include <cstdint>
#include <limits>
#include <vector>

#include "gnnbench/core/tensor.h"
#include "gnnbench/device/hierarchy.h"
#include "gnnbench/dist/comm.h"
#include "gnnbench/dist/shard.h"

namespace gnnbench {
namespace dist {

class FeatureStore
{
  public:
    /**
     * @param features global numNodes x F feature matrix (borrowed;
     *        must outlive the store)
     * @param sharded  the shard layout (borrowed)
     * @param halo_capacity_bytes per-rank cap on cached halo rows;
     *        the default keeps every halo row resident
     */
    FeatureStore(const core::Tensor &features,
                 const ShardedGraph &sharded,
                 uint64_t halo_capacity_bytes =
                     std::numeric_limits<uint64_t>::max());

    /**
     * Materialize @p rank's halo feature buffer for this epoch,
     * fetching non-resident rows from their owners through @p comm
     * (nullable: accounting without a modeled network).  Returns the
     * nHalo x F buffer, rows in haloIn order.
     */
    const core::Tensor &fetchHalo(int rank, ModeledComm *comm);

    /// @name Accounting (this instance)
    /// @{
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t evictions() const { return evictions_; }
    uint64_t fetchBytes() const { return fetchBytes_; }
    uint64_t preloadBytes() const { return preloadBytes_; }

    /** hits / (hits + misses); 0 before any access. */
    double
    hitRate() const
    {
        const uint64_t total = hits_ + misses_;
        return total > 0
                   ? static_cast<double>(hits_) /
                         static_cast<double>(total)
                   : 0.0;
    }
    /// @}

    /** Bytes of one feature row. */
    uint64_t
    rowBytes() const
    {
        return static_cast<uint64_t>(features_->cols()) * 4;
    }

  private:
    struct RankCache
    {
        /** Halo working buffer, nHalo x F (haloIn row order); all
         *  rows valid after fetchHalo, but only those resident in
         *  `rows` are served from cache next epoch. */
        core::Tensor buffer;
        /** Resident halo rows keyed by haloIn position, one tile per
         *  feature row. */
        device::CacheTier rows;
    };

    const core::Tensor *features_;
    const ShardedGraph *sharded_;
    std::vector<RankCache> caches_;

    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t fetchBytes_ = 0;
    uint64_t preloadBytes_ = 0;
};

} // namespace dist
} // namespace gnnbench

#endif // GNNBENCH_DIST_DATA_STORE_H
