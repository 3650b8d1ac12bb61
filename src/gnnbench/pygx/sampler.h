/**
 * @file
 * Samplers of the pygx framework, written the way PyG v2.0 executed
 * them: Python-level loops over per-node lists.
 *
 * Each sampler (a) first forces the CSR-to-CSC conversion that PyG's
 * loaders require ("quite slow on large datasets" — Observation 2),
 * (b) uses hash-map relabeling and per-node heap allocation instead
 * of the flat scratch arrays dglx uses, and (c) charges the modeled
 * CPython dispatch cost of its interpreted inner loops through
 * PyOverheadModel.  The algorithms and outputs are identical to the
 * dglx samplers; only the machinery differs — which is the point.
 */

#ifndef GNNBENCH_PYGX_SAMPLER_H
#define GNNBENCH_PYGX_SAMPLER_H

#include <vector>

#include "gnnbench/core/rng.h"
#include "gnnbench/graph/partition.h"
#include "gnnbench/pygx/batch.h"
#include "gnnbench/pygx/data.h"

namespace gnnbench {
namespace pygx {

/** PyG NeighborLoader-style neighborhood sampler. */
class NeighborSampler
{
  public:
    /**
     * Construction performs the CSC conversion (charged to the
     * session as real work — it is real work).
     * @param fanouts input-side layer first, e.g. {25, 10}.
     */
    NeighborSampler(const Data &data, std::vector<int> fanouts,
                    core::Rng rng, device::Session *session);

    /** Sample the layered edge batches for one batch of seeds. */
    NeighborBatch sample(const std::vector<NodeId> &seeds);

    const std::vector<int> &fanouts() const { return fanouts_; }

    /**
     * Clone with an independent RNG stream.  Prefetch workers pass a
     * null session and drain the modeled overhead on the consumer via
     * takeModeledOverheadSeconds().
     */
    NeighborSampler
    withRng(core::Rng rng, device::Session *session) const
    {
        return NeighborSampler(data_, fanouts_, rng, session);
    }

    /** Replace the RNG stream in place (per-batch loader reseeding). */
    void reseed(core::Rng rng) { rng_ = rng; }

    /** Modeled interpreter seconds accumulated while detached. */
    double
    takeModeledOverheadSeconds() const
    {
        return overhead_.drainAccumulated();
    }

  private:
    const Data &data_;
    std::vector<int> fanouts_;
    core::Rng rng_;
    device::Session *session_;
    PyOverheadModel overhead_;
    /** Sampled *global* neighbor ids, one slot per kept edge. */
    std::vector<NodeId> sampledGlobal_;
};

/** PyG ClusterLoader-style sampler. */
class ClusterSampler
{
  public:
    /** Partitions on construction (ClusterData's METIS step). */
    ClusterSampler(const Data &data, int32_t num_parts, core::Rng rng,
                   device::Session *session);

    /** Union random clusters and return their induced edge_index. */
    EdgeBatch sample(int32_t clusters_per_batch);

    int32_t numParts() const { return partition_.numParts; }

    /** Clone sharing the partition, with its own RNG stream. */
    ClusterSampler
    withRng(core::Rng rng, device::Session *session) const
    {
        return ClusterSampler(*this, rng, session);
    }

    /** Replace the RNG stream in place (per-batch loader reseeding). */
    void reseed(core::Rng rng) { rng_ = rng; }

    /** Modeled interpreter seconds accumulated while detached. */
    double
    takeModeledOverheadSeconds() const
    {
        return overhead_.drainAccumulated();
    }

  private:
    ClusterSampler(const ClusterSampler &other, core::Rng rng,
                   device::Session *session);

    const Data &data_;
    core::Rng rng_;
    device::Session *session_;
    PyOverheadModel overhead_;
    graph::PartitionResult partition_;
    std::vector<std::vector<NodeId>> members_;
    /** Dense scratch for the C-extension extraction path. */
    std::vector<NodeId> localScratch_;
};

/** PyG GraphSAINTNodeSampler-style sampler (degree-proportional). */
class SaintNodeSampler
{
  public:
    SaintNodeSampler(const Data &data, NodeId budget, core::Rng rng,
                     device::Session *session);

    EdgeBatch sample();

    /** Clone sharing the CDF, with its own RNG stream. */
    SaintNodeSampler
    withRng(core::Rng rng, device::Session *session) const
    {
        return SaintNodeSampler(*this, rng, session);
    }

    /** Replace the RNG stream in place (per-batch loader reseeding). */
    void reseed(core::Rng rng) { rng_ = rng; }

    /** Modeled interpreter seconds accumulated while detached. */
    double
    takeModeledOverheadSeconds() const
    {
        return overhead_.drainAccumulated();
    }

  private:
    SaintNodeSampler(const SaintNodeSampler &other, core::Rng rng,
                     device::Session *session);

    const Data &data_;
    NodeId budget_;
    core::Rng rng_;
    device::Session *session_;
    PyOverheadModel overhead_;
    std::vector<double> degreeCdf_;
    std::vector<NodeId> localScratch_;
};

/** PyG GraphSAINTEdgeSampler-style sampler. */
class SaintEdgeSampler
{
  public:
    SaintEdgeSampler(const Data &data, EdgeId budget, core::Rng rng,
                     device::Session *session);

    EdgeBatch sample();

    /** Clone sharing the CDF, with its own RNG stream. */
    SaintEdgeSampler
    withRng(core::Rng rng, device::Session *session) const
    {
        return SaintEdgeSampler(*this, rng, session);
    }

    /** Replace the RNG stream in place (per-batch loader reseeding). */
    void reseed(core::Rng rng) { rng_ = rng; }

    /** Modeled interpreter seconds accumulated while detached. */
    double
    takeModeledOverheadSeconds() const
    {
        return overhead_.drainAccumulated();
    }

  private:
    SaintEdgeSampler(const SaintEdgeSampler &other, core::Rng rng,
                     device::Session *session);

    const Data &data_;
    EdgeId budget_;
    core::Rng rng_;
    device::Session *session_;
    PyOverheadModel overhead_;
    std::vector<double> edgeCdf_;
    std::vector<NodeId> localScratch_;
};

/** PyG GraphSAINTRandomWalkSampler-style sampler. */
class SaintRwSampler
{
  public:
    SaintRwSampler(const Data &data, int32_t num_roots,
                   int32_t walk_length, core::Rng rng,
                   device::Session *session);

    EdgeBatch sample();

    /** Clone with an independent RNG stream (prefetch workers). */
    SaintRwSampler
    withRng(core::Rng rng, device::Session *session) const
    {
        return SaintRwSampler(data_, numRoots_, walkLength_, rng,
                              session);
    }

    /** Replace the RNG stream in place (per-batch loader reseeding). */
    void reseed(core::Rng rng) { rng_ = rng; }

    /** Modeled interpreter seconds accumulated while detached. */
    double
    takeModeledOverheadSeconds() const
    {
        return overhead_.drainAccumulated();
    }

  private:
    const Data &data_;
    int32_t numRoots_;
    int32_t walkLength_;
    core::Rng rng_;
    device::Session *session_;
    PyOverheadModel overhead_;
    /** Dense scratch for the C-extension extraction path. */
    std::vector<NodeId> localScratch_;
};

} // namespace pygx
} // namespace gnnbench

#endif // GNNBENCH_PYGX_SAMPLER_H
