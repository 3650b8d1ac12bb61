#include "gnnbench/pygx/sampler.h"

#include <unordered_map>

#include "gnnbench/check/validate_sampling.h"
#include "gnnbench/core/parallel.h"

namespace gnnbench {
namespace pygx {

using core::parallel::chunkSeed;
using core::parallel::parallelFor;
using core::parallel::parallelForChunks;

namespace {

constexpr int64_t kDstChunk = 64;   // destination nodes per chunk
constexpr int64_t kRootChunk = 64;  // random-walk roots per chunk
constexpr int64_t kDrawChunk = 256; // i.i.d. CDF draws per chunk
constexpr int64_t kNodeChunk = 64;  // induced-subgraph nodes per chunk

/**
 * C-extension-style induced extraction (PyG routes ClusterLoader and
 * SAINT subgraph construction through torch / torch_sparse C++ ops):
 * flat dense relabeling array, edge_index output.  Only the Python
 * glue around the call is charged.
 */
EdgeBatch
extractInducedFast(const graph::CsrGraph &csc,
                   std::vector<NodeId> nodes,
                   std::vector<NodeId> &local_scratch,
                   const PyOverheadModel &overhead,
                   device::Session *session, int64_t glue_ops)
{
    EdgeBatch out;
    out.nodes = std::move(nodes);
    const auto k = static_cast<int64_t>(out.nodes.size());
    parallelFor(0, k, kNodeChunk, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            local_scratch[out.nodes[i]] = static_cast<NodeId>(i);
    });
    // Two passes, both parallel over the batch nodes: count kept
    // edges per node, serial prefix sum, fill disjoint ranges.
    std::vector<EdgeId> offsets(k + 1, 0);
    parallelFor(0, k, kNodeChunk, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            const NodeId u = out.nodes[i];
            EdgeId cnt = 0;
            for (EdgeId e = csc.indptr[u]; e < csc.indptr[u + 1]; ++e)
                if (local_scratch[csc.indices[e]] != -1)
                    ++cnt;
            offsets[i + 1] = cnt;
        }
    });
    for (int64_t i = 0; i < k; ++i)
        offsets[i + 1] += offsets[i];
    out.src.resize(offsets[k]);
    out.dst.resize(offsets[k]);
    parallelFor(0, k, kNodeChunk, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            const NodeId u = out.nodes[i];
            EdgeId cursor = offsets[i];
            for (EdgeId e = csc.indptr[u]; e < csc.indptr[u + 1];
                 ++e) {
                const NodeId lv = local_scratch[csc.indices[e]];
                if (lv != -1) {
                    out.src[cursor] = lv;
                    out.dst[cursor] = static_cast<NodeId>(i);
                    ++cursor;
                }
            }
        }
    });
    parallelFor(0, k, kNodeChunk, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            local_scratch[out.nodes[i]] = -1;
    });
    overhead.charge(session, glue_ops);
    if (check::enabled())
        check::require(check::checkEdgeBatch(out, csc));
    return out;
}

} // namespace

NeighborSampler::NeighborSampler(const Data &data,
                                 std::vector<int> fanouts,
                                 core::Rng rng,
                                 device::Session *session)
    : data_(data), fanouts_(std::move(fanouts)), rng_(rng),
      session_(session)
{
    GNNBENCH_CHECK(!fanouts_.empty(), "neighbor sampler needs fanouts");
    // NeighborLoader requires CSC; trigger the (slow, comparison-sort)
    // conversion now so the cost lands where PyG pays it.
    data_.csc();
}

NeighborBatch
NeighborSampler::sample(const std::vector<NodeId> &seeds)
{
    GNNBENCH_CHECK(!seeds.empty(), "empty seed batch");
    NeighborBatch out;
    out.seeds = seeds;
    out.layers.resize(fanouts_.size());
    const graph::CsrGraph &csc = data_.csc();

    // One base draw per batch; chunk streams derive from it, so the
    // sampled batches are bit-identical for any thread count.
    const uint64_t base = rng_.next();
    std::vector<NodeId> frontier = seeds;
    int64_t ops = 0;
    for (size_t l = fanouts_.size(); l-- > 0;) {
        const int fanout = fanouts_[l];
        LayerBatch &layer = out.layers[l];
        layer.dstNodes = frontier;
        layer.srcNodes = frontier;
        const auto num_dst = static_cast<int64_t>(frontier.size());

        // Phase A (parallel): fix each destination's slot range up
        // front, then sample *global* neighbor ids into it with one
        // RNG stream per chunk.  The interpreter-cost model counts
        // the same "Python" steps the serial loop would run.
        std::vector<EdgeId> offsets(num_dst + 1, 0);
        for (int64_t d = 0; d < num_dst; ++d) {
            const EdgeId deg = csc.degree(frontier[d]);
            offsets[d + 1] =
                offsets[d] +
                std::min<EdgeId>(deg, static_cast<EdgeId>(fanout));
        }
        sampledGlobal_.resize(offsets[num_dst]);
        parallelForChunks(
            0, num_dst, kDstChunk,
            [&](int64_t c, int64_t d0, int64_t d1) {
                core::Rng crng(chunkSeed(
                    base, static_cast<uint64_t>(l),
                    static_cast<uint64_t>(c)));
                for (int64_t d = d0; d < d1; ++d) {
                    const NodeId u = frontier[d];
                    const EdgeId deg = csc.degree(u);
                    const NodeId *nbrs = csc.rowBegin(u);
                    // Per-node neighbor-list copy into a fresh list;
                    // the copy itself is one C call (random.sample),
                    // so only a fractional per-element interpreter
                    // cost applies (counted in phase B).
                    std::vector<NodeId> cand(nbrs, nbrs + deg);
                    const EdgeId take = offsets[d + 1] - offsets[d];
                    NodeId *slot =
                        sampledGlobal_.data() + offsets[d];
                    for (EdgeId i = 0; i < take; ++i) {
                        const EdgeId j =
                            i + static_cast<EdgeId>(
                                    crng.uniformInt(deg - i));
                        std::swap(cand[i], cand[j]);
                        slot[i] = cand[i];
                    }
                }
            });

        // Phase B (serial): hash-map relabeling (Python dict) in
        // destination order — first-encounter order, identical to a
        // fully serial pass.
        std::unordered_map<NodeId, NodeId> local;
        local.reserve(frontier.size() * 4);
        for (size_t i = 0; i < frontier.size(); ++i) {
            local.emplace(frontier[i], static_cast<NodeId>(i));
            ops += 2;
        }
        layer.eSrc.reserve(offsets[num_dst]);
        layer.eDst.reserve(offsets[num_dst]);
        for (int64_t d = 0; d < num_dst; ++d) {
            ops += 5 + csc.degree(frontier[d]) / 16;
            for (EdgeId i = offsets[d]; i < offsets[d + 1]; ++i) {
                const NodeId v = sampledGlobal_[i];
                auto [it, inserted] = local.emplace(
                    v,
                    static_cast<NodeId>(layer.srcNodes.size()));
                if (inserted)
                    layer.srcNodes.push_back(v);
                layer.eSrc.push_back(it->second);
                layer.eDst.push_back(static_cast<NodeId>(d));
                ops += 6;  // dict lookup + appends per sampled edge
            }
        }
        frontier = layer.srcNodes;
    }
    overhead_.charge(session_, ops);
    if (check::enabled())
        check::require(check::checkNeighborBatch(out, csc, fanouts_));
    return out;
}

ClusterSampler::ClusterSampler(const Data &data, int32_t num_parts,
                               core::Rng rng, device::Session *session)
    : data_(data), rng_(rng), session_(session)
{
    // ClusterData: CSC conversion + METIS partitioning, both one-time.
    const graph::CsrGraph &csc = data_.csc();
    partition_ = graph::partitionGraph(csc, num_parts, rng_);
    // Python-side: lists of node ids per cluster.
    members_.resize(num_parts);
    for (NodeId v = 0; v < data.numNodes(); ++v)
        members_[partition_.assignment[v]].push_back(v);
    overhead_.charge(session_, 6 * static_cast<int64_t>(
                                       data.numNodes()));
}

ClusterSampler::ClusterSampler(const ClusterSampler &other,
                               core::Rng rng, device::Session *session)
    : data_(other.data_), rng_(rng), session_(session),
      partition_(other.partition_), members_(other.members_)
{
}

EdgeBatch
ClusterSampler::sample(int32_t clusters_per_batch)
{
    GNNBENCH_CHECK(clusters_per_batch > 0 &&
                       clusters_per_batch <= partition_.numParts,
                   "bad clusters_per_batch");
    auto chosen = rng_.sampleWithoutReplacement(partition_.numParts,
                                                clusters_per_batch);
    // Batch assembly: ClusterLoader's collate slices each chosen
    // cluster's node range and concatenates them with torch calls
    // (~2 per cluster plus ~20 fixed), then the C-extension
    // submatrix extraction runs.
    overhead_.chargeTorchCalls(
        session_, 20 + 2 * static_cast<int64_t>(chosen.size()));
    std::vector<NodeId> nodes;
    int64_t ops = 0;
    for (NodeId c : chosen) {
        for (NodeId v : members_[c]) {
            nodes.push_back(v);
            ops += 1;
        }
    }
    if (localScratch_.empty())
        localScratch_.assign(data_.numNodes(), -1);
    return extractInducedFast(data_.csc(), std::move(nodes),
                              localScratch_, overhead_, session_,
                              ops);
}

SaintRwSampler::SaintRwSampler(const Data &data, int32_t num_roots,
                               int32_t walk_length, core::Rng rng,
                               device::Session *session)
    : data_(data), numRoots_(num_roots), walkLength_(walk_length),
      rng_(rng), session_(session)
{
    GNNBENCH_CHECK(num_roots > 0 && walk_length >= 0,
                   "bad random walk parameters");
    data_.csc();
}

EdgeBatch
SaintRwSampler::sample()
{
    // The walks themselves run in C++ in PyG (torch_cluster), so only
    // batch assembly pays interpreter overhead.
    const graph::CsrGraph &csc = data_.csc();
    if (localScratch_.empty())
        localScratch_.assign(data_.numNodes(), -1);
    const int32_t steps = walkLength_ + 1;
    const uint64_t base = rng_.next();
    // Phase A (parallel): chunked walks on per-chunk RNG streams,
    // visit sequences recorded into disjoint per-root slots.
    std::vector<NodeId> visits(static_cast<size_t>(numRoots_) * steps);
    std::vector<int32_t> visitLen(numRoots_);
    parallelForChunks(
        0, numRoots_, kRootChunk,
        [&](int64_t c, int64_t r0, int64_t r1) {
            core::Rng crng(chunkSeed(base, 0,
                                     static_cast<uint64_t>(c)));
            for (int64_t r = r0; r < r1; ++r) {
                NodeId *slot = visits.data() + r * steps;
                NodeId cur = static_cast<NodeId>(
                    crng.uniformInt(data_.numNodes()));
                int32_t len = 0;
                slot[len++] = cur;
                for (int32_t s = 0; s < walkLength_; ++s) {
                    const EdgeId deg = csc.degree(cur);
                    if (deg == 0)
                        break;
                    cur = csc.rowBegin(cur)[crng.uniformInt(deg)];
                    slot[len++] = cur;
                }
                visitLen[r] = len;
            }
        });
    // Phase B (serial): dedup in root order.
    std::vector<NodeId> nodes;
    nodes.reserve(static_cast<size_t>(numRoots_) * steps);
    for (int32_t r = 0; r < numRoots_; ++r) {
        const NodeId *slot =
            visits.data() + static_cast<size_t>(r) * steps;
        for (int32_t s = 0; s < visitLen[r]; ++s) {
            const NodeId v = slot[s];
            if (localScratch_[v] == -1) {
                localScratch_[v] = 1;
                nodes.push_back(v);
            }
        }
    }
    // Fixed per-batch Python glue only (~10 torch calls): both the
    // walks and the extraction kernels run in C extensions for
    // SAINT.  The walk's visit marks are overwritten by the
    // extraction's relabeling (same node set) and reset there.
    overhead_.chargeTorchCalls(session_, 10);
    return extractInducedFast(csc, std::move(nodes), localScratch_,
                              overhead_, session_, 200);
}

} // namespace pygx
} // namespace gnnbench

namespace gnnbench {
namespace pygx {

SaintNodeSampler::SaintNodeSampler(const Data &data, NodeId budget,
                                   core::Rng rng,
                                   device::Session *session)
    : data_(data), budget_(budget), rng_(rng), session_(session)
{
    GNNBENCH_CHECK(budget > 0 && budget <= data.numNodes(),
                   "bad node-sampler budget");
    const graph::CsrGraph &csc = data_.csc();
    degreeCdf_.resize(data.numNodes());
    double acc = 0.0;
    for (NodeId v = 0; v < data.numNodes(); ++v) {
        acc += static_cast<double>(csc.degree(v)) + 1.0;
        degreeCdf_[v] = acc;
    }
}

SaintNodeSampler::SaintNodeSampler(const SaintNodeSampler &other,
                                   core::Rng rng,
                                   device::Session *session)
    : data_(other.data_), budget_(other.budget_), rng_(rng),
      session_(session), degreeCdf_(other.degreeCdf_)
{
}

EdgeBatch
SaintNodeSampler::sample()
{
    if (localScratch_.empty())
        localScratch_.assign(data_.numNodes(), -1);
    const double total = degreeCdf_.back();
    const uint64_t base = rng_.next();
    // Phase A (parallel): i.i.d. CDF inversions into per-draw slots.
    std::vector<NodeId> draws(budget_);
    parallelForChunks(
        0, budget_, kDrawChunk,
        [&](int64_t c, int64_t i0, int64_t i1) {
            core::Rng crng(chunkSeed(base, 0,
                                     static_cast<uint64_t>(c)));
            for (int64_t i = i0; i < i1; ++i) {
                const double r = crng.uniform() * total;
                draws[i] = static_cast<NodeId>(
                    std::lower_bound(degreeCdf_.begin(),
                                     degreeCdf_.end(), r) -
                    degreeCdf_.begin());
            }
        });
    // Phase B (serial): dedup in draw order.
    std::vector<NodeId> nodes;
    nodes.reserve(budget_);
    for (NodeId v : draws) {
        if (localScratch_[v] == -1) {
            localScratch_[v] = 1;
            nodes.push_back(v);
        }
    }
    overhead_.chargeTorchCalls(session_, 8);
    return extractInducedFast(data_.csc(), std::move(nodes),
                              localScratch_, overhead_, session_,
                              100);
}

SaintEdgeSampler::SaintEdgeSampler(const Data &data, EdgeId budget,
                                   core::Rng rng,
                                   device::Session *session)
    : data_(data), budget_(budget), rng_(rng), session_(session)
{
    GNNBENCH_CHECK(budget > 0, "bad edge-sampler budget");
    // p_e proportional to 1/deg(u) + 1/deg(v), over edge_index order.
    const graph::CsrGraph &csc = data_.csc();
    edgeCdf_.resize(data.numEdges());
    double acc = 0.0;
    for (EdgeId e = 0; e < data.numEdges(); ++e) {
        const double du =
            static_cast<double>(csc.degree(data.edgeSrc()[e])) + 1.0;
        const double dv =
            static_cast<double>(csc.degree(data.edgeDst()[e])) + 1.0;
        acc += 1.0 / du + 1.0 / dv;
        edgeCdf_[e] = acc;
    }
}

SaintEdgeSampler::SaintEdgeSampler(const SaintEdgeSampler &other,
                                   core::Rng rng,
                                   device::Session *session)
    : data_(other.data_), budget_(other.budget_), rng_(rng),
      session_(session), edgeCdf_(other.edgeCdf_)
{
}

EdgeBatch
SaintEdgeSampler::sample()
{
    if (localScratch_.empty())
        localScratch_.assign(data_.numNodes(), -1);
    const double total = edgeCdf_.back();
    const uint64_t base = rng_.next();
    // Phase A (parallel): draw edges and record both endpoints.
    std::vector<NodeId> srcDraw(budget_), dstDraw(budget_);
    parallelForChunks(
        0, budget_, kDrawChunk,
        [&](int64_t c, int64_t i0, int64_t i1) {
            core::Rng crng(chunkSeed(base, 0,
                                     static_cast<uint64_t>(c)));
            for (int64_t i = i0; i < i1; ++i) {
                const double r = crng.uniform() * total;
                const EdgeId e = static_cast<EdgeId>(
                    std::lower_bound(edgeCdf_.begin(),
                                     edgeCdf_.end(), r) -
                    edgeCdf_.begin());
                srcDraw[i] = data_.edgeSrc()[e];
                dstDraw[i] = data_.edgeDst()[e];
            }
        });
    // Phase B (serial): dedup endpoints in draw order.
    std::vector<NodeId> nodes;
    auto visit = [&](NodeId v) {
        if (localScratch_[v] == -1) {
            localScratch_[v] = 1;
            nodes.push_back(v);
        }
    };
    for (EdgeId i = 0; i < budget_; ++i) {
        visit(srcDraw[i]);
        visit(dstDraw[i]);
    }
    overhead_.chargeTorchCalls(session_, 8);
    return extractInducedFast(data_.csc(), std::move(nodes),
                              localScratch_, overhead_, session_,
                              100);
}

} // namespace pygx
} // namespace gnnbench
