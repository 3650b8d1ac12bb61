#include "gnnbench/dist/trainer.h"

#include <memory>
#include <optional>

#include "gnnbench/core/optim.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/dist/data_store.h"
#include "gnnbench/dist/exact.h"
#include "gnnbench/dist/shard.h"
#include "gnnbench/graph/convert.h"
#include "gnnbench/profiling/trace.h"

namespace gnnbench {
namespace dist {

namespace {

namespace ag = core::ag;
namespace ops = core::ops;
using core::Tensor;
using core::parallel::parallelFor;

/** Rows per chunk of the per-node loops (any fixed value preserves
 *  determinism — per-row results never depend on chunking). */
constexpr int64_t kRowGrain = 64;

/**
 * Mean aggregation over the shard's CSC: out[i] = invdeg[i] *
 * sum_{col in row i} src(col), where src resolves combined columns
 * against [local | halo] and the per-row accumulation runs serially
 * in the preserved global neighbor order — the bit pattern is
 * therefore identical to the 1-rank run for every row.
 */
Tensor
aggregateMean(const graph::CsrGraph &csc, const Tensor &local,
              const Tensor &halo, const std::vector<float> &invdeg)
{
    const int64_t cols = local.cols();
    const auto n_local = static_cast<int64_t>(csc.numRows);
    Tensor out(n_local, cols);
    parallelFor(0, n_local, kRowGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            float *orow = out.row(i);
            for (EdgeId e = csc.indptr[i]; e < csc.indptr[i + 1];
                 ++e) {
                const NodeId col =
                    csc.indices[static_cast<size_t>(e)];
                const float *srow =
                    col < local.rows()
                        ? local.row(col)
                        : halo.row(col - local.rows());
                for (int64_t f = 0; f < cols; ++f)
                    orow[f] += srow[f];
            }
            const float s = invdeg[static_cast<size_t>(i)];
            for (int64_t f = 0; f < cols; ++f)
                orow[f] *= s;
        }
    });
    return out;
}

/**
 * Backward gather over the shard's CSR: out[i] += sum_{col in row i}
 * src(col) — the transpose-aggregation of the mean (the in-degree
 * scaling is already folded into src by the caller).  Same canonical
 * per-row order as aggregateMean.
 */
void
addCsrGather(const graph::CsrGraph &csr, const Tensor &local,
             const Tensor &halo, Tensor *out)
{
    const int64_t cols = local.cols();
    parallelFor(
        0, static_cast<int64_t>(csr.numRows), kRowGrain,
        [&](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i) {
                float *orow = out->row(i);
                for (EdgeId e = csr.indptr[i];
                     e < csr.indptr[i + 1]; ++e) {
                    const NodeId col =
                        csr.indices[static_cast<size_t>(e)];
                    const float *srow =
                        col < local.rows()
                            ? local.row(col)
                            : halo.row(col - local.rows());
                    for (int64_t f = 0; f < cols; ++f)
                        orow[f] += srow[f];
                }
            }
        });
}

/**
 * Upstream gradient of the *global-mean* NLL loss w.r.t. the
 * log-probabilities: -1/n_train_global at (row, label) for the local
 * training rows, zero elsewhere.  (ops::nllLossGrad divides by the
 * *local* row count, which would make the loss depend on the
 * sharding.)
 */
Tensor
globalNllGrad(const Tensor &lp, const std::vector<int32_t> &labels,
              const std::vector<NodeId> &train_rows,
              int64_t n_train_global)
{
    Tensor g(lp.rows(), lp.cols());
    const float inv = -1.0f / static_cast<float>(n_train_global);
    for (NodeId r : train_rows)
        g(r, labels[static_cast<size_t>(r)]) = inv;
    return g;
}

/** One rank's per-epoch working set. */
struct RankState
{
    std::vector<ag::Var> params; ///< W1s, W1n, b1, W2s, W2n, b2
    std::unique_ptr<core::Adam> opt;

    Tensor xLocal;
    Tensor ones;                      ///< numLocal x 1, for column sums
    std::vector<int32_t> labels;      ///< per local row
    std::vector<NodeId> trainRows;    ///< local row indices
    std::vector<float> invDeg;

    // Epoch temporaries (kept across supersteps within an epoch).
    const Tensor *haloX = nullptr;
    Tensor agg1, z1, h1, h1Halo;
    Tensor agg2, dz2, y2s, yHalo;
    std::vector<ExactTensor> grads;
    ExactScalar lossSum;
    int64_t correct = 0;
};

/**
 * Materialize @p rank's halo rows of a per-rank row-partitioned
 * matrix (activations or gradients), charging one message per
 * sending rank.
 */
Tensor
gatherHalo(const ShardedGraph &sharded, int rank,
           const std::vector<NodeId> &halo,
           const std::vector<RankState> &states,
           Tensor RankState::*field,
           const std::vector<NodeId> &local_row_of, ModeledComm *comm,
           const char *what)
{
    const RankState &self = states[static_cast<size_t>(rank)];
    const int64_t cols =
        (self.*field).cols() > 0
            ? (self.*field).cols()
            : (states[0].*field).cols();
    Tensor out(static_cast<int64_t>(halo.size()), cols);
    std::vector<uint64_t> bytes_from(
        static_cast<size_t>(sharded.numRanks), 0);
    for (size_t h = 0; h < halo.size(); ++h) {
        const NodeId u = halo[h];
        const int32_t owner = sharded.owner(u);
        const Tensor &src =
            states[static_cast<size_t>(owner)].*field;
        const float *srow =
            src.row(local_row_of[static_cast<size_t>(u)]);
        float *orow = out.row(static_cast<int64_t>(h));
        for (int64_t f = 0; f < cols; ++f)
            orow[f] = srow[f];
        bytes_from[static_cast<size_t>(owner)] +=
            static_cast<uint64_t>(cols) * 4;
    }
    for (int src = 0; src < sharded.numRanks; ++src)
        if (bytes_from[static_cast<size_t>(src)] > 0)
            comm->message(src, rank,
                          bytes_from[static_cast<size_t>(src)],
                          what);
    return out;
}

} // namespace

DistResult
trainDistributedSage(const graph::Dataset &dataset,
                     const DistConfig &cfg)
{
    GNNBENCH_CHECK(cfg.numRanks >= 1, "numRanks must be >= 1");
    GNNBENCH_CHECK(cfg.epochs >= 1, "epochs must be >= 1");
    const auto n_train =
        static_cast<int64_t>(dataset.trainIdx.size());
    GNNBENCH_CHECK(n_train > 0, "dataset has no training nodes");

    const graph::CsrGraph csr = graph::cooToCsr(dataset.graph);
    const graph::CsrGraph csc = graph::cooToCsc(dataset.graph);
    const int64_t F = dataset.features.cols();
    const int64_t H = cfg.hiddenDim;
    const int64_t C = dataset.info.numClasses;

    // Shared model init: the weight stream is forked before the
    // partitioner stream, so every rank count starts from the same
    // replica bits.
    core::Rng rng(cfg.seed);
    core::Rng wrng = rng.fork();
    core::Rng prng = rng.fork();
    Tensor init[kNumDistWeights] = {
        Tensor::glorot(F, H, wrng), Tensor::glorot(F, H, wrng),
        Tensor::zeros(1, H),        Tensor::glorot(H, C, wrng),
        Tensor::glorot(H, C, wrng), Tensor::zeros(1, C)};

    const ShardedGraph sharded = partitionAndShard(
        csr, csc, cfg.numRanks, prng, cfg.partition);

    DistResult result;
    result.cutEdges = sharded.cutEdges;
    for (const RankShard &shard : sharded.ranks)
        result.maxPartSize =
            std::max(result.maxPartSize, shard.numLocal());

    ModeledComm comm(cfg.numRanks, cfg.interconnect);
    FeatureStore store(dataset.features, sharded,
                       cfg.haloCacheBytes);

    // Owner-local row index of every global node.
    std::vector<NodeId> local_row_of(
        static_cast<size_t>(csr.numRows), 0);
    for (const RankShard &shard : sharded.ranks)
        for (NodeId i = 0; i < shard.numLocal(); ++i)
            local_row_of[static_cast<size_t>(
                shard.localNodes[i])] = i;
    std::vector<uint8_t> is_train(
        static_cast<size_t>(csr.numRows), 0);
    for (NodeId v : dataset.trainIdx)
        is_train[static_cast<size_t>(v)] = 1;

    std::vector<RankState> states(
        static_cast<size_t>(cfg.numRanks));
    for (int r = 0; r < cfg.numRanks; ++r) {
        const RankShard &shard =
            sharded.ranks[static_cast<size_t>(r)];
        RankState &st = states[static_cast<size_t>(r)];
        for (const Tensor &w : init)
            st.params.push_back(ag::leaf(w.clone(), true));
        st.opt =
            std::make_unique<core::Adam>(st.params, cfg.lr);
        st.xLocal =
            ops::gatherRows(dataset.features, shard.localNodes);
        st.ones = Tensor::full(shard.numLocal(), 1, 1.0f);
        st.labels.resize(static_cast<size_t>(shard.numLocal()));
        st.invDeg.resize(static_cast<size_t>(shard.numLocal()));
        for (NodeId i = 0; i < shard.numLocal(); ++i) {
            const NodeId v = shard.localNodes[i];
            st.labels[static_cast<size_t>(i)] =
                dataset.labels[static_cast<size_t>(v)];
            const EdgeId d = shard.csc.degree(i);
            st.invDeg[static_cast<size_t>(i)] =
                d > 0 ? 1.0f / static_cast<float>(d) : 0.0f;
            if (is_train[static_cast<size_t>(v)])
                st.trainRows.push_back(i);
        }
    }

    const auto param_floats = [&] {
        int64_t n = 0;
        for (const Tensor &w : init)
            n += w.numel();
        return n;
    }();

    // Each superstep is one measured span on the caller's lane,
    // beside the modeled rank<r>/... lanes; emplace() ends the last.
    auto &trace = profiling::TraceRecorder::global();
    std::optional<profiling::TraceScope> span;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        // S1: halo feature fetch through the data store.
        span.emplace(trace, "dist.fetch", "dist");
        for (int r = 0; r < cfg.numRanks; ++r)
            states[static_cast<size_t>(r)].haloX =
                &store.fetchHalo(r, &comm);
        comm.barrier();

        // S2: layer-1 forward.
        span.emplace(trace, "dist.layer1", "dist");
        for (int r = 0; r < cfg.numRanks; ++r) {
            RankState &st = states[static_cast<size_t>(r)];
            const RankShard &shard =
                sharded.ranks[static_cast<size_t>(r)];
            st.agg1 = aggregateMean(shard.csc, st.xLocal,
                                    *st.haloX, st.invDeg);
            st.z1 = ops::addBias(
                ops::add(ops::matmul(st.xLocal,
                                     st.params[0]->value),
                         ops::matmul(st.agg1,
                                     st.params[1]->value)),
                st.params[2]->value);
            st.h1 = ops::relu(st.z1);
            const double n = shard.numLocal();
            const double e = shard.csc.numEdges();
            comm.compute(r,
                         4.0 * n * F * H + 2.0 * e * F +
                             3.0 * n * H,
                         "layer1");
        }
        comm.barrier();

        // S3: halo exchange of h1.
        span.emplace(trace, "dist.h1_exchange", "dist");
        for (int r = 0; r < cfg.numRanks; ++r)
            states[static_cast<size_t>(r)].h1Halo = gatherHalo(
                sharded, r,
                sharded.ranks[static_cast<size_t>(r)].haloIn,
                states, &RankState::h1, local_row_of, &comm, "h1");
        comm.barrier();

        // S4: layer-2 forward, loss, dz2, and the scaled upstream
        // gradient that must travel in S5.
        span.emplace(trace, "dist.layer2", "dist");
        for (int r = 0; r < cfg.numRanks; ++r) {
            RankState &st = states[static_cast<size_t>(r)];
            const RankShard &shard =
                sharded.ranks[static_cast<size_t>(r)];
            st.agg2 = aggregateMean(shard.csc, st.h1, st.h1Halo,
                                    st.invDeg);
            Tensor z2 = ops::addBias(
                ops::add(ops::matmul(st.h1,
                                     st.params[3]->value),
                         ops::matmul(st.agg2,
                                     st.params[4]->value)),
                st.params[5]->value);
            Tensor lp = ops::logSoftmax(z2);
            st.lossSum = ExactScalar();
            for (NodeId i : st.trainRows)
                st.lossSum.add(-static_cast<double>(lp(
                    i, st.labels[static_cast<size_t>(i)])));
            // countCorrect treats an empty row list as "all rows";
            // a rank whose shard holds no training nodes must
            // contribute zero instead.
            st.correct = st.trainRows.empty()
                             ? 0
                             : ops::countCorrect(z2, st.labels,
                                                 st.trainRows);
            Tensor dlp = globalNllGrad(lp, st.labels,
                                       st.trainRows, n_train);
            st.dz2 = ops::logSoftmaxGrad(lp, dlp);
            st.y2s = ops::rowScale(
                ops::matmulTb(st.dz2, st.params[4]->value),
                st.invDeg);
            const double n = shard.numLocal();
            const double e = shard.csc.numEdges();
            comm.compute(r,
                         4.0 * n * H * C + 2.0 * e * H +
                             8.0 * n * C + 2.0 * n * C * H,
                         "layer2+loss");
        }
        comm.barrier();

        // S5: halo exchange of the scaled upstream gradients.
        span.emplace(trace, "dist.grad_exchange", "dist");
        for (int r = 0; r < cfg.numRanks; ++r)
            states[static_cast<size_t>(r)].yHalo = gatherHalo(
                sharded, r,
                sharded.ranks[static_cast<size_t>(r)].haloOut,
                states, &RankState::y2s, local_row_of, &comm,
                "dh");
        comm.barrier();

        // S6: backward on local rows; exact partial gradients (the
        // bias gradients are exact column sums, ones^T dz).
        span.emplace(trace, "dist.backward", "dist");
        for (int r = 0; r < cfg.numRanks; ++r) {
            RankState &st = states[static_cast<size_t>(r)];
            const RankShard &shard =
                sharded.ranks[static_cast<size_t>(r)];
            Tensor dh1 =
                ops::matmulTb(st.dz2, st.params[3]->value);
            addCsrGather(shard.csr, st.y2s, st.yHalo, &dh1);
            Tensor dz1 = ops::reluGrad(st.z1, dh1);
            st.grads.clear();
            st.grads.push_back(exactMatmulTa(st.xLocal, dz1));
            st.grads.push_back(exactMatmulTa(st.agg1, dz1));
            st.grads.push_back(exactMatmulTa(st.ones, dz1));
            st.grads.push_back(exactMatmulTa(st.h1, st.dz2));
            st.grads.push_back(exactMatmulTa(st.agg2, st.dz2));
            st.grads.push_back(exactMatmulTa(st.ones, st.dz2));
            const double n = shard.numLocal();
            const double e = shard.csr.numEdges();
            comm.compute(r,
                         2.0 * n * C * H + 2.0 * e * H +
                             4.0 * n * F * H + 4.0 * n * H * C +
                             2.0 * n * (H + C),
                         "backward");
        }
        comm.barrier();

        // S7: ring allreduce — exact merge in any order gives the
        // same bits; the modeled ring is charged the float payload.
        span.emplace(trace, "dist.allreduce", "dist");
        std::vector<ExactTensor> merged = std::move(
            states[0].grads);
        ExactScalar loss_sum = states[0].lossSum;
        int64_t correct = states[0].correct;
        for (int r = 1; r < cfg.numRanks; ++r) {
            RankState &st = states[static_cast<size_t>(r)];
            for (int k = 0; k < kNumDistWeights; ++k)
                merged[static_cast<size_t>(k)].merge(
                    st.grads[static_cast<size_t>(k)]);
            loss_sum.merge(st.lossSum);
            correct += st.correct;
            st.grads.clear();
        }
        comm.allReduce(
            static_cast<uint64_t>(param_floats) * 4 + 16,
            "grads");
        comm.barrier();

        // S8: identical optimizer step on every replica.
        span.emplace(trace, "dist.adam", "dist");
        Tensor grad_f[kNumDistWeights];
        for (int k = 0; k < kNumDistWeights; ++k)
            grad_f[k] = merged[static_cast<size_t>(k)].toTensor();
        for (int r = 0; r < cfg.numRanks; ++r) {
            RankState &st = states[static_cast<size_t>(r)];
            for (int k = 0; k < kNumDistWeights; ++k)
                st.params[static_cast<size_t>(k)]->grad =
                    grad_f[k];
            st.opt->step();
            comm.compute(r,
                         10.0 * static_cast<double>(param_floats),
                         "adam");
        }
        comm.barrier();
        span.reset();

        DistEpochStats es;
        es.loss =
            loss_sum.value() / static_cast<double>(n_train);
        es.accuracy = static_cast<double>(correct) /
                      static_cast<double>(n_train);
        result.epochs.push_back(es);
    }

    for (const auto &p : states[0].params)
        result.weights.push_back(p->value.clone());

    result.haloMessages = comm.haloMessages();
    result.haloBytes = comm.haloBytes();
    result.allreduceBytes = comm.allreduceBytes();
    result.commSeconds = comm.commSeconds();
    result.modeledSeconds = comm.makespan();
    result.datastoreHits = store.hits();
    result.datastoreMisses = store.misses();
    result.datastoreEvictions = store.evictions();
    result.datastoreFetchBytes = store.fetchBytes();
    result.datastoreHitRate = store.hitRate();
    return result;
}

} // namespace dist
} // namespace gnnbench
