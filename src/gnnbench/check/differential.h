/**
 * @file
 * gnncheck: differential fuzzing helpers across dglx and pygx.
 *
 * The two frameworks implement the same GNN mathematics with
 * different machinery; these helpers build identically-initialized
 * layers/models in both (same weight-RNG sequence), run forward,
 * backward, and one optimizer step, and compare outputs, gradients,
 * parameters, and losses within tolerance.  Randomized samplers are
 * compared distributionally over many draws (they consume their RNG
 * streams differently, so per-draw equality is not expected).
 *
 * All helpers accept the property harness's GraphCase, so the same
 * seeded generator drives both the invariant properties and the
 * differential fuzz.
 */

#ifndef GNNBENCH_CHECK_DIFFERENTIAL_H
#define GNNBENCH_CHECK_DIFFERENTIAL_H

#include "gnnbench/check/property.h"
#include "gnnbench/check/validate.h"
#include "gnnbench/core/tensor.h"
#include "gnnbench/dglx/nn.h"
#include "gnnbench/pygx/nn.h"

namespace gnnbench {
namespace check {

/** Relative + absolute float comparison tolerance. */
struct DiffTol
{
    float rel = 5e-3f;
    float abs = 1e-5f;
};

/** Element-wise closeness: |a - b| <= abs + rel * max(1, |b|). */
Result compareTensors(const char *what, const core::Tensor &a,
                      const core::Tensor &b, DiffTol tol = {});

/**
 * The shared differential substrate: the case's graph symmetrized
 * (without self-loops) and materialized in both frameworks, plus a
 * seeded feature matrix and labels.
 */
struct DiffCase
{
    graph::CooGraph sym;
    dglx::Graph dgl;
    pygx::Data pyg;
    core::Tensor x;
    std::vector<int32_t> labels;
    int64_t featDim;
    int32_t numClasses;

    DiffCase(const GraphCase &c, uint64_t seed, int64_t feat_dim = 6,
             int32_t num_classes = 4);
};

/**
 * Forward agreement of one conv kind built with identical weights in
 * both frameworks (full-graph forward).  Handles the Gcn2 initial-
 * embedding requirement internally.
 */
Result diffConvForward(nn::ConvKind kind, const GraphCase &c,
                       uint64_t seed, DiffTol tol = {});

/**
 * Full train-step agreement: a 2-layer GCN in each framework with
 * identical initial weights runs forward + backward + @p steps Adam
 * steps on the full graph; per-step losses, then final gradients and
 * parameters, must agree within tolerance.
 */
Result diffTrainSteps(const GraphCase &c, uint64_t seed,
                      int steps = 2, DiffTol tol = {});

/**
 * Sampled-path train-step agreement: the *same* random node subset
 * is materialized as a dglx InducedSample and a pygx EdgeBatch, and
 * one identically-initialized 2-layer GCN training step runs on each
 * (ClusterGCN/GraphSAINT's per-batch step).  Losses, gradients, and
 * updated parameters must agree.
 */
Result diffInducedStep(const GraphCase &c, uint64_t seed,
                       DiffTol tol = {});

/**
 * Distributional comparison of the two frameworks' neighbor
 * samplers: mean input-frontier size and mean sampled-edge count
 * over @p draws batches must agree within @p rel_tol relative error.
 */
Result diffNeighborSamplerStats(const GraphCase &c,
                                const std::vector<int> &fanouts,
                                uint64_t seed, int draws = 24,
                                double rel_tol = 0.25);

/** Same idea for the SAINT random-walk samplers: mean subgraph node
 *  and edge counts across draws. */
Result diffSaintRwStats(const GraphCase &c, int32_t num_roots,
                        int32_t walk_length, uint64_t seed,
                        int draws = 24, double rel_tol = 0.25);

/**
 * Exact structural agreement of the frameworks' induced-subgraph
 * extraction on one shared node subset: dglx's flat-scratch
 * extraction, pygx's edge_index extraction, and the reference
 * graph::inducedSubgraph must all describe the same subgraph.
 */
Result diffInducedExtraction(const GraphCase &c, uint64_t seed);

/**
 * Bit-exact agreement of the frameworks' neighborhood aggregation:
 * both now dispatch through the shared gnnbench::kernels layer, and
 * the pygx edge list is materialized in csc traversal order, so
 * dglx's fused gspmm and pygx's gather/scatter pipeline accumulate
 * every output element in the same order with the same arithmetic.
 * Sum, mean, and max must match to the bit (DiffTol{0, 0}); the
 * weighted fused paths must also match to the bit, while the
 * materialized multiply-then-scatter path is held to a tight float
 * tolerance (FMA contraction in the fused product is the only
 * permitted divergence).
 */
Result diffUnifiedAggregation(const GraphCase &c, uint64_t seed);

} // namespace check
} // namespace gnnbench

#endif // GNNBENCH_CHECK_DIFFERENTIAL_H
