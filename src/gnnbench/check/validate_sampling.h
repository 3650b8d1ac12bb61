/**
 * @file
 * gnncheck: validators for sampler outputs of both frameworks.
 *
 * These are deeper than the structural validate() methods on the
 * sample types: each checker verifies the output *against the global
 * graph it was sampled from* — fanout bounds, induced-subgraph edge
 * closure (every sampled edge exists in the graph) and completeness
 * (every induced edge is present), and mapping bijectivity.  They are
 * the checks the GNNBENCH_VALIDATE hooks run at the end of every
 * sampler's sample() and on every batch a dataloader delivers.
 */

#ifndef GNNBENCH_CHECK_VALIDATE_SAMPLING_H
#define GNNBENCH_CHECK_VALIDATE_SAMPLING_H

#include <vector>

#include "gnnbench/check/validate.h"
#include "gnnbench/pygx/batch.h"
#include "gnnbench/sampling/subgraph.h"

namespace gnnbench {
namespace check {

/**
 * One dglx bipartite block against the global in-adjacency: dst is a
 * prefix of src, src ids are unique and in range, every row keeps at
 * most @p fanout edges (and no more than the destination's global
 * in-degree), and each sampled edge — with multiplicity — exists in
 * the global graph.  @p fanout <= 0 skips the fanout bound.
 */
Result checkBlock(const sampling::Block &blk,
                  const graph::CsrGraph &global_csc, int fanout);

/** A full dglx neighbor sample: per-block checks plus layer wiring
 *  (blocks[l].dst == blocks[l+1].src, last dst == seeds). */
Result checkNeighborSample(const sampling::NeighborSample &smp,
                           const graph::CsrGraph &global_csc,
                           const std::vector<int> &fanouts);

/**
 * A dglx induced sample against the global out-adjacency: the node
 * mapping is a bijection onto unique in-range global ids and the
 * local adjacency equals the reference induced subgraph exactly
 * (closure and completeness in one comparison).
 */
Result checkInducedSample(const sampling::InducedSample &smp,
                          const graph::CsrGraph &global_csr);

/**
 * A pygx edge batch against the global in-adjacency (pygx extraction
 * scans CSC rows, emitting src=local(v), dst=local(u) per graph edge
 * v->u): node bijectivity, endpoints in range, and the edge multiset
 * grouped by destination equals the reference induced subgraph.
 */
Result checkEdgeBatch(const pygx::EdgeBatch &batch,
                      const graph::CsrGraph &global_csc);

/** One pygx sampled layer (mirror of checkBlock for edge lists). */
Result checkLayerBatch(const pygx::LayerBatch &layer,
                       const graph::CsrGraph &global_csc, int fanout);

/** A full pygx neighbor batch: per-layer checks plus wiring. */
Result checkNeighborBatch(const pygx::NeighborBatch &batch,
                          const graph::CsrGraph &global_csc,
                          const std::vector<int> &fanouts);

} // namespace check
} // namespace gnnbench

#endif // GNNBENCH_CHECK_VALIDATE_SAMPLING_H
