/**
 * @file
 * gnncheck: runtime invariant validators for the graph containers.
 *
 * The paper's efficiency comparisons are only meaningful if both
 * framework reimplementations compute the same thing on well-formed
 * structures, so this module provides cheap, composable checkers for
 * COO/CSR/CSC well-formedness and partition validity.  Each checker
 * returns a Result (ok + human-readable message) so tests can compose
 * them; require() escalates a failure to a fatal user error, carrying
 * any active ScopedContext text (e.g. "repro seed=...") so the crash
 * message is actionable.
 *
 * The in-situ hooks in graph/convert, graph/partition, the samplers,
 * and the dataloaders consult enabled(): off by default (a relaxed
 * atomic load is the only cost), switched on by the GNNBENCH_VALIDATE
 * environment variable, the CMake option of the same name, or
 * setEnabled() from tests.
 */

#ifndef GNNBENCH_CHECK_VALIDATE_H
#define GNNBENCH_CHECK_VALIDATE_H

#include <string>
#include <utility>

#include "gnnbench/graph/coo.h"
#include "gnnbench/graph/csr.h"
#include "gnnbench/graph/partition.h"

namespace gnnbench {
namespace check {

/** Outcome of one validator: ok, or a message naming the violation. */
struct Result
{
    bool ok = true;
    std::string message;

    explicit operator bool() const { return ok; }

    static Result pass() { return {}; }

    static Result
    fail(std::string msg)
    {
        return {false, std::move(msg)};
    }
};

/**
 * Whether the in-situ validation hooks are active.  Resolution order:
 * setEnabled() override, then the GNNBENCH_VALIDATE environment
 * variable (""/"0"/"off"/"false" disable, "1"/"on"/"true" enable,
 * anything else is fatal), then the compile-time default
 * (-DGNNBENCH_VALIDATE=ON).
 */
bool enabled();

/** Force validation on/off for this process (tests). */
void setEnabled(bool on);

/**
 * Pushes a line of context (e.g. "repro seed=0x1234") onto a
 * thread-local stack for the lifetime of the scope; require()
 * appends the active context to its fatal message so a validator
 * tripping deep inside a sampler still prints how to reproduce it.
 */
class ScopedContext
{
  public:
    explicit ScopedContext(std::string text);
    ~ScopedContext();

    ScopedContext(const ScopedContext &) = delete;
    ScopedContext &operator=(const ScopedContext &) = delete;
};

/** The concatenated active context lines ("" when none). */
std::string contextString();

/** Escalate a failed Result to a fatal error (with context). */
void require(const Result &r);

/** Optional strictness knobs for checkCsr. */
struct CsrOptions
{
    /** Column indices within each row must be ascending. */
    bool requireSortedRows = false;
    /** No repeated column index within a row (no multi-edges). */
    bool requireUniqueCols = false;
    /** numRows == numCols (square adjacency). */
    bool requireSquare = false;
};

/** COO well-formedness: matching arrays, endpoints in range. */
Result checkCoo(const graph::CooGraph &g);

/**
 * CSR/CSC well-formedness: indptr sized numRows+1, starts at 0,
 * monotone, degree-sum == nnz (indptr.back() == indices.size()),
 * all column ids in [0, numCols); optional sortedness/uniqueness.
 */
Result checkCsr(const graph::CsrGraph &g, const CsrOptions &opts = {});

/**
 * Partition validity against the graph it was computed on: the
 * assignment covers every node with exactly one part id in
 * [0, numParts) (cover + disjointness), the reported maxPartSize
 * matches a recount, and the edge-cut accounting matches an
 * independent recount over the adjacency.
 */
Result checkPartition(const graph::CsrGraph &g,
                      const graph::PartitionResult &p);

} // namespace check
} // namespace gnnbench

#endif // GNNBENCH_CHECK_VALIDATE_H
