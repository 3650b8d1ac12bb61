/**
 * @file
 * pygx::Data — the lightweight edge-index graph container of the
 * PyG-like framework.
 *
 * Like torch_geometric.data.Data, construction is *cheap*: only the
 * COO "edge_index" arrays are stored (this is why the paper's
 * Observation 1 finds PyG's data loader faster).  Adjacency formats
 * required by samplers and fused kernels are converted lazily — and
 * that CSC conversion is exactly the cost the paper calls out as
 * "quite slow on large datasets".
 */

#ifndef GNNBENCH_PYGX_DATA_H
#define GNNBENCH_PYGX_DATA_H

#include <memory>
#include <vector>

#include "gnnbench/device/session.h"
#include "gnnbench/graph/coo.h"
#include "gnnbench/graph/csr.h"

namespace gnnbench {
namespace pygx {

/**
 * Thrown by pygx kernels when a per-edge materialization would exceed
 * the target device's memory (at full dataset scale).  This is the
 * only exception type the library throws; benchmark binaries catch it
 * and report "OOM" exactly like the paper's Figure 5.
 */
class OomError : public std::exception
{
  public:
    OomError(uint64_t requested, uint64_t budget);

    const char *what() const noexcept override { return message_.c_str(); }

    uint64_t requestedBytes() const { return requested_; }
    uint64_t budgetBytes() const { return budget_; }

  private:
    uint64_t requested_;
    uint64_t budget_;
    std::string message_;
};

/**
 * Models the CPython interpreter cost of PyG's Python-level sampler
 * loops.  pygx samplers execute real (correct) C++ but count the
 * "bytecode operations" the equivalent Python would run and charge
 * perOpSeconds each through the session — reproducing the sampler
 * gap of the paper's Observation 2 without an interpreter.
 */
struct PyOverheadModel
{
    /** Measured CPython 3.8 dispatch cost per simple bytecode op. */
    double perOpSeconds = 20e-9;

    /** Python-level torch API call overhead (arg parsing, dispatch,
     *  tensor wrapper construction): a few microseconds per call. */
    double perTorchCallSeconds = 3e-6;

    /**
     * Modeled seconds charged while no session was attached.  The
     * prefetching dataloaders run sampler clones with a null session
     * on worker threads (device::Session is single-threaded); the
     * consumer drains this and charges it on the main thread.
     */
    mutable double accumulatedSeconds = 0.0;

    /** Charge @p ops interpreted operations to the session. */
    void
    charge(device::Session *session, int64_t ops) const
    {
        if (ops <= 0)
            return;
        chargeSeconds(session,
                      perOpSeconds * static_cast<double>(ops));
    }

    /** Charge @p calls Python-level torch op invocations. */
    void
    chargeTorchCalls(device::Session *session, int64_t calls) const
    {
        if (calls <= 0)
            return;
        chargeSeconds(session, perTorchCallSeconds *
                                   static_cast<double>(calls));
    }

    /** Charge to the session, or accumulate when detached. */
    void
    chargeSeconds(device::Session *session, double seconds) const
    {
        if (session)
            session->chargeCpuOverhead(seconds);
        else
            accumulatedSeconds += seconds;
    }

    /** Take (and reset) the seconds accumulated while detached. */
    double
    drainAccumulated() const
    {
        const double s = accumulatedSeconds;
        accumulatedSeconds = 0.0;
        return s;
    }
};

/** The PyG-like framework's central data object. */
class Data
{
  public:
    /** Cheap construction: stores only edge_index (+ node count). */
    explicit Data(const graph::CooGraph &coo);

    NodeId numNodes() const { return numNodes_; }
    EdgeId numEdges() const
    {
        return static_cast<EdgeId>(src_.size());
    }

    const std::vector<NodeId> &edgeSrc() const { return src_; }
    const std::vector<NodeId> &edgeDst() const { return dst_; }

    /**
     * In-adjacency (CSC), converted lazily with a torch.sort-style
     * comparison sort (the conversion PyG performs when a sampler or
     * SparseTensor needs CSC).  The (real) conversion cost lands in
     * whichever phase triggers it.
     */
    const graph::CsrGraph &csc() const;

    /** Out-adjacency (CSR), converted lazily the same way. */
    const graph::CsrGraph &csr() const;

    /** Whether csc()/csr() have been materialized yet. */
    bool cscReady() const { return csc_ != nullptr; }
    bool csrReady() const { return csr_ != nullptr; }

    /** Bytes of the stored edge_index (for transfer modeling). */
    uint64_t structureBytes() const;

  private:
    NodeId numNodes_ = 0;
    std::vector<NodeId> src_;
    std::vector<NodeId> dst_;
    mutable std::unique_ptr<graph::CsrGraph> csc_;
    mutable std::unique_ptr<graph::CsrGraph> csr_;
};

} // namespace pygx
} // namespace gnnbench

#endif // GNNBENCH_PYGX_DATA_H
