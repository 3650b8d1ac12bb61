/**
 * @file
 * Producer-consumer kernel graph with multi-kernel fusion.
 *
 * Frameworks record each op chain (sampling→gather→SpMM→activation)
 * as nodes and edges of a KernelGraph, then ask it to fuse eligible
 * producer-consumer pairs.  A successful fusion eliminates the
 * producer's materialized intermediate tensor — the traffic the
 * operation-level GNN studies identify as the dominant cost — and the
 * savings are accounted under "device.fusion.fused_bytes_saved".
 * Whether a pair fuses depends on three gates:
 *
 *  - the pair is in the eligible table: (Gather,Scatter),
 *    (MulEdge,Scatter), (Spmm,RowScale), (Spmm,Activation);
 *  - the recording framework supports fusion (dglx does; pygx does
 *    not — its per-op materialization is exactly the paper's
 *    Observation 3) and GNNBENCH_DEVICE_FUSION is on;
 *  - the producer has exactly one consumer (its output is not needed
 *    elsewhere).
 *
 * Eligible pairs declined by the latter two gates bump
 * "device.fusion.rejected_pairs"; ineligible pairs fail silently.
 *
 * The graph only decides and books; the framework executes.  dglx's
 * fused mean aggregation (gspmm_mean) is bit-identical to its
 * materialized SpMM-sum + row-scale pair for any thread count, so
 * fusion changes modeled traffic and never arithmetic.
 */

#ifndef GNNBENCH_KERNELS_FUSION_H
#define GNNBENCH_KERNELS_FUSION_H

#include <cstdint>
#include <string>
#include <vector>

namespace gnnbench {
namespace kernels {

/** Op kinds a kernel graph can record. */
enum class FusedOp
{
    Sample,
    Gather,
    MulEdge,
    Spmm,
    RowScale,
    Scatter,
    Activation,
};

const char *fusedOpName(FusedOp op);

/** Whether the GNNBENCH_DEVICE_FUSION knob is on for this process. */
bool fusionEnabled();

/**
 * One recorded producer-consumer chain.  Cheap to build per dispatch;
 * fuse() outcomes land in the process-wide "device.fusion.*"
 * counters as well as the local tallies.
 */
class KernelGraph
{
  public:
    /** @p framework_supports_fusion: whether the recording framework
     *  can execute fused kernels at all (dglx true, pygx false). */
    explicit KernelGraph(bool framework_supports_fusion);

    /** Record an op producing @p output_bytes of intermediate. */
    int addNode(FusedOp op, std::string name, uint64_t output_bytes);

    /** Record that @p consumer reads @p producer's output. */
    void addEdge(int producer, int consumer);

    /**
     * Try to fuse @p producer into @p consumer, eliminating
     * @p bytes_saved of modeled intermediate traffic.  Returns true
     * and books the savings on success; see the file comment for the
     * gating rules.
     */
    bool fuse(int producer, int consumer, uint64_t bytes_saved);

    bool supportsFusion() const { return supportsFusion_; }
    size_t numNodes() const { return nodes_.size(); }

    /// @name Local tallies of this graph's fuse() calls
    /// @{
    uint64_t fusedPairs() const { return fusedPairs_; }
    uint64_t bytesSaved() const { return bytesSaved_; }
    uint64_t rejectedPairs() const { return rejectedPairs_; }
    /// @}

  private:
    struct Node
    {
        FusedOp op;
        std::string name;
        uint64_t outputBytes;
        int consumers = 0;
    };

    bool edgeExists(int producer, int consumer) const;

    bool supportsFusion_;
    std::vector<Node> nodes_;
    std::vector<std::pair<int, int>> edges_;
    uint64_t fusedPairs_ = 0;
    uint64_t bytesSaved_ = 0;
    uint64_t rejectedPairs_ = 0;
};

} // namespace kernels
} // namespace gnnbench

#endif // GNNBENCH_KERNELS_FUSION_H
