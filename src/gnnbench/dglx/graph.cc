#include "gnnbench/dglx/graph.h"

#include <cmath>

namespace gnnbench {
namespace dglx {

Graph::Graph(const graph::CooGraph &coo)
    : coo_(coo), csr_(graph::cooToCsr(coo)), csc_(graph::cooToCsc(coo)),
      inDeg_(graph::outDegrees(csc_)), outDeg_(graph::outDegrees(csr_))
{
    coo_.validate();
}

const std::vector<float> &
Graph::gcnNormCsc() const
{
    if (gcnNormCsc_.empty() && numEdges() > 0) {
        gcnNormCsc_.resize(numEdges());
        EdgeId e = 0;
        for (NodeId v = 0; v < csc_.numRows; ++v) {
            const double dv = static_cast<double>(inDeg_[v]) + 1.0;
            for (EdgeId i = csc_.indptr[v]; i < csc_.indptr[v + 1];
                 ++i, ++e) {
                const NodeId u = csc_.indices[i];
                const double du =
                    static_cast<double>(outDeg_[u]) + 1.0;
                gcnNormCsc_[e] =
                    static_cast<float>(1.0 / std::sqrt(du * dv));
            }
        }
    }
    return gcnNormCsc_;
}

const std::vector<float> &
Graph::gcnNormCsr() const
{
    if (gcnNormCsr_.empty() && numEdges() > 0) {
        gcnNormCsr_.resize(numEdges());
        EdgeId e = 0;
        for (NodeId u = 0; u < csr_.numRows; ++u) {
            const double du = static_cast<double>(outDeg_[u]) + 1.0;
            for (EdgeId i = csr_.indptr[u]; i < csr_.indptr[u + 1];
                 ++i, ++e) {
                const NodeId v = csr_.indices[i];
                const double dv =
                    static_cast<double>(inDeg_[v]) + 1.0;
                gcnNormCsr_[e] =
                    static_cast<float>(1.0 / std::sqrt(du * dv));
            }
        }
    }
    return gcnNormCsr_;
}

uint64_t
Graph::structureBytes() const
{
    return coo_.src.size() * sizeof(NodeId) * 2 +
           csr_.indptr.size() * sizeof(EdgeId) +
           csr_.indices.size() * sizeof(NodeId) +
           csc_.indptr.size() * sizeof(EdgeId) +
           csc_.indices.size() * sizeof(NodeId) +
           (inDeg_.size() + outDeg_.size()) * sizeof(EdgeId);
}

} // namespace dglx
} // namespace gnnbench
