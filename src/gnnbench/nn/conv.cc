#include "gnnbench/nn/conv.h"

#include <cmath>

namespace gnnbench {
namespace nn {

const char *
convKindName(ConvKind kind)
{
    switch (kind) {
      case ConvKind::Gcn:
        return "GCNConv";
      case ConvKind::Gcn2:
        return "GCN2Conv";
      case ConvKind::Cheb:
        return "ChebConv";
      case ConvKind::Sage:
        return "SAGEConv";
      case ConvKind::Gat:
        return "GATConv";
      case ConvKind::Gatv2:
        return "GATv2Conv";
      case ConvKind::Tag:
        return "TAGConv";
      case ConvKind::Sg:
        return "SGConv";
    }
    return "?";
}

const std::vector<ConvKind> &
allConvKinds()
{
    static const std::vector<ConvKind> kinds = {
        ConvKind::Gcn, ConvKind::Gcn2, ConvKind::Cheb, ConvKind::Sage,
        ConvKind::Gat, ConvKind::Gatv2, ConvKind::Tag, ConvKind::Sg};
    return kinds;
}

std::vector<float>
gcnNorm(const graph::CsrGraph &sym_adj)
{
    GNNBENCH_CHECK(sym_adj.numRows == sym_adj.numCols,
                   "gcnNorm expects a square adjacency");
    std::vector<float> inv_sqrt(sym_adj.numRows);
    for (NodeId v = 0; v < sym_adj.numRows; ++v)
        inv_sqrt[v] = 1.0f / std::sqrt(
                                 static_cast<float>(sym_adj.degree(v)) +
                                 1.0f);
    std::vector<float> w(sym_adj.numEdges());
    EdgeId e = 0;
    for (NodeId r = 0; r < sym_adj.numRows; ++r)
        for (EdgeId i = sym_adj.indptr[r]; i < sym_adj.indptr[r + 1];
             ++i, ++e)
            w[e] = inv_sqrt[r] * inv_sqrt[sym_adj.indices[i]];
    return w;
}

std::vector<float>
selfScale(const graph::CsrGraph &sym_adj)
{
    std::vector<float> s(sym_adj.numRows);
    for (NodeId v = 0; v < sym_adj.numRows; ++v)
        s[v] =
            1.0f / (static_cast<float>(sym_adj.degree(v)) + 1.0f);
    return s;
}

std::vector<float>
invDegree(const graph::CsrGraph &csc)
{
    std::vector<float> s(csc.numRows);
    for (NodeId v = 0; v < csc.numRows; ++v) {
        const auto d = csc.degree(v);
        s[v] = d > 0 ? 1.0f / static_cast<float>(d) : 0.0f;
    }
    return s;
}

} // namespace nn
} // namespace gnnbench
