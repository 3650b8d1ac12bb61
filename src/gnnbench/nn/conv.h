/**
 * @file
 * The convolution vocabulary shared by the dglx and pygx 'nn' modules:
 * the eight benchmarked conv kinds, the parameter-registry base class
 * both frameworks' layers derive from, and the graph normalizations
 * the GCN-family and SAGE layers use.
 */

#ifndef GNNBENCH_NN_CONV_H
#define GNNBENCH_NN_CONV_H

#include <string>
#include <utility>
#include <vector>

#include "gnnbench/graph/csr.h"
#include "gnnbench/nn/ops.h"

namespace gnnbench {
namespace nn {

using core::ag::Var;

/**
 * The eight convolution layers the paper functional-tests in
 * Figure 5; both frameworks implement every kind.
 */
enum class ConvKind
{
    Gcn,
    Gcn2,
    Cheb,
    Sage,
    Gat,
    Gatv2,
    Tag,
    Sg,
};

/** Printable layer name ("GCNConv", ...). */
const char *convKindName(ConvKind kind);

/** All eight kinds, in the paper's Figure 5 order. */
const std::vector<ConvKind> &allConvKinds();

/**
 * Base class of every conv layer: the parameter registry plus the
 * full-graph forward over the framework's graph type @p GraphT
 * (dglx::Graph or pygx::Data).
 */
template <typename GraphT>
class Conv
{
  public:
    /**
     * @param trainable when false, parameters are constants and no
     * autograd tape is recorded (functional-testing mode).
     */
    Conv(std::string name, bool trainable)
        : name_(std::move(name)), trainable_(trainable)
    {
    }
    virtual ~Conv() = default;
    Conv(const Conv &) = delete;
    Conv &operator=(const Conv &) = delete;

    /** Full-graph forward (one message-passing step). */
    virtual Var forward(const GraphT &g, const Var &x,
                        const KernelCtx &ctx) = 0;

    const std::string &name() const { return name_; }
    const std::vector<Var> &params() const { return params_; }

    /** Total parameter bytes (for model-transfer accounting). */
    uint64_t
    paramBytes() const
    {
        uint64_t bytes = 0;
        for (const auto &p : params_)
            bytes += p->value.bytes();
        return bytes;
    }

  protected:
    /** Register one parameter tensor. */
    Var
    addParam(core::Tensor t)
    {
        params_.push_back(core::ag::leaf(std::move(t), trainable_));
        return params_.back();
    }

    std::string name_;
    bool trainable_;
    std::vector<Var> params_;
};

/// @name Graph normalizations
/// @{

/** Symmetric GCN weights 1/sqrt((d_r+1)(d_c+1)) for a symmetric
 *  adjacency, aligned with its row-major traversal. */
std::vector<float> gcnNorm(const graph::CsrGraph &sym_adj);

/** 1/(deg+1) self-loop scales used with gcnNorm. */
std::vector<float> selfScale(const graph::CsrGraph &sym_adj);

/** 1/in-degree row scales for mean aggregation (0 for isolated). */
std::vector<float> invDegree(const graph::CsrGraph &csc);

/// @}

} // namespace nn
} // namespace gnnbench

#endif // GNNBENCH_NN_CONV_H
