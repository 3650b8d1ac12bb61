/**
 * @file
 * The optimizer over autograd leaf parameters: Adam, the DGL/PyG
 * example default the paper's GNN models train with.
 */

#ifndef GNNBENCH_CORE_OPTIM_H
#define GNNBENCH_CORE_OPTIM_H

#include <vector>

#include "gnnbench/core/autograd.h"

namespace gnnbench {
namespace core {

/** Adam (Kingma & Ba, 2015) with PyTorch-default hyperparameters,
 *  over a fixed set of trainable parameters. */
class Adam
{
  public:
    Adam(std::vector<ag::Var> params, float lr = 1e-3f,
         float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f);

    /** Apply one update using the gradients currently accumulated. */
    void step();

    /** Clear the gradients of every parameter. */
    void zeroGrad();

    /** The managed parameters. */
    const std::vector<ag::Var> &params() const { return params_; }

  private:
    std::vector<ag::Var> params_;
    float lr_, beta1_, beta2_, eps_;
    int64_t t_ = 0;
    std::vector<Tensor> m_;
    std::vector<Tensor> v_;
};

} // namespace core
} // namespace gnnbench

#endif // GNNBENCH_CORE_OPTIM_H
