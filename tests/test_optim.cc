/** Tests for the Adam optimizer. */

#include <gtest/gtest.h>

#include <cmath>

#include "gnnbench/core/optim.h"

namespace gnnbench {
namespace core {
namespace {

/** Quadratic bowl: loss = 0.5 * ||x - target||^2, grad = x - target. */
void
setQuadraticGrad(const ag::Var &x, const Tensor &target)
{
    x->zeroGrad();
    x->accumulateGrad(ops::sub(x->value, target));
}

TEST(Adam, ConvergesOnQuadratic)
{
    ag::Var x = ag::leaf(Tensor::full(3, 1, -4.0f), true);
    Tensor target(3, 1);
    target(0, 0) = 1.0f;
    target(1, 0) = -2.0f;
    target(2, 0) = 0.5f;
    Adam opt({x}, 0.1f);
    for (int i = 0; i < 500; ++i) {
        setQuadraticGrad(x, target);
        opt.step();
    }
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_NEAR(x->value(i, 0), target(i, 0), 1e-2f);
}

TEST(Adam, FirstStepIsLrSized)
{
    // With bias correction, the first Adam step is ~lr * sign(grad).
    ag::Var x = ag::leaf(Tensor::full(1, 1, 0.0f), true);
    Adam opt({x}, 0.01f);
    x->accumulateGrad(Tensor::full(1, 1, 123.0f));
    opt.step();
    EXPECT_NEAR(x->value(0, 0), -0.01f, 1e-4f);
}

TEST(Adam, SkipsParamsWithoutGrad)
{
    ag::Var x = ag::leaf(Tensor::full(1, 1, 7.0f), true);
    Adam opt({x}, 0.1f);
    opt.step();  // no gradient accumulated
    EXPECT_EQ(x->value(0, 0), 7.0f);
}

TEST(Optimizer, ZeroGradClears)
{
    ag::Var x = ag::leaf(Tensor::full(1, 1, 0.0f), true);
    Adam opt({x}, 0.1f);
    x->accumulateGrad(Tensor::full(1, 1, 1.0f));
    opt.zeroGrad();
    EXPECT_TRUE(x->grad.empty());
}

TEST(Optimizer, RejectsNonGradParams)
{
    ag::Var c = ag::constant(Tensor::full(1, 1, 0.0f));
    EXPECT_DEATH(Adam({c}, 0.1f), "require grad");
}

} // namespace
} // namespace core
} // namespace gnnbench
