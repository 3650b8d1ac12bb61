#include "gnnbench/nn/ops.h"

#include "gnnbench/core/timer.h"

namespace gnnbench {
namespace nn {

using core::Tensor;
using device::KernelDesc;

KernelDesc
sparseDesc(const char *name, double flops, double bytes,
           double efficiency, const KernelCtx &ctx)
{
    KernelDesc d;
    d.name = name;
    d.flops = flops;
    d.bytes = bytes;
    d.efficiency = efficiency;
    d.frameworkOverhead = ctx.costs.sparseCallOverhead;
    return d;
}

KernelDesc
elemDesc(const char *name, double elems, const KernelCtx &ctx)
{
    KernelDesc d;
    d.name = name;
    d.flops = 2.0 * elems;
    d.bytes = 8.0 * elems;
    d.efficiency = ctx.costs.gpuElemEff;
    d.frameworkOverhead = ctx.costs.denseCallOverhead;
    return d;
}

namespace {

KernelDesc
gemmDesc(int64_t m, int64_t k, int64_t n, const KernelCtx &ctx)
{
    KernelDesc d;
    d.name = "gemm";
    d.flops = 2.0 * static_cast<double>(m) * k * n;
    d.bytes = 4.0 * (static_cast<double>(m) * k +
                     static_cast<double>(k) * n +
                     static_cast<double>(m) * n);
    d.efficiency = ctx.costs.gpuGemmEff;
    d.frameworkOverhead = ctx.costs.denseCallOverhead;
    return d;
}

/** Charge one elementwise kernel pass over n elements. */
void
chargeElem(const KernelCtx &ctx, double n)
{
    ctx.session->chargeGpuKernel(elemDesc("elementwise", n, ctx));
}

} // namespace

Tensor
gemm(const Tensor &a, const Tensor &b, const KernelCtx &ctx)
{
    Tensor out;
    runKernel(ctx, gemmDesc(a.rows(), a.cols(), b.cols(), ctx),
              [&] { out = core::ops::matmul(a, b); });
    return out;
}

core::ag::Var
gemmVar(const core::ag::Var &a, const core::ag::Var &b,
        const KernelCtx &ctx)
{
    Tensor y = gemm(a->value, b->value, ctx);
    return core::ag::makeOp(
        "nn.gemm", std::move(y), {a, b},
        [a, b, ctx](core::ag::Node &n) {
            if (a->requiresGrad) {
                Tensor ga;
                runKernel(ctx,
                          gemmDesc(n.grad.rows(), n.grad.cols(),
                                   b->value.rows(), ctx),
                          [&] {
                              ga = core::ops::matmulTb(n.grad,
                                                       b->value);
                          });
                a->accumulateGrad(ga);
            }
            if (b->requiresGrad) {
                Tensor gb;
                runKernel(ctx,
                          gemmDesc(a->value.cols(), a->value.rows(),
                                   n.grad.cols(), ctx),
                          [&] {
                              gb = core::ops::matmulTa(a->value,
                                                       n.grad);
                          });
                b->accumulateGrad(gb);
            }
        });
}

core::ag::Var
elemVar(const KernelCtx &ctx,
        const std::function<core::ag::Var()> &build)
{
    if (!ctx.session || !ctx.onGpu())
        return build();
    // Forward runs with its wall time excluded and one elementwise
    // kernel charged; the backward is wrapped to do the same.
    core::Timer timer;
    core::ag::Var out = build();
    ctx.session->excludeWall(timer.elapsed());
    chargeElem(ctx, static_cast<double>(out->value.numel()));
    if (out->requiresGrad && out->backwardFn) {
        out->backwardFn = [inner = std::move(out->backwardFn),
                           ctx](core::ag::Node &n) {
            core::Timer t;
            inner(n);
            ctx.session->excludeWall(t.elapsed());
            chargeElem(ctx, static_cast<double>(n.value.numel()));
        };
    }
    return out;
}

core::ag::Var
addVar(const core::ag::Var &a, const core::ag::Var &b,
       const KernelCtx &ctx)
{
    return elemVar(ctx, [&] { return core::ag::add(a, b); });
}

core::ag::Var
addBiasVar(const core::ag::Var &x, const core::ag::Var &bias,
           const KernelCtx &ctx)
{
    return elemVar(ctx, [&] { return core::ag::addBias(x, bias); });
}

core::ag::Var
rowScaleVar(const core::ag::Var &x, std::vector<float> s,
            const KernelCtx &ctx)
{
    return elemVar(ctx, [&] {
        return core::ag::rowScale(x, std::move(s));
    });
}

core::ag::Var
scaleVar(const core::ag::Var &x, float alpha, const KernelCtx &ctx)
{
    return elemVar(ctx, [&] { return core::ag::scale(x, alpha); });
}

} // namespace nn
} // namespace gnnbench
