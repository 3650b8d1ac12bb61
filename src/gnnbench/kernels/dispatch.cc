/**
 * @file
 * Kernel-layer dispatch policy, metrics plumbing, and the
 * differentiable SpMM op shared by both framework reimplementations.
 */

#include <atomic>
#include <cstdlib>
#include <string>

#include "gnnbench/core/common.h"
#include "gnnbench/core/parse.h"
#include "gnnbench/kernels/detail.h"
#include "gnnbench/kernels/kernels.h"
#include "gnnbench/kernels/simd.h"
#include "gnnbench/profiling/metrics_registry.h"
#include "gnnbench/profiling/trace.h"

namespace gnnbench {
namespace kernels {

using core::Tensor;

const char *
reduceOpName(ReduceOp op)
{
    switch (op) {
    case ReduceOp::Sum:
        return "sum";
    case ReduceOp::Mean:
        return "mean";
    case ReduceOp::Max:
        return "max";
    }
    return "?";
}

const char *
variantName(KernelVariant v)
{
    switch (v) {
    case KernelVariant::Auto:
        return "auto";
    case KernelVariant::Reference:
        return "reference";
    case KernelVariant::Tiled:
        return "tiled";
    case KernelVariant::Simd:
        return "simd";
    }
    return "?";
}

const char *
validVariantList()
{
    return "auto/reference/tiled/simd";
}

namespace {

/** The variants by name, in validVariantList() order. */
constexpr core::Choice<KernelVariant> kVariants[] = {
    {"auto", KernelVariant::Auto},
    {"reference", KernelVariant::Reference},
    {"tiled", KernelVariant::Tiled},
    {"simd", KernelVariant::Simd}};

} // namespace

bool
parseVariant(std::string_view name, KernelVariant *out)
{
    for (const auto &c : kVariants)
        if (name == c.word) {
            *out = c.value;
            return true;
        }
    return false;
}

namespace detail {

KernelVariant
variantFromEnvValue(const char *value)
{
    if (!value || !*value)
        return KernelVariant::Auto;
    return core::parseChoice("GNNBENCH_KERNEL_VARIANT", value, kVariants);
}

} // namespace detail

namespace {

KernelVariant
variantFromEnv()
{
    return detail::variantFromEnvValue(
        std::getenv("GNNBENCH_KERNEL_VARIANT"));
}

std::atomic<KernelVariant> &
defaultVariantSlot()
{
    static std::atomic<KernelVariant> slot{variantFromEnv()};
    return slot;
}

} // namespace

KernelVariant
defaultVariant()
{
    return defaultVariantSlot().load(std::memory_order_relaxed);
}

void
setDefaultVariant(KernelVariant v)
{
    defaultVariantSlot().store(v, std::memory_order_relaxed);
}

KernelVariant
resolveVariant(KernelVariant v, EdgeId nnz, int64_t f)
{
    if (v == KernelVariant::Auto)
        v = defaultVariant();
    if (v != KernelVariant::Auto)
        return v;
    (void)f;
    return nnz < Tiling::kAutoReferenceNnz ? KernelVariant::Reference
                                           : KernelVariant::Simd;
}

std::string
resolvedVariantLabel(KernelVariant v)
{
    // Report the Auto policy's large-problem choice — benches always
    // run well above the Reference cutover.
    const KernelVariant chosen =
        resolveVariant(v, Tiling::kAutoReferenceNnz + 1, 1);
    std::string label = variantName(chosen);
    if (chosen == KernelVariant::Simd)
        label += std::string("[") + simd::isaLabel() + "]";
    return label;
}

namespace detail {

void
noteCall(const char *family, uint64_t rows, uint64_t nnz,
         uint64_t bytes, KernelVariant chosen)
{
    auto &reg = profiling::MetricsRegistry::global();
    const std::string base(family);
    reg.counter(base + ".calls").add(1);
    reg.counter(base + ".rows").add(rows);
    reg.counter(base + ".nnz").add(nnz);
    reg.counter(base + ".bytes").add(bytes);
    reg.counter(std::string("kernels.variant.") + variantName(chosen))
        .add(1);
}

OpObserver::OpObserver(const char *family, uint64_t rows, uint64_t nnz,
                       const profiling::OpCost &cost,
                       KernelVariant chosen, KernelStats *stats)
    : family_(family), rows_(rows), nnz_(nnz), cost_(cost),
      chosen_(chosen), stats_(stats)
{
    auto &tr = profiling::TraceRecorder::global();
    if (tr.enabled()) {
        traced_ = true;
        traceStart_ = tr.now();
    }
}

OpObserver::~OpObserver()
{
    // Capture the measurements before anything expensive (the first
    // roofline call may run the calibration probe).
    const double secs = timer_.elapsed();
    const profiling::PerfDelta d = perf_.stop();
    double traceEnd = 0.0;
    if (traced_)
        traceEnd = profiling::TraceRecorder::global().now();

    noteCall(family_, rows_, nnz_,
             static_cast<uint64_t>(cost_.bytes), chosen_);
    profiling::MetricsRegistry::global()
        .counter(std::string(family_) + ".flops")
        .add(static_cast<uint64_t>(cost_.flops));
    profiling::addPerfDelta(std::string("perf.") + family_, d);

    if (stats_) {
        stats_->seconds = secs;
        stats_->cost = cost_;
        stats_->perf = d;
    }

    if (traced_) {
        std::vector<std::pair<std::string, double>> args;
        args.emplace_back("flops", cost_.flops);
        args.emplace_back("bytes", cost_.bytes);
        args.emplace_back("intensity", cost_.intensity());
        args.emplace_back(
            "roofline_fraction",
            profiling::rooflineFraction(
                cost_, secs, profiling::rooflineCalibration()));
        profiling::appendPerfArgs(d, &args);
        profiling::TraceRecorder::global().record(
            family_, "kernel", traceStart_, traceEnd,
            std::move(args));
    }
}

} // namespace detail

double
KernelStats::rooflineFraction() const
{
    return profiling::rooflineFraction(
        cost, seconds, profiling::rooflineCalibration());
}

core::ag::Var
spmmVar(std::shared_ptr<const graph::CsrGraph> adj,
        std::shared_ptr<const std::vector<float>> w, ReduceOp op,
        const core::ag::Var &x, KernelVariant v)
{
    GNNBENCH_CHECK(adj != nullptr, "spmmVar: adjacency is required");
    GNNBENCH_CHECK(op != ReduceOp::Max || w == nullptr,
                   "spmmVar: max reduce does not take edge weights");
    const float *wptr = w ? w->data() : nullptr;

    if (op == ReduceOp::Max) {
        auto arg = std::make_shared<std::vector<NodeId>>();
        Tensor out = spmmMaxArg(*adj, x->value, arg.get(), v);
        const int64_t f = x->value.cols();
        const NodeId srcRows = adj->numCols;
        return core::ag::makeOp(
            "kernels.spmm_max", std::move(out), {x},
            [adj, arg, f, srcRows, v](core::ag::Node &node) {
                core::ag::Var xin = node.parents[0];
                if (!xin->requiresGrad)
                    return;
                Tensor gx(srcRows, f);
                const NodeId rows = adj->numRows;
                for (NodeId r = 0; r < rows; ++r) {
                    const float *grow = node.grad.row(r);
                    const NodeId *arow =
                        arg->data() + static_cast<size_t>(r) * f;
                    for (int64_t j = 0; j < f; ++j) {
                        const NodeId s = arow[j];
                        if (s >= 0)
                            gx(s, j) += grow[j];
                    }
                }
                xin->accumulateGrad(gx);
            });
    }

    Tensor out = spmm(*adj, x->value, op, wptr, v);
    const char *name = op == ReduceOp::Mean ? "kernels.spmm_mean"
                                            : "kernels.spmm_sum";
    const bool mean = op == ReduceOp::Mean;
    return core::ag::makeOp(
        name, std::move(out), {x},
        [adj, w, mean, v](core::ag::Node &node) {
            core::ag::Var xin = node.parents[0];
            if (!xin->requiresGrad)
                return;
            const float *wb = w ? w->data() : nullptr;
            if (!mean) {
                xin->accumulateGrad(
                    spmmScatter(*adj, node.grad, wb, v));
                return;
            }
            // d(mean)/dx routes grad/degree through the transpose.
            Tensor scaled = node.grad;
            const int64_t f = scaled.cols();
            for (NodeId r = 0; r < adj->numRows; ++r) {
                const EdgeId deg = adj->degree(r);
                if (deg == 0)
                    continue;
                const float inv = 1.0f / static_cast<float>(deg);
                float *row = scaled.row(r);
                for (int64_t j = 0; j < f; ++j)
                    row[j] *= inv;
            }
            xin->accumulateGrad(spmmScatter(*adj, scaled, wb, v));
        });
}

} // namespace kernels
} // namespace gnnbench
