/**
 * @file
 * google-benchmark micro-benchmarks of the kernel-level claims:
 *  - dglx fused g-SpMM vs pygx torch_sparse-style SpMM vs pygx
 *    gather+scatter composition (the CPU-kernel gap of Obs. 2/3);
 *  - dglx counting-sort format conversion vs pygx torch.sort-style
 *    conversion (the CSC-conversion cost of Obs. 2);
 *  - the dense GEMM both frameworks share, in its three layouts;
 *  - the distributed trainer's exact fixed-point gradient GEMM.
 *
 * With `--json <path>` the binary instead runs the kernel-variant
 * comparison: Reference vs Tiled vs Simd SpMM on the fig05 conv-layer
 * aggregation workload (full-graph reduce at hidden width 256), per
 * reduce op, verifying bit-equal outputs and reporting each optimized
 * variant's speedup at `--threads` (default 4) virtual threads plus
 * its effective GB/s and nnz/s.  Timing uses per-chunk thread-CPU
 * seconds (kernels::KernelStats) list-scheduled onto the virtual
 * threads, so the measured parallel speedup is meaningful even on a
 * single-core machine.  `--reorder {none,rcm,degree}` applies the
 * graph::reorder locality pass to the workload first; the JSON mode
 * additionally measures the single-thread reordering win (best of
 * rcm/degree vs the unordered graph).  The JSON record is what
 * scripts/check_bench_regression.py appends to BENCH_kernels.json;
 * per-row `floor` fields carry the gate each row must clear.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "gnnbench/core/parse.h"
#include "gnnbench/dglx/kernels.h"
#include "gnnbench/dglx/sampler.h"
#include "gnnbench/dist/exact.h"
#include "gnnbench/graph/convert.h"
#include "gnnbench/graph/generate.h"
#include "gnnbench/graph/reorder.h"
#include "gnnbench/kernels/kernels.h"
#include "gnnbench/profiling/json_writer.h"
#include "gnnbench/pygx/sampler.h"
#include "gnnbench/pygx/scatter.h"

using namespace gnnbench;

namespace {

struct Workload
{
    graph::CooGraph coo;
    graph::CsrGraph csc;
    core::Tensor x;

    Workload(NodeId n, EdgeId m, int64_t f)
    {
        core::Rng rng(7);
        coo = graph::symmetrize(graph::rmat(n, m, rng), false);
        csc = graph::cooToCsc(coo);
        x = core::Tensor::randn(n, f, rng);
    }
};

Workload &
workload()
{
    static Workload w(20000, 120000, 64);
    return w;
}

void
BM_DglxFusedSpmm(benchmark::State &state)
{
    auto &w = workload();
    dglx::KernelCtx ctx;
    for (auto _ : state) {
        auto y = dglx::gspmm(w.csc, w.x, dglx::Reducer::Sum,
                             nullptr, ctx);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetBytesProcessed(state.iterations() * 4 *
                            w.csc.numEdges() * w.x.cols());
}
BENCHMARK(BM_DglxFusedSpmm);

void
BM_PygxTorchSparseSpmm(benchmark::State &state)
{
    auto &w = workload();
    pygx::KernelCtx ctx;
    for (auto _ : state) {
        auto y = pygx::spmm(w.csc, w.x, nullptr, ctx);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetBytesProcessed(state.iterations() * 4 *
                            w.csc.numEdges() * w.x.cols());
}
BENCHMARK(BM_PygxTorchSparseSpmm);

void
BM_PygxGatherScatter(benchmark::State &state)
{
    auto &w = workload();
    pygx::KernelCtx ctx;
    for (auto _ : state) {
        auto msgs = pygx::gather(w.x, w.coo.src, ctx);
        auto y = pygx::scatterSum(
            msgs, w.coo.dst,
            static_cast<NodeId>(w.x.rows()), ctx);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetBytesProcessed(state.iterations() * 12 *
                            w.csc.numEdges() * w.x.cols());
}
BENCHMARK(BM_PygxGatherScatter);

void
BM_DglxCountingSortCsc(benchmark::State &state)
{
    auto &w = workload();
    for (auto _ : state) {
        auto csc = graph::cooToCsc(w.coo);
        benchmark::DoNotOptimize(csc.indices.data());
    }
}
BENCHMARK(BM_DglxCountingSortCsc);

void
BM_PygxSortConversionCsc(benchmark::State &state)
{
    auto &w = workload();
    for (auto _ : state) {
        pygx::Data data(w.coo);
        benchmark::DoNotOptimize(&data.csc());
    }
}
BENCHMARK(BM_PygxSortConversionCsc);

/**
 * The dense GEMM both frameworks share, in its three layouts at the
 * shapes of one train_sage batch (flickr: 1568 block-0 destinations,
 * 500 features, hidden 256, 7 classes, 512 seeds).  Arg 0: forward
 * matmul 1568x500x256; 1: weight-gradient matmulTa into 500x256 from
 * 1568 rows; 2: input-gradient matmulTb 512x7x256.
 */
void
BM_SharedDenseGemm(benchmark::State &state)
{
    core::Rng rng(9);
    const core::Tensor x = core::Tensor::randn(1568, 500, rng);
    const core::Tensor w = core::Tensor::randn(500, 256, rng);
    const core::Tensor dy = core::Tensor::randn(1568, 256, rng);
    const core::Tensor dlogits = core::Tensor::randn(512, 7, rng);
    const core::Tensor w2 = core::Tensor::randn(256, 7, rng);
    const int64_t layout = state.range(0);
    for (auto _ : state) {
        core::Tensor c = layout == 0   ? core::ops::matmul(x, w)
                         : layout == 1 ? core::ops::matmulTa(x, dy)
                                       : core::ops::matmulTb(dlogits, w2);
        benchmark::DoNotOptimize(c.data());
    }
    const int64_t mkn[3] = {1568 * 500 * 256, 500 * 1568 * 256,
                            512 * 7 * 256};
    state.SetItemsProcessed(state.iterations() * 2 * mkn[layout]);
    state.SetLabel(layout == 0   ? "matmul 1568x500x256"
                   : layout == 1 ? "matmulTa 500x1568x256"
                                 : "matmulTb 512x7x256");
}
BENCHMARK(BM_SharedDenseGemm)->Arg(0)->Arg(1)->Arg(2);

/**
 * The distributed trainer's exact gradient GEMM at one dist_sage
 * rank's backward shapes (flickr x0.05, 4 ranks, hidden 64, 7
 * classes; rank 2 owns 1394 rows).  Arg 0: the layer-1 weight
 * gradient x^T dz1 into 500x64, dz1 about 60% zeros after the ReLU;
 * 1: the layer-2 gradient h1^T dz2 into 64x7.
 */
void
BM_ExactMatmulTa(benchmark::State &state)
{
    core::Rng rng(9);
    const bool layer1 = state.range(0) == 0;
    const core::Tensor a =
        core::Tensor::randn(1394, layer1 ? 500 : 64, rng);
    core::Tensor b = core::Tensor::randn(1394, layer1 ? 64 : 7, rng, 1e-3f);
    if (layer1)
        for (int64_t k = 0; k < b.numel(); ++k)
            if (rng.bernoulli(0.6))
                b.data()[k] = 0.0f;
    for (auto _ : state) {
        dist::ExactTensor g = dist::exactMatmulTa(a, b);
        benchmark::DoNotOptimize(g.raw(0));
    }
    state.SetItemsProcessed(state.iterations() * a.numel() * b.cols());
    state.SetLabel(layer1 ? "500x64 from 1394 rows" : "64x7 from 1394 rows");
}
BENCHMARK(BM_ExactMatmulTa)->Arg(0)->Arg(1);

void
BM_DglxNeighborSampleBatch(benchmark::State &state)
{
    auto &w = workload();
    dglx::Graph g(w.coo);
    dglx::NeighborSampler sampler(g, {25, 10}, core::Rng(11));
    std::vector<NodeId> seeds(512);
    for (NodeId i = 0; i < 512; ++i)
        seeds[i] = i;
    for (auto _ : state) {
        auto smp = sampler.sample(seeds);
        benchmark::DoNotOptimize(smp.blocks[0].srcNodes.data());
    }
}
BENCHMARK(BM_DglxNeighborSampleBatch);

void
BM_PygxNeighborSampleBatch(benchmark::State &state)
{
    auto &w = workload();
    pygx::Data data(w.coo);
    pygx::NeighborSampler sampler(data, {25, 10}, core::Rng(11),
                                  nullptr);
    std::vector<NodeId> seeds(512);
    for (NodeId i = 0; i < 512; ++i)
        seeds[i] = i;
    for (auto _ : state) {
        auto smp = sampler.sample(seeds);
        benchmark::DoNotOptimize(smp.layers[0].srcNodes.data());
    }
}
BENCHMARK(BM_PygxNeighborSampleBatch);

// ---------------------------------------------------------------
// Kernel-variant comparison mode (--json)
// ---------------------------------------------------------------

/** Best-of-N timing estimate.  On a shared single-core box the noise
 *  is one-sided (interference only ever slows a run down), so the
 *  minimum is the most stable estimator of the true cost. */
double
minOf(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

/**
 * Makespan of the chunk CPU-seconds list-scheduled onto @p t virtual
 * threads: chunks are assigned in dispatch order to the least-loaded
 * thread, mirroring the dynamic chunk scheduling of
 * core::parallelForChunks.
 */
double
criticalPath(const std::vector<double> &chunks, int t)
{
    std::vector<double> load(static_cast<size_t>(t), 0.0);
    for (double c : chunks)
        *std::min_element(load.begin(), load.end()) += c;
    return *std::max_element(load.begin(), load.end());
}

bool
bitsEqual(const core::Tensor &a, const core::Tensor &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

/** Per-(variant, op) comparison row against the Reference kernel. */
struct VariantRow
{
    const char *variant;
    const char *op;
    double floor; // speedup gate carried into BENCH_kernels.json
    double refSeconds;
    double workSeconds;
    double criticalPath;
    size_t chunks;
    double speedup;
    double gbps;    // modeled traffic / critical-path seconds
    double nnzPerS; // stored edges / critical-path seconds
    bool bitExact;
};

/** Single-thread locality win of one reordering method. */
struct ReorderRow
{
    const char *method;
    double baseSeconds; // unordered graph, 1 thread
    double reordSeconds;
    double speedup;
    double bwBefore;
    double bwAfter;
};

/** Work seconds (sum of chunk thread-CPU seconds) of one spmm run
 *  with @p variant at one thread. */
double
workSeconds(const graph::CsrGraph &adj, const core::Tensor &x,
            kernels::ReduceOp op, kernels::KernelVariant v)
{
    kernels::KernelStats s;
    kernels::spmm(adj, x, op, nullptr, v, &s);
    return std::accumulate(s.chunkSeconds.begin(),
                           s.chunkSeconds.end(), 0.0);
}

int
runVariantComparison(const std::string &json_path, int threads,
                     int repeats, graph::ReorderMethod reorder)
{
    // Speedup gates (vs Reference at `threads` virtual threads)
    // enforced by scripts/check_bench_regression.py via the per-row
    // `floor` field.  Simd lands register-blocked vectorized inner
    // loops on top of the Tiled decomposition, hence the higher bar.
    constexpr double kTiledFloor = 1.5;
    constexpr double kSimdFloor = 6.0;
    constexpr double kReorderFloor = 1.0;

    // The fig05 conv-layer aggregation: one full-graph neighborhood
    // reduce at the figure's hidden width (256) over the micro-bench
    // RMAT graph.
    constexpr int64_t kFeat = 256;
    core::Rng rng(7);
    graph::CooGraph coo =
        graph::symmetrize(graph::rmat(20000, 120000, rng), false);
    graph::CsrGraph csc = graph::cooToCsc(coo);
    if (reorder != graph::ReorderMethod::None)
        csc = graph::applyReordering(
            csc, graph::computeReordering(csc, reorder));
    core::Tensor x = core::Tensor::randn(csc.numCols, kFeat, rng);

    std::printf("=== kernel variant comparison "
                "(fig05 aggregation, n=%d, e=%lld, f=%lld, "
                "reorder=%s, %d virtual threads, best of %d) ===\n",
                csc.numRows, static_cast<long long>(csc.numEdges()),
                static_cast<long long>(kFeat),
                graph::reorderMethodName(reorder), threads, repeats);

    const kernels::ReduceOp ops[] = {kernels::ReduceOp::Sum,
                                     kernels::ReduceOp::Mean,
                                     kernels::ReduceOp::Max};
    const struct
    {
        kernels::KernelVariant v;
        double floor;
    } variants[] = {{kernels::KernelVariant::Tiled, kTiledFloor},
                    {kernels::KernelVariant::Simd, kSimdFloor}};

    // Modeled memory traffic, matching the kernel layer's noteCall
    // accounting: one x-row read per stored edge + the output write.
    const double bytes =
        static_cast<double>(csc.numEdges()) * kFeat * 4 +
        static_cast<double>(csc.numRows) * kFeat * 4;

    std::vector<VariantRow> rows;
    for (kernels::ReduceOp op : ops) {
        core::Tensor ref = kernels::spmm(
            csc, x, op, nullptr, kernels::KernelVariant::Reference);
        std::vector<double> refs;
        for (int r = 0; r < repeats; ++r) {
            kernels::KernelStats rs;
            kernels::spmm(csc, x, op, nullptr,
                          kernels::KernelVariant::Reference, &rs);
            refs.push_back(std::accumulate(rs.chunkSeconds.begin(),
                                           rs.chunkSeconds.end(),
                                           0.0));
        }
        const double refSeconds = minOf(refs);

        for (const auto &var : variants) {
            core::Tensor opt = kernels::spmm(csc, x, op, nullptr,
                                             var.v);
            const bool bits = bitsEqual(ref, opt);
            std::vector<double> works, crits;
            size_t chunks = 0;
            for (int r = 0; r < repeats; ++r) {
                kernels::KernelStats ts;
                kernels::spmm(csc, x, op, nullptr, var.v, &ts);
                works.push_back(
                    std::accumulate(ts.chunkSeconds.begin(),
                                    ts.chunkSeconds.end(), 0.0));
                crits.push_back(
                    criticalPath(ts.chunkSeconds, threads));
                chunks = ts.chunkSeconds.size();
            }
            VariantRow row;
            row.variant = kernels::variantName(var.v);
            row.op = kernels::reduceOpName(op);
            row.floor = var.floor;
            row.refSeconds = refSeconds;
            row.workSeconds = minOf(works);
            row.criticalPath = minOf(crits);
            row.chunks = chunks;
            row.speedup = row.refSeconds / row.criticalPath;
            row.gbps = bytes / row.criticalPath * 1e-9;
            row.nnzPerS = static_cast<double>(csc.numEdges()) /
                          row.criticalPath;
            row.bitExact = bits;
            rows.push_back(row);
            std::printf(
                "  spmm %-4s %-5s  reference %.4fs  work %.4fs "
                "(%zu chunks)  critical path@%d %.4fs  "
                "speedup %.2fx (floor %.1fx)  %.2f GB/s  "
                "%.2fM nnz/s  bit_exact=%s\n",
                row.op, row.variant, row.refSeconds, row.workSeconds,
                row.chunks, threads, row.criticalPath, row.speedup,
                row.floor, row.gbps, row.nnzPerS * 1e-6,
                row.bitExact ? "yes" : "NO");
        }
    }

    // Single-thread locality win: Auto-variant SpMM-sum on the
    // unordered vs reordered graph.  Only the best method is gated
    // (floor 1.0, no_regress): which method wins is workload- and
    // machine-dependent, so individual methods are informational.
    // Base and reordered runs are INTERLEAVED and scored best-of-N:
    // on a shared 1-core box, frequency drift and cache-warmth swings
    // between two back-to-back measurement blocks easily exceed the
    // ~10-20% locality effect, while min-of-interleaved pairs cancels
    // the drift.
    core::Rng rngRaw(7);
    const graph::CooGraph cooRaw = graph::symmetrize(
        graph::rmat(20000, 120000, rngRaw), false);
    graph::CsrGraph cscRaw = graph::cooToCsc(cooRaw);
    const double bwBefore = graph::averageBandwidth(cscRaw);
    const int reorderReps = repeats * 3;

    const graph::ReorderMethod methods[] = {
        graph::ReorderMethod::Rcm, graph::ReorderMethod::DegreeSort};
    std::vector<ReorderRow> reorderRows;
    const ReorderRow *best = nullptr;
    for (graph::ReorderMethod m : methods) {
        const graph::Reordering ro =
            graph::computeReordering(cscRaw, m);
        const graph::CsrGraph relabeled =
            graph::applyReordering(cscRaw, ro);
        const core::Tensor xp = graph::permuteRows(x, ro);
        double minBase = 0.0, minReord = 0.0;
        for (int r = 0; r < reorderReps; ++r) {
            const double b = workSeconds(cscRaw, x,
                                         kernels::ReduceOp::Sum,
                                         kernels::KernelVariant::Auto);
            const double t = workSeconds(relabeled, xp,
                                         kernels::ReduceOp::Sum,
                                         kernels::KernelVariant::Auto);
            if (r == 0 || b < minBase)
                minBase = b;
            if (r == 0 || t < minReord)
                minReord = t;
        }
        ReorderRow row;
        row.method = graph::reorderMethodName(m);
        row.baseSeconds = minBase;
        row.reordSeconds = minReord;
        row.speedup = row.baseSeconds / row.reordSeconds;
        row.bwBefore = bwBefore;
        row.bwAfter = graph::averageBandwidth(relabeled);
        reorderRows.push_back(row);
        std::printf("  reorder %-6s  1-thread spmm sum "
                    "%.4fs -> %.4fs  speedup %.2fx  "
                    "avg bandwidth %.0f -> %.0f\n",
                    row.method, row.baseSeconds, row.reordSeconds,
                    row.speedup, row.bwBefore, row.bwAfter);
    }
    for (const ReorderRow &row : reorderRows)
        if (!best || row.speedup > best->speedup)
            best = &row;

    std::ofstream out(json_path);
    GNNBENCH_CHECK(out.good(), "cannot open ", json_path);
    profiling::JsonWriter w(out);
    w.beginObject();
    w.value("bench", "micro_kernels");
    w.value("mode", "kernel_variants");
    w.value("workload", "fig05_conv_aggregation");
    w.value("nodes", static_cast<int64_t>(csc.numRows));
    w.value("edges", static_cast<int64_t>(csc.numEdges()));
    w.value("feat", kFeat);
    w.value("threads", threads);
    w.value("repeats", repeats);
    w.value("reorder", graph::reorderMethodName(reorder));
    // The dispatch policy's actual large-problem choice (post-Auto,
    // post-CPU-feature detection), e.g. "simd[avx2]".
    w.value("kernel_variant_resolved",
            kernels::resolvedVariantLabel());
    w.beginArray("results");
    for (const VariantRow &row : rows) {
        w.beginObject();
        w.value("variant", row.variant);
        w.value("op", row.op);
        w.value("floor", row.floor);
        w.value("reference_seconds", row.refSeconds);
        w.value("work_seconds", row.workSeconds);
        w.value("critical_path_seconds", row.criticalPath);
        w.value("chunks", static_cast<int64_t>(row.chunks));
        w.value("speedup", row.speedup);
        w.value("gbps", row.gbps);
        w.value("nnz_per_s", row.nnzPerS);
        w.value("bit_exact", row.bitExact);
        w.endObject();
    }
    for (const ReorderRow &row : reorderRows) {
        w.beginObject();
        w.value("variant", "reorder");
        w.value("op", "sum");
        w.value("method", row.method);
        if (best == &row) {
            w.value("floor", kReorderFloor);
            w.value("no_regress", true);
        }
        w.value("baseline_seconds", row.baseSeconds);
        w.value("reordered_seconds", row.reordSeconds);
        w.value("speedup", row.speedup);
        w.value("avg_bandwidth_before", row.bwBefore);
        w.value("avg_bandwidth_after", row.bwAfter);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << "\n";
    out.close();
    std::printf("variant comparison written to %s\n",
                json_path.c_str());

    bool ok = true;
    for (const VariantRow &row : rows)
        ok = ok && row.bitExact;
    if (!ok)
        std::fprintf(stderr,
                     "FAIL: an optimized variant diverges from the "
                     "reference golden model\n");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    int threads = 4;
    int repeats = 5;
    graph::ReorderMethod reorder = graph::ReorderMethod::None;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            GNNBENCH_CHECK(i + 1 < argc, "missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--json")
            json_path = next();
        else if (arg == "--threads")
            threads = core::parseInt<int>(arg, next());
        else if (arg == "--repeats")
            repeats = core::parseInt<int>(arg, next());
        else if (arg == "--reorder") {
            const std::string v = next();
            GNNBENCH_CHECK(
                graph::parseReorderMethod(v, &reorder),
                "--reorder must be one of ",
                graph::validReorderMethodList(), ", got ", v);
        }
    }
    if (!json_path.empty()) {
        return runVariantComparison(json_path, threads, repeats,
                                    reorder);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
