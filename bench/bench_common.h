/**
 * @file
 * Shared command-line handling for the figure benchmarks.
 *
 * Every bench accepts:
 *   --datasets a,b,c   subset of Table 1 datasets (default: all six)
 *   --scale f          multiplier on each dataset's default scale
 *   --epochs n         training epochs for the end-to-end benches
 *   --seed s           RNG seed
 *   --csv prefix       also write each table to <prefix><table>.csv
 *   --json path        write the unified run report (Chrome-trace
 *                      JSON + structured results) and enable tracing
 *   --workers n        dataloader num_workers for the model benches
 *   --kernel-variant v sparse-kernel variant (see
 *                      kernels::validVariantList()) for the shared
 *                      gnnbench::kernels layer
 *   --reorder m        graph-reordering locality pass (none/degree/
 *                      rcm) applied to every loaded dataset before
 *                      the bench runs — results are permutation-
 *                      equivalent to the unordered run
 *   --metrics-port p   serve the live OpenMetrics rendering of the
 *                      process registry on 127.0.0.1:p while the
 *                      bench runs (0 picks an ephemeral port; off by
 *                      default)
 *   --metrics-dump f   write the final OpenMetrics rendering to f
 *                      (CI artifact capture; independent of --json)
 */

#ifndef GNNBENCH_BENCH_COMMON_H
#define GNNBENCH_BENCH_COMMON_H

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "gnnbench/core/parse.h"
#include "gnnbench/device/hierarchy.h"
#include "gnnbench/graph/datasets.h"
#include "gnnbench/graph/reorder.h"
#include "gnnbench/kernels/kernels.h"
#include "gnnbench/profiling/exporter.h"
#include "gnnbench/profiling/metrics_registry.h"
#include "gnnbench/profiling/report.h"
#include "gnnbench/profiling/trace.h"

namespace gnnbench {
namespace bench {

struct Options
{
    std::vector<std::string> datasets = graph::datasetNames();
    double scale = 1.0;
    int epochs = 10;
    uint64_t seed = 42;
    /** When non-empty, tables are also written to
     *  "<csvPrefix><table>.csv" for machine consumption. */
    std::string csvPrefix;
    /** When non-empty, the unified run report (trace + results) is
     *  written here and the trace recorder runs during the bench. */
    std::string jsonPath;
    /** Dataloader num_workers for benches that train models. */
    int numWorkers = 0;
    /** Locality pass applied by bench::loadDataset (--reorder). */
    graph::ReorderMethod reorder = graph::ReorderMethod::None;
    /** Port for the live OpenMetrics listener (-1 = off, 0 =
     *  ephemeral). */
    int metricsPort = -1;
    /** When non-empty, the final OpenMetrics rendering is written
     *  here by writeJsonReport (works without --json). */
    std::string metricsDumpPath;
};

inline std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        const size_t comma = s.find(',', start);
        const size_t end = comma == std::string::npos ? s.size()
                                                      : comma;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

inline Options
parseOptions(int argc, char **argv, Options opts = Options{})
{
    // Force the lazy GNNBENCH_KERNEL_VARIANT read now, so a bad env
    // value dies at startup with the clear message instead of being
    // silently ignored by benches that never dispatch a kernel.
    kernels::defaultVariant();
    // Same contract for the GNNBENCH_DEVICE_* hierarchy knobs.
    device::deviceConfig();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            GNNBENCH_CHECK(i + 1 < argc, "missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--datasets") {
            opts.datasets = splitCsv(next());
        } else if (arg == "--scale") {
            opts.scale = core::parsePositive(arg, next());
        } else if (arg == "--epochs") {
            opts.epochs = core::parseInt<int>(arg, next());
        } else if (arg == "--seed") {
            opts.seed = core::parseInt<uint64_t>(arg, next(), 0);
        } else if (arg == "--csv") {
            opts.csvPrefix = next();
        } else if (arg == "--json") {
            opts.jsonPath = next();
        } else if (arg == "--workers") {
            opts.numWorkers = core::parseInt<int>(arg, next(), 0);
        } else if (arg == "--kernel-variant") {
            const std::string v = next();
            kernels::KernelVariant kv;
            GNNBENCH_CHECK(kernels::parseVariant(v, &kv),
                           "--kernel-variant must be one of ",
                           kernels::validVariantList(), ", got ", v);
            kernels::setDefaultVariant(kv);
        } else if (arg == "--reorder") {
            const std::string v = next();
            GNNBENCH_CHECK(
                graph::parseReorderMethod(v, &opts.reorder),
                "--reorder must be one of ",
                graph::validReorderMethodList(), ", got ", v);
        } else if (arg == "--metrics-port") {
            opts.metricsPort = core::parseInt<int>(arg, next(), 0, 65535);
        } else if (arg == "--metrics-dump") {
            opts.metricsDumpPath = next();
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [--datasets a,b,c] [--scale f] "
                        "[--epochs n] [--seed s] [--csv prefix] "
                        "[--json path] [--workers n] "
                        "[--kernel-variant v] [--reorder m] "
                        "[--metrics-port p] [--metrics-dump f]\n",
                        argv[0]);
            std::exit(0);
        } else {
            GNNBENCH_CHECK(false, "unknown argument ", arg);
        }
    }
    // Tracing must be live while the bench runs, so --json enables
    // the process recorder right at option-parse time.
    if (!opts.jsonPath.empty())
        profiling::TraceRecorder::global().enable();
    // The metrics listener likewise starts before the bench body;
    // it lives for the rest of the process (scrapes stay valid
    // through report writing).
    if (opts.metricsPort >= 0) {
        static profiling::MetricsHttpServer server(
            profiling::MetricsRegistry::global(), opts.metricsPort);
        if (server.ok())
            std::printf("serving OpenMetrics on 127.0.0.1:%d\n",
                        server.port());
        else
            std::fprintf(stderr,
                         "warning: --metrics-port %d: bind failed, "
                         "metrics listener disabled\n",
                         opts.metricsPort);
    }
    return opts;
}

/** The parsed options as report key/value pairs. */
inline std::vector<std::pair<std::string, std::string>>
optionPairs(const Options &opts)
{
    std::string datasets;
    for (const auto &d : opts.datasets)
        datasets += (datasets.empty() ? "" : ",") + d;
    return {{"datasets", datasets},
            {"scale", std::to_string(opts.scale)},
            {"epochs", std::to_string(opts.epochs)},
            {"seed", std::to_string(opts.seed)},
            {"workers", std::to_string(opts.numWorkers)},
            // The sparse-kernel dispatch policy active during the
            // bench, so reports are comparable across variants.
            {"kernel_variant",
             kernels::variantName(kernels::defaultVariant())},
            // What that policy actually resolves to on this machine
            // (post-Auto, post-CPU-feature dispatch): "simd[avx2]",
            // "simd[portable]", "tiled", or "reference".
            {"kernel_variant_resolved",
             kernels::resolvedVariantLabel(
                 kernels::defaultVariant())},
            {"reorder", graph::reorderMethodName(opts.reorder)}};
}

/**
 * Load a Table-1 dataset and apply the --reorder locality pass.  All
 * benches load through this helper so the reordering preprocessing is
 * uniformly exposed; results stay permutation-equivalent to the
 * unordered run (see graph::reorderDataset).
 */
inline graph::Dataset
loadDataset(const std::string &name, const Options &opts)
{
    graph::Dataset ds =
        graph::loadDataset(name, opts.scale, opts.seed);
    graph::reorderDataset(ds, opts.reorder);
    return ds;
}

/**
 * Write the unified run report to opts.jsonPath (no-op without
 * --json).  Benches call this once, after all tables are final; the
 * global trace and metrics snapshots ride along.
 */
inline void
writeJsonReport(
    const Options &opts, const char *bench_name,
    std::vector<std::pair<std::string, const profiling::Table *>>
        tables,
    std::vector<profiling::RunRecord> runs = {},
    std::function<void(profiling::JsonWriter &)> resultsEmitter = {})
{
    if (!opts.metricsDumpPath.empty()) {
        profiling::writeOpenMetricsFile(
            opts.metricsDumpPath, profiling::MetricsRegistry::global());
        std::printf("metrics dump written to %s\n",
                    opts.metricsDumpPath.c_str());
    }
    if (opts.jsonPath.empty())
        return;
    profiling::RunReportContext ctx;
    ctx.benchName = bench_name;
    ctx.options = optionPairs(opts);
    ctx.runs = std::move(runs);
    ctx.tables = std::move(tables);
    ctx.resultsEmitter = std::move(resultsEmitter);
    ctx.trace = &profiling::TraceRecorder::global();
    ctx.metrics = &profiling::MetricsRegistry::global();
    profiling::writeRunReport(opts.jsonPath, ctx);
    std::printf("run report written to %s\n", opts.jsonPath.c_str());
}

/** Print the standard bench banner with the applied scales. */
inline void
banner(const char *title, const Options &opts)
{
    std::printf("=== %s ===\n", title);
    std::printf("datasets (scale = published-default x %.3g):\n",
                opts.scale);
    for (const auto &name : opts.datasets) {
        const auto &info = graph::datasetInfo(name);
        std::printf("  %-13s default %.5f -> applied %.5f\n",
                    info.name.c_str(), info.defaultScale,
                    info.defaultScale * opts.scale);
    }
    std::printf("\n");
}

} // namespace bench
} // namespace gnnbench

#endif // GNNBENCH_BENCH_COMMON_H
