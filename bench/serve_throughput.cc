/**
 * @file
 * Latency-SLO serving benchmark: drives the multi-tenant inference
 * server with a synthetic load generator and reports the
 * serving-efficiency figures of merit — per-tenant p50/p95/p99
 * latency, sustained QPS, the micro-batch size distribution, shed and
 * deadline-miss counts.  Halfway through the measured run a new
 * weight version is hot-swapped in under load, so the numbers cover
 * the snapshot-isolated publish path, not just steady state.
 *
 * With --json the unified run report carries a top-level "results"
 * array of gate rows (sustained QPS with a floor, p99 with a
 * ceiling), consumed by scripts/check_bench_regression.py --mode
 * serve against BENCH_serve.json.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gnnbench/core/parse.h"
#include "gnnbench/dglx/dataloader.h"
#include "gnnbench/graph/datasets.h"
#include "gnnbench/profiling/exporter.h"
#include "gnnbench/profiling/metrics_registry.h"
#include "gnnbench/profiling/report.h"
#include "gnnbench/profiling/trace.h"
#include "gnnbench/serve/loadgen.h"
#include "gnnbench/serve/server.h"

using namespace gnnbench;

namespace {

struct ServeBenchOptions
{
    std::string dataset = "ppi";
    double scale = 1.0;
    int64_t requests = 2000;
    int64_t warmup = 200;
    int hidden = 64;
    uint64_t seed = 42;
    std::string jsonPath;
    /** OpenMetrics listener port (-1 off, 0 ephemeral). */
    int metricsPort = -1;
    /** OpenMetrics text dump written after the run. */
    std::string metricsDumpPath;
    serve::ServeConfig serveCfg;
    serve::LoadGenConfig loadCfg;
    /** Gate thresholds embedded in the --json result rows. */
    double qpsFloor = 200.0;
    double p99CeilingMs = 45.0;
};

ServeBenchOptions
parseOptions(int argc, char **argv)
{
    ServeBenchOptions opts;
    // Env overrides first, CLI flags second: a flag wins over the
    // environment, and both paths validate eagerly and fatally.
    opts.serveCfg = serve::applyServeEnv(opts.serveCfg);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            GNNBENCH_CHECK(i + 1 < argc, "missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--dataset") {
            opts.dataset = next();
        } else if (arg == "--scale") {
            opts.scale = core::parsePositive(arg, next());
        } else if (arg == "--requests") {
            opts.requests = core::parseInt<int64_t>(arg, next());
        } else if (arg == "--warmup") {
            opts.warmup = core::parseInt<int64_t>(arg, next());
        } else if (arg == "--hidden") {
            opts.hidden = core::parseInt<int>(arg, next());
        } else if (arg == "--seed") {
            opts.seed = core::parseInt<uint64_t>(arg, next(), 0);
        } else if (arg == "--json") {
            opts.jsonPath = next();
        } else if (arg == "--metrics-port") {
            opts.metricsPort = core::parseInt<int>(arg, next(), 0, 65535);
        } else if (arg == "--metrics-dump") {
            opts.metricsDumpPath = next();
        } else if (arg == "--tenants") {
            opts.loadCfg.tenants = core::parseInt<int>(arg, next());
        } else if (arg == "--target-qps") {
            opts.loadCfg.targetQps = core::parsePositive(arg, next());
        } else if (arg == "--clients") {
            opts.loadCfg.closedLoopClients = core::parseInt<int>(arg, next());
        } else if (arg == "--arrival") {
            const std::string v = next();
            GNNBENCH_CHECK(
                serve::parseArrival(v, &opts.loadCfg.arrival),
                "--arrival must be one of ",
                serve::validArrivalList(), ", got ", v);
        } else if (arg == "--workers") {
            opts.serveCfg.workers = core::parseInt<int>(arg, next());
        } else if (arg == "--max-batch") {
            opts.serveCfg.maxBatch = core::parseInt<int>(arg, next());
        } else if (arg == "--queue-depth") {
            opts.serveCfg.queueDepth = core::parseInt<int>(arg, next());
        } else if (arg == "--slo-ms") {
            opts.serveCfg.sloSeconds = core::parsePositive(arg, next()) * 1e-3;
        } else if (arg == "--qps-floor") {
            opts.qpsFloor = core::parsePositive(arg, next());
        } else if (arg == "--p99-ceiling-ms") {
            opts.p99CeilingMs = core::parsePositive(arg, next());
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--dataset name] [--scale f] "
                "[--requests n] [--warmup n] [--hidden n] "
                "[--seed s] [--json path] [--tenants n] "
                "[--target-qps q] [--clients n] "
                "[--arrival %s] [--workers n] [--max-batch n] "
                "[--queue-depth n] [--slo-ms x] [--qps-floor q] "
                "[--p99-ceiling-ms x] [--metrics-port p] "
                "[--metrics-dump path]\n",
                argv[0], serve::validArrivalList());
            std::exit(0);
        } else {
            GNNBENCH_CHECK(false, "unknown argument ", arg);
        }
    }
    opts.loadCfg.requests = opts.requests;
    opts.serveCfg.seed = opts.seed;
    opts.loadCfg.seed = opts.seed ^ 0x10adceedULL;
    if (!opts.jsonPath.empty())
        profiling::TraceRecorder::global().enable();
    if (opts.metricsPort >= 0) {
        // Lives for the whole process so mid-run scrapes see the
        // collector's live SLO gauges; a failed bind only warns.
        static profiling::MetricsHttpServer server(
            profiling::MetricsRegistry::global(), opts.metricsPort);
        if (server.ok())
            std::printf("serving OpenMetrics on 127.0.0.1:%d\n",
                        server.port());
        else
            std::fprintf(stderr,
                         "warning: --metrics-port %d bind failed; "
                         "continuing without the listener\n",
                         opts.metricsPort);
    }
    return opts;
}

/** Sorted latencies (seconds) of one response subset. */
std::vector<double>
sortedLatencies(const std::vector<serve::Response> &responses,
                int32_t tenant /* -1 = all */)
{
    std::vector<double> out;
    for (const auto &r : responses)
        if (tenant < 0 || r.tenant == tenant)
            out.push_back(r.latency());
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const ServeBenchOptions opts = parseOptions(argc, argv);

    std::printf("=== serve_throughput ===\n");
    std::printf("dataset %s (scale x%.3g), %lld requests "
                "(+%lld warmup), arrival %s",
                opts.dataset.c_str(), opts.scale,
                static_cast<long long>(opts.requests),
                static_cast<long long>(opts.warmup),
                serve::arrivalName(opts.loadCfg.arrival));
    if (opts.loadCfg.arrival == serve::Arrival::Poisson)
        std::printf(" @ %.0f qps", opts.loadCfg.targetQps);
    else
        std::printf(" x %d clients", opts.loadCfg.closedLoopClients);
    std::printf(", %d tenants, %d workers, max batch %d, "
                "SLO %.1f ms\n\n",
                opts.loadCfg.tenants, opts.serveCfg.workers,
                opts.serveCfg.maxBatch,
                opts.serveCfg.sloSeconds * 1e3);

    graph::Dataset ds =
        graph::loadDataset(opts.dataset, opts.scale, opts.seed);
    dglx::LoadedData data = dglx::DataLoader::load(ds);
    const serve::RealClock clock;
    serve::Server server(data, opts.serveCfg, clock);
    server.publish(serve::makeSageWeights(
        data.features.cols(), opts.hidden, ds.info.numClasses,
        opts.seed));

    // Warmup: same arrival process, results discarded.
    {
        serve::LoadGenConfig warm = opts.loadCfg;
        warm.requests = opts.warmup;
        serve::runLoadGen(server, warm, clock);
        server.drain();
        server.takeResponses();
    }

    // Measured run, with a weight hot-swap published under load at
    // the halfway mark (a swapper thread watches completion count).
    const uint64_t warmupAdmitted = server.admitted();
    std::atomic<bool> stopSwapper{false};
    std::atomic<uint64_t> swapVersion{0};
    std::thread swapper([&] {
        const uint64_t half =
            warmupAdmitted + static_cast<uint64_t>(opts.requests) / 2;
        while (!stopSwapper.load() && server.completed() < half)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        if (stopSwapper.load())
            return;
        swapVersion.store(server.publish(serve::makeSageWeights(
            data.features.cols(), opts.hidden, ds.info.numClasses,
            opts.seed + 1)));
    });

    const double t0 = clock.now();
    const serve::LoadGenResult gen =
        serve::runLoadGen(server, opts.loadCfg, clock);
    server.drain();
    stopSwapper.store(true);
    swapper.join();
    const double t1 = clock.now();
    std::vector<serve::Response> responses = server.takeResponses();
    server.shutdown();

    const double elapsed = t1 - t0;
    const double qps =
        elapsed > 0.0 ? static_cast<double>(responses.size()) / elapsed
                      : 0.0;

    // Per-tenant latency percentiles.
    profiling::Table latency({"tenant", "requests", "p50 ms",
                              "p95 ms", "p99 ms", "miss %"});
    profiling::LatencySummary overall{};
    {
        const std::vector<double> all = sortedLatencies(responses, -1);
        if (!all.empty())
            overall = profiling::latencySummary(all);
        for (int32_t t = 0; t < opts.loadCfg.tenants; ++t) {
            const std::vector<double> lat =
                sortedLatencies(responses, t);
            if (lat.empty())
                continue;
            int64_t misses = 0;
            for (const auto &r : responses)
                if (r.tenant == t && r.missedDeadline())
                    ++misses;
            const auto s = profiling::latencySummary(lat);
            latency.addRow(
                {std::to_string(t),
                 std::to_string(lat.size()),
                 profiling::fmtFixed(s.p50 * 1e3, 2),
                 profiling::fmtFixed(s.p95 * 1e3, 2),
                 profiling::fmtFixed(s.p99 * 1e3, 2),
                 profiling::fmtFixed(
                     100.0 * static_cast<double>(misses) /
                         static_cast<double>(lat.size()),
                     1)});
        }
        latency.addRow({"all", std::to_string(all.size()),
                        profiling::fmtFixed(overall.p50 * 1e3, 2),
                        profiling::fmtFixed(overall.p95 * 1e3, 2),
                        profiling::fmtFixed(overall.p99 * 1e3, 2),
                        ""});
    }
    latency.print();
    std::printf("\n");

    // Micro-batch size distribution (one entry per formed batch).
    profiling::Table batches({"batch size", "batches", "requests"});
    {
        std::map<int, int64_t> sizeCounts;
        std::map<uint64_t, int> batchSize;
        for (const auto &r : responses)
            batchSize[r.batchId] = r.batchSize;
        for (const auto &[id, size] : batchSize)
            ++sizeCounts[size];
        for (const auto &[size, count] : sizeCounts)
            batches.addRow({std::to_string(size),
                            std::to_string(count),
                            std::to_string(size * count)});
    }
    batches.print();
    std::printf("\n");

    int64_t misses = 0;
    std::map<uint64_t, int64_t> byVersion;
    for (const auto &r : responses) {
        if (r.missedDeadline())
            ++misses;
        ++byVersion[r.weightVersion];
    }
    profiling::Table summary({"metric", "value"});
    summary.addRow({"sustained qps", profiling::fmtFixed(qps, 1)});
    summary.addRow({"completed",
                    std::to_string(responses.size())});
    summary.addRow({"shed", std::to_string(gen.shed)});
    summary.addRow({"deadline misses", std::to_string(misses)});
    summary.addRow({"queue peak depth",
                    std::to_string(server.queuePeakDepth())});
    summary.addRow({"hot-swap version",
                    std::to_string(swapVersion.load())});
    for (const auto &[v, n] : byVersion)
        summary.addRow({"served by v" + std::to_string(v),
                        std::to_string(n)});
    summary.print();

    if (!opts.metricsDumpPath.empty()) {
        profiling::writeOpenMetricsFile(
            opts.metricsDumpPath,
            profiling::MetricsRegistry::global());
        std::printf("wrote OpenMetrics dump to %s\n",
                    opts.metricsDumpPath.c_str());
    }

    if (!opts.jsonPath.empty()) {
        profiling::RunReportContext ctx;
        ctx.benchName = "serve_throughput";
        ctx.options = {
            {"dataset", opts.dataset},
            {"scale", std::to_string(opts.scale)},
            {"requests", std::to_string(opts.requests)},
            {"warmup", std::to_string(opts.warmup)},
            {"arrival",
             serve::arrivalName(opts.loadCfg.arrival)},
            {"target_qps", std::to_string(opts.loadCfg.targetQps)},
            {"tenants", std::to_string(opts.loadCfg.tenants)},
            {"workers", std::to_string(opts.serveCfg.workers)},
            {"max_batch", std::to_string(opts.serveCfg.maxBatch)},
            {"slo_ms",
             std::to_string(opts.serveCfg.sloSeconds * 1e3)},
            {"hidden", std::to_string(opts.hidden)},
            {"seed", std::to_string(opts.seed)},
        };
        ctx.tables = {{"latency", &latency},
                      {"batch_sizes", &batches},
                      {"summary", &summary}};
        ctx.trace = &profiling::TraceRecorder::global();
        ctx.metrics = &profiling::MetricsRegistry::global();
        const double shedCount = static_cast<double>(gen.shed);
        const double missCount = static_cast<double>(misses);
        ctx.resultsEmitter = [&](profiling::JsonWriter &w) {
            auto row = [&](const char *op, double value) {
                w.beginObject();
                w.value("variant", "serve");
                w.value("op", op);
                w.value("value", value);
                w.value("no_regress", true);
                return &w;
            };
            w.beginArray("results");
            row("qps", qps);
            w.value("floor", opts.qpsFloor);
            w.endObject();
            row("p99_ms", overall.p99 * 1e3);
            w.value("ceiling", opts.p99CeilingMs);
            w.endObject();
            row("p50_ms", overall.p50 * 1e3);
            w.endObject();
            row("p95_ms", overall.p95 * 1e3);
            w.endObject();
            row("shed", shedCount);
            w.endObject();
            row("deadline_misses", missCount);
            w.endObject();
            w.endArray();
        };
        profiling::writeRunReport(opts.jsonPath, ctx);
        std::printf("\nrun report written to %s\n",
                    opts.jsonPath.c_str());
    }
    return 0;
}
