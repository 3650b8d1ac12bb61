/**
 * @file
 * The repository benchmark: one command, four workloads.
 *
 *   perfbench --workload train_sage|sample_epoch|serve_open|dist_sage
 *             --seed N --seconds S --trace 0|1 [--tiny]
 *
 * Prints a human-readable report (every figure by name, with unit and
 * a measured/modeled label, plus the settings the run used), then, as
 * the last line, one JSON object {correct, attempted, failed, metrics}.
 * With --trace 0 the metrics are the end-to-end slots; with --trace 1
 * they are the per-layer metrics of the traced run.  A failed output
 * check is printed by name and makes the exit code 1.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "gnnbench/check/validate.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/kernels/kernels.h"

using namespace perfbench;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, in BENCHMARK.json order. */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"primary_ms", "ms"},
    {"secondary_ms", "ms"},    {"tertiary_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

/** Per-layer metrics, in BENCHMARK.json order.  A layer a workload
 *  does not exercise reads 0. */
constexpr MetricDef kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"trace.coverage", "%"},
    {"trace.overhead", "%"},
    {"share.dglx.sample", "%"},
    {"share.pygx.sample", "%"},
    {"share.core.gather", "%"},
    {"share.dglx.forward", "%"},
    {"share.pygx.forward", "%"},
    {"share.core.backward", "%"},
    {"share.core.optim", "%"},
    {"share.kernels", "%"},
    {"share.prefetch.wait", "%"},
    {"share.serve.sample", "%"},
    {"share.serve.infer", "%"},
    {"share.dist.train", "%"},
    {"kernels.calls", "count"},
    {"kernels.nnz", "count"},
    {"kernels.bytes", "bytes"},
    {"kernels.flops", "count"},
    {"sample.input_nodes_per_batch", "count"},
    {"sample.edges_per_batch", "count"},
    {"prefetch.dequeue_blocks", "count"},
    {"device.l2.hits", "count"},
    {"device.l2.misses", "count"},
    {"device.vram.hits", "count"},
    {"device.vram.misses", "count"},
    {"device.dma.bytes", "bytes"},
    {"device.kernel.bytes", "bytes"},
    {"device.fusion.fused_bytes_saved", "bytes"},
    {"xfer.h2d_bytes", "bytes"},
    {"comm.messages", "count"},
    {"comm.allreduces", "count"},
    {"comm.bytes.halo", "bytes"},
    {"comm.bytes.allreduce", "bytes"},
    {"datastore.hits", "count"},
    {"datastore.misses", "count"},
    {"datastore.evictions", "count"},
    {"datastore.fetch.bytes", "bytes"},
    {"serve.batch_size_mean", "count"},
    {"serve.queue_depth_peak", "count"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "train_sage|sample_epoch|serve_open|dist_sage "
                 "--seed N --seconds S --trace 0|1 [--tiny]\n",
                 why);
    return 2;
}

bool
parseArgs(int argc, char **argv, Options *opt)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--tiny") {
            opt->tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt->workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            opt->seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                return false;
        } else if (a == "--seconds") {
            opt->seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(opt->seconds > 0.0))
                return false;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return false;
            opt->trace = v == "1";
        } else {
            return false;
        }
    }
    return have_workload;
}

void
printJsonNumber(double v)
{
    if (std::isfinite(v))
        std::printf("%.17g", v);
    else
        std::printf("0");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, &opt))
        return usage("bad arguments");
    void (*run)(const Options &, Result &) = nullptr;
    if (opt.workload == "train_sage")
        run = runTrainSage;
    else if (opt.workload == "sample_epoch")
        run = runSampleEpoch;
    else if (opt.workload == "serve_open")
        run = runServeOpen;
    else if (opt.workload == "dist_sage")
        run = runDistSage;
    else
        return usage(("unknown workload '" + opt.workload + "'").c_str());

    // Validators off: the benchmark times the program, not gnncheck.
    gnnbench::check::setEnabled(false);

    Result r;
    r.settings = {
        {"workload", opt.workload},
        {"seed", std::to_string(opt.seed)},
        {"seconds", std::to_string(opt.seconds)},
        {"trace", opt.trace ? "1" : "0"},
        {"tiny", opt.tiny ? "1" : "0"},
        {"threads", std::to_string(gnnbench::core::parallel::numThreads())},
        {"GNNBENCH_NUM_THREADS",
         std::getenv("GNNBENCH_NUM_THREADS")
             ? std::getenv("GNNBENCH_NUM_THREADS")
             : "(unset)"},
        {"OMP_NUM_THREADS", std::getenv("OMP_NUM_THREADS")
                                ? std::getenv("OMP_NUM_THREADS")
                                : "(unset)"},
        {"OMP_WAIT_POLICY", std::getenv("OMP_WAIT_POLICY")
                                ? std::getenv("OMP_WAIT_POLICY")
                                : "(unset)"},
        {"validators", gnnbench::check::enabled() ? "on" : "off"},
        {"kernel_variant", gnnbench::kernels::resolvedVariantLabel()},
    };
    try {
        run(opt, r);
    } catch (const std::exception &e) {
        r.check(false, std::string("workload threw: ") + e.what());
    }
    if (r.attempted < 1)
        r.check(false, "no operation was attempted");
    if (!opt.trace)
        for (const MetricDef &m : kEndToEnd)
            if (!r.slots.count(m.name))
                r.check(false, std::string("metric not measured: ") + m.name);
    const bool correct = r.failedChecks.empty();

    for (const auto &[k, v] : r.settings)
        std::printf("setting %s = %s\n", k.c_str(), v.c_str());
    for (const Figure &f : r.figures)
        std::printf("metric %-34s %14.6f %-6s (%s)\n", f.name.c_str(),
                    f.value, f.unit.c_str(), f.kind.c_str());
    for (const Figure &f : r.layerFigures)
        std::printf("layer  %-34s %14.6f %s\n", f.name.c_str(),
                    f.value, f.unit.c_str());
    for (const std::string &c : r.failedChecks)
        std::printf("check FAILED: %s\n", c.c_str());
    std::printf("checks %s; attempted %lld, failed %lld\n",
                correct ? "passed" : "FAILED",
                static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed));

    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": "
                "%lld, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<long long>(std::max<int64_t>(r.attempted, 1)),
                static_cast<long long>(r.failed));
    bool first = true;
    auto emit = [&](const MetricDef &m, double v) {
        std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", m.name);
        printJsonNumber(v);
        std::printf(", \"unit\": \"%s\"}", m.unit);
        first = false;
    };
    if (opt.trace) {
        for (const MetricDef &m : kPerLayer) {
            auto it = r.layers.find(m.name);
            emit(m, it == r.layers.end() ? 0.0 : it->second);
        }
    } else {
        for (const MetricDef &m : kEndToEnd) {
            auto it = r.slots.find(m.name);
            emit(m, it == r.slots.end() ? 0.0 : it->second);
        }
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}
