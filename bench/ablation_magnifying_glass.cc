/**
 * @file
 * Ablation: the paper's magnifying glass turned on our own kernel
 * layer — a per-phase / per-kernel breakdown of *measured* hardware
 * cost next to the analytic roofline position.
 *
 * For each reorder mode (none/degree/rcm) the harness builds the
 * micro-bench RMAT aggregation workload, then runs the sparse-kernel
 * family (SpMM sum/max, scatter SpMM, SDDMM dot, gather, scatter sum)
 * under each explicit variant (Reference/Tiled/Simd).  Every dispatch
 * carries kernels::KernelStats, so each row reports:
 *
 *  - wall seconds (best of --repeats; min is the stable estimator on
 *    a shared box where interference is one-sided),
 *  - achieved GFLOP/s and GB/s from the analytic OpCost,
 *  - operational intensity and the achieved fraction of the measured
 *    roofline ceiling at that intensity (profiling/roofline.h),
 *  - the PMU delta over the dispatch — cycles, IPC, LLC-miss rate,
 *    backend-stall fraction — when perf_event_open is live, and an
 *    explicit "n/a" (JSON: "perf": "unavailable") when it is not.
 *
 * Phase attribution rides the same machinery: graph construction and
 * reordering run under Phase::DataLoading and the measurement loops
 * under Phase::Training, so the per-phase table shows the same
 * counters at the granularity of the paper's runtime breakdown.
 *
 * With --json the report is the unified run-report document plus a
 * top-level "results" array (one row per reorder x variant x op) that
 * scripts/check_trace.sh validates for schema completeness.
 */

#include <algorithm>
#include <functional>

#include "bench_common.h"
#include "gnnbench/graph/convert.h"
#include "gnnbench/graph/generate.h"
#include "gnnbench/profiling/profiler.h"

using namespace gnnbench;

namespace {

constexpr int kRepeats = 3;

/** The RMAT aggregation workload (micro_kernels' graph) under one
 *  reorder mode, with features permuted to stay equivalent. */
struct Workload
{
    graph::CooGraph coo;
    graph::CsrGraph csc;
    core::Tensor x;

    Workload(double scale, uint64_t seed, graph::ReorderMethod m)
    {
        const NodeId n =
            std::max<NodeId>(64, static_cast<NodeId>(20000 * scale));
        const EdgeId e = std::max<EdgeId>(
            256, static_cast<EdgeId>(120000 * scale));
        core::Rng rng(seed);
        coo = graph::symmetrize(graph::rmat(n, e, rng), false);
        csc = graph::cooToCsc(coo);
        x = core::Tensor::randn(csc.numCols, 64, rng);
        if (m != graph::ReorderMethod::None) {
            const graph::Reordering ro =
                graph::computeReordering(csc, m);
            csc = graph::applyReordering(csc, ro);
            coo = graph::applyReordering(coo, ro);
            x = graph::permuteRows(x, ro);
        }
    }
};

/** One measured (reorder, variant, op) breakdown row. */
struct BreakdownRow
{
    std::string reorder;
    std::string variant;
    std::string op;
    kernels::KernelStats stats; ///< the fastest repeat's stats
};

/** Run @p dispatch kRepeats times; keep the fastest repeat. */
kernels::KernelStats
bestOf(const std::function<void(kernels::KernelStats *)> &dispatch)
{
    kernels::KernelStats best;
    for (int r = 0; r < kRepeats; ++r) {
        kernels::KernelStats s;
        dispatch(&s);
        if (r == 0 || s.seconds < best.seconds)
            best = s;
    }
    return best;
}

/** "n/a" when the PMU is down, else @p value formatted. */
std::string
fmtPerf(const profiling::PerfDelta &d, double value, int precision)
{
    return d.valid ? profiling::fmtFixed(value, precision) : "n/a";
}

std::string
fmtPerfCount(const profiling::PerfDelta &d, double value)
{
    return d.valid
               ? profiling::fmtCount(static_cast<int64_t>(value))
               : "n/a";
}

void
addBreakdownRow(profiling::Table &table, const BreakdownRow &row)
{
    const kernels::KernelStats &s = row.stats;
    const profiling::PerfDelta &d = s.perf;
    const double secs = s.seconds;
    const double gflops =
        secs > 0.0 ? s.cost.flops / secs * 1e-9 : 0.0;
    const double gbps = secs > 0.0 ? s.cost.bytes / secs * 1e-9 : 0.0;
    table.addRow({row.reorder, row.variant, row.op,
                  profiling::fmtSeconds(secs),
                  profiling::fmtFixed(gflops, 2),
                  profiling::fmtFixed(gbps, 2),
                  profiling::fmtFixed(s.operationalIntensity(), 3),
                  profiling::fmtFixed(s.rooflineFraction() * 100.0, 1) +
                      "%",
                  fmtPerfCount(d, d.cycles()),
                  fmtPerf(d, d.ipc(), 2),
                  fmtPerf(d, d.llcMissRate() * 100.0, 1),
                  fmtPerf(d, d.stalledFraction() * 100.0, 1)});
}

/** The kernel family measured per variant. */
std::vector<BreakdownRow>
measureVariant(const Workload &w, const std::string &reorder,
               kernels::KernelVariant v)
{
    using kernels::KernelStats;
    const std::string variant = kernels::variantName(v);
    const NodeId rows = static_cast<NodeId>(w.x.rows());
    std::vector<BreakdownRow> out;
    auto add = [&](const char *op,
                   std::function<void(KernelStats *)> dispatch) {
        out.push_back({reorder, variant, op, bestOf(dispatch)});
    };
    add("spmm_sum", [&](KernelStats *s) {
        kernels::spmm(w.csc, w.x, kernels::ReduceOp::Sum, nullptr, v,
                      s);
    });
    add("spmm_max", [&](KernelStats *s) {
        kernels::spmm(w.csc, w.x, kernels::ReduceOp::Max, nullptr, v,
                      s);
    });
    add("spmm_scatter", [&](KernelStats *s) {
        kernels::spmmScatter(w.csc, w.x, nullptr, v, s);
    });
    add("sddmm_dot", [&](KernelStats *s) {
        kernels::sddmmDot(w.csc, w.x, w.x, v, s);
    });
    add("gather", [&](KernelStats *s) {
        kernels::gatherRows(w.x, w.coo.src, v, s);
    });
    add("scatter_sum", [&](KernelStats *s) {
        const core::Tensor msgs =
            kernels::gatherRows(w.x, w.coo.src, v);
        kernels::scatterSum(msgs, w.coo.dst, rows, v, s);
    });
    return out;
}

void
addPhaseRow(profiling::Table &table, const std::string &reorder,
            const profiling::PhaseTracker &tracker,
            profiling::Phase p)
{
    const power::ActivitySlice slice = tracker.phase(p);
    const profiling::PerfDelta d = tracker.phasePerf(p);
    table.addRow({reorder, profiling::phaseName(p),
                  profiling::fmtSeconds(slice.cpuBusySeconds),
                  fmtPerfCount(d, d.cycles()),
                  fmtPerf(d, d.ipc(), 2),
                  fmtPerf(d, d.llcMissRate() * 100.0, 1),
                  fmtPerf(d, d.stalledFraction() * 100.0, 1)});
}

void
emitResults(profiling::JsonWriter &w,
            const std::vector<BreakdownRow> &rows)
{
    w.beginArray("results");
    for (const BreakdownRow &row : rows) {
        const kernels::KernelStats &s = row.stats;
        w.beginObject();
        w.value("reorder", row.reorder);
        w.value("variant", row.variant);
        w.value("op", row.op);
        w.value("seconds", s.seconds);
        w.value("flops", s.cost.flops);
        w.value("bytes", s.cost.bytes);
        w.value("intensity", s.operationalIntensity());
        w.value("roofline_fraction", s.rooflineFraction());
        if (s.perf.valid) {
            w.value("perf", "ok");
            w.value("cycles", s.perf.cycles());
            w.value("instructions", s.perf.instructions());
            w.value("ipc", s.perf.ipc());
            w.value("llc_miss_rate", s.perf.llcMissRate());
            w.value("stalled_fraction", s.perf.stalledFraction());
        } else {
            w.value("perf", "unavailable");
        }
        w.endObject();
    }
    w.endArray();
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::parseOptions(argc, argv, bench::Options{});
    std::printf("=== Ablation: magnifying-glass kernel breakdown "
                "===\n");
    std::printf("perf counters: %s\n",
                profiling::perfStatusLabel());
    const profiling::RooflineCalibration &calib =
        profiling::rooflineCalibration();
    std::printf("roofline: peak %.2f GFLOP/s, bandwidth %.2f GB/s, "
                "ridge %.3f FLOP/B (calibrated in %.0f ms)\n\n",
                calib.peakFlopsPerSec * 1e-9,
                calib.memBandwidthBytesPerSec * 1e-9,
                calib.ridgeIntensity(),
                calib.calibrationSeconds * 1e3);

    const graph::ReorderMethod modes[] = {
        graph::ReorderMethod::None, graph::ReorderMethod::DegreeSort,
        graph::ReorderMethod::Rcm};
    const kernels::KernelVariant variants[] = {
        kernels::KernelVariant::Reference,
        kernels::KernelVariant::Tiled, kernels::KernelVariant::Simd};

    profiling::Table table({"Reorder", "Variant", "Op", "Time",
                            "GFLOP/s", "GB/s", "FLOP/B", "Roof",
                            "Cycles", "IPC", "LLCmiss%", "Stall%"});
    profiling::Table phaseTable({"Reorder", "Phase", "CPU",
                                 "Cycles", "IPC", "LLCmiss%",
                                 "Stall%"});
    std::vector<BreakdownRow> rows;
    std::vector<profiling::RunRecord> runs;

    for (graph::ReorderMethod m : modes) {
        const std::string reorder = graph::reorderMethodName(m);
        device::Session session;
        profiling::PhaseTracker tracker(session);
        std::unique_ptr<Workload> w;
        {
            auto scope =
                tracker.track(profiling::Phase::DataLoading);
            w = std::make_unique<Workload>(opts.scale, opts.seed, m);
        }
        {
            auto scope = tracker.track(profiling::Phase::Training);
            for (kernels::KernelVariant v : variants) {
                auto vr = measureVariant(*w, reorder, v);
                for (auto &row : vr) {
                    addBreakdownRow(table, row);
                    rows.push_back(std::move(row));
                }
            }
        }
        addPhaseRow(phaseTable, reorder, tracker,
                    profiling::Phase::DataLoading);
        addPhaseRow(phaseTable, reorder, tracker,
                    profiling::Phase::Training);
        profiling::RunRecord rec;
        rec.dataset = "rmat";
        rec.config = "reorder=" + reorder;
        for (int p = 0; p < profiling::kNumPhases; ++p)
            rec.phases[static_cast<size_t>(p)] =
                tracker.phase(static_cast<profiling::Phase>(p));
        runs.push_back(std::move(rec));
    }

    table.print();
    std::printf("\n");
    phaseTable.print();
    if (!opts.csvPrefix.empty()) {
        table.writeCsv(opts.csvPrefix + "kernel_breakdown.csv");
        phaseTable.writeCsv(opts.csvPrefix + "phase_breakdown.csv");
    }

    bench::writeJsonReport(
        opts, "ablation_magnifying_glass",
        {{"kernel_breakdown", &table},
         {"phase_breakdown", &phaseTable}},
        std::move(runs),
        [&rows](profiling::JsonWriter &w) { emitResults(w, rows); });

    std::printf(
        "\nRoof is the achieved fraction of the measured roofline "
        "ceiling at the\nop's analytic intensity (FLOP-free movement "
        "ops compare bytes/s to the\nbandwidth roof).  Cycles / IPC / "
        "LLCmiss%% / Stall%% come from the PMU\ngroup read around "
        "each dispatch; \"n/a\" means perf_event_open is\n"
        "unavailable here and the JSON rows carry "
        "\"perf\": \"unavailable\".\n");
    return 0;
}
