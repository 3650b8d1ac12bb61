/**
 * Ablation: partition-parallel training over modeled ranks.
 *
 * Trains the dist/ GraphSAGE trainer on one dataset at rank counts
 * 1/2/4/8 and reports, per rank count: the partitioner's edge cut,
 * the modeled communication volume (halo bytes + allreduce wire
 * bytes), the modeled end-to-end time and speedup over 1 rank, and
 * the feature data store's hit rate.  Every multi-rank run is
 * asserted bit-identical to the 1-rank baseline — the scaling numbers
 * are only meaningful because the answer provably does not change.
 *
 * With --json the report carries gate rows for
 * scripts/check_bench_regression.py --mode dist (floor: >= 2.5x
 * modeled speedup at 4 ranks; bit_exact: hard-fails the gate when a
 * rank count diverges from the baseline), and the modeled interconnect
 * timeline appears as per-rank "rank<r>/comm (modeled)" and
 * "rank<r>/compute (modeled)" trace lanes, validated by
 * scripts/check_trace.sh.
 */

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gnnbench/dist/trainer.h"
#include "gnnbench/profiling/report.h"

namespace {

using namespace gnnbench;

constexpr int kRankCounts[] = {1, 2, 4, 8};

struct ScalingRow
{
    int ranks = 0;
    dist::DistResult result;
    bool bitExact = true;
    double speedup = 1.0;
};

bool
weightsBitEqual(const std::vector<core::Tensor> &a,
                const std::vector<core::Tensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t k = 0; k < a.size(); ++k) {
        if (a[k].rows() != b[k].rows() ||
            a[k].cols() != b[k].cols())
            return false;
        if (std::memcmp(a[k].data(), b[k].data(), a[k].bytes()) != 0)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options defaults;
    // One dataset at a sub-scale that keeps the exact-arithmetic
    // gradient path fast enough for a CI gate.
    defaults.datasets = {"flickr"};
    defaults.scale = 0.03;
    defaults.epochs = 3;
    const bench::Options opts =
        bench::parseOptions(argc, argv, defaults);
    bench::banner("ablation: distributed partition-parallel scaling",
                  opts);

    profiling::Table table({"dataset", "ranks", "edge cut",
                            "cut %", "halo MB", "allreduce MB",
                            "modeled time", "speedup", "store hit %",
                            "bit-exact"});
    struct DatasetRows
    {
        std::string name;
        std::vector<ScalingRow> rows;
    };
    std::vector<DatasetRows> all;

    for (const std::string &name : opts.datasets) {
        const graph::Dataset ds = bench::loadDataset(name, opts);
        std::printf("%s: %u nodes, %llu edges\n",
                    name.c_str(), ds.numNodes(),
                    static_cast<unsigned long long>(ds.numEdges()));

        dist::DistConfig cfg;
        cfg.epochs = opts.epochs;
        cfg.hiddenDim = 32;
        cfg.seed = opts.seed;

        DatasetRows drows;
        drows.name = name;
        for (int ranks : kRankCounts) {
            cfg.numRanks = ranks;
            ScalingRow row;
            row.ranks = ranks;
            row.result = dist::trainDistributedSage(ds, cfg);
            drows.rows.push_back(std::move(row));
        }
        const dist::DistResult &base = drows.rows.front().result;
        for (ScalingRow &row : drows.rows) {
            row.bitExact =
                weightsBitEqual(row.result.weights, base.weights);
            row.speedup = base.modeledSeconds /
                          row.result.modeledSeconds;
            const dist::DistResult &r = row.result;
            table.addRow(
                {name, std::to_string(row.ranks),
                 std::to_string(r.cutEdges),
                 profiling::fmtFixed(
                     100.0 * static_cast<double>(r.cutEdges) /
                         static_cast<double>(ds.numEdges()),
                     1),
                 profiling::fmtFixed(
                     static_cast<double>(r.haloBytes) / 1e6, 2),
                 profiling::fmtFixed(
                     static_cast<double>(r.allreduceBytes) / 1e6,
                     2),
                 profiling::fmtSeconds(r.modeledSeconds),
                 profiling::fmtFixed(row.speedup, 2),
                 profiling::fmtFixed(100.0 * r.datastoreHitRate, 1),
                 row.bitExact ? "yes" : "NO"});
        }
        all.push_back(std::move(drows));
    }

    table.print();
    if (!opts.csvPrefix.empty())
        table.writeCsv(opts.csvPrefix + "distributed_scaling.csv");

    int divergent = 0;
    for (const DatasetRows &drows : all)
        for (const ScalingRow &row : drows.rows)
            if (!row.bitExact) {
                std::fprintf(stderr,
                             "ERROR: %s at %d ranks diverged from "
                             "the 1-rank baseline\n",
                             drows.name.c_str(), row.ranks);
                ++divergent;
            }

    bench::writeJsonReport(
        opts, "ablation_distributed_scaling",
        {{"distributed_scaling", &table}}, {},
        [&](profiling::JsonWriter &w) {
            w.beginArray("results");
            for (const DatasetRows &drows : all) {
                const auto prefix = drows.name + ".";
                for (const ScalingRow &row : drows.rows) {
                    const dist::DistResult &r = row.result;
                    const auto op =
                        prefix + "ranks" + std::to_string(row.ranks);
                    // The gated figure of merit: modeled speedup
                    // over the 1-rank baseline.
                    w.beginObject();
                    w.value("variant", "dist");
                    w.value("op", op + ".speedup");
                    w.value("value", row.speedup);
                    w.value("bit_exact", row.bitExact);
                    if (row.ranks == 4)
                        w.value("floor", 2.5);
                    else if (row.ranks == 1)
                        w.value("no_regress", true);
                    w.endObject();
                    // Informational rows (model-deterministic, so
                    // history drift still gets flagged).
                    w.beginObject();
                    w.value("variant", "dist");
                    w.value("op", op + ".comm_mb");
                    w.value("value",
                            static_cast<double>(r.haloBytes +
                                                r.allreduceBytes) /
                                1e6);
                    w.value("no_regress", true);
                    w.endObject();
                    w.beginObject();
                    w.value("variant", "dist");
                    w.value("op", op + ".edge_cut");
                    w.value("value",
                            static_cast<double>(r.cutEdges));
                    w.value("no_regress", true);
                    w.endObject();
                    w.beginObject();
                    w.value("variant", "dist");
                    w.value("op", op + ".store_hit_rate");
                    w.value("value", r.datastoreHitRate);
                    if (row.ranks > 1) {
                        // Features are cached across epochs, so
                        // epochs-1 of every epochs halo reads must
                        // hit with the default unbounded store.
                        w.value("floor", 0.4);
                    }
                    w.endObject();
                }
            }
            w.endArray();
        });

    return divergent == 0 ? 0 : 1;
}
