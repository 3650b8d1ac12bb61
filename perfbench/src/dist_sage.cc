/**
 * @file
 * Workload dist_sage: partition-parallel full-batch GraphSAGE over 4
 * modeled ranks (dist::trainDistributedSage) on flickr, hidden 64.
 * The only workload that runs the dist layer: sharding, the modeled
 * interconnect, the halo data store and the exact gradient reduction.
 *
 * Output checks: the 4-rank final weights are bit-identical to a
 * 1-rank run, and the modeled epoch time repeats exactly.
 */

#include "bench.h"
#include "gnnbench/dist/shard.h"
#include "gnnbench/dist/trainer.h"
#include "gnnbench/graph/convert.h"
#include "gnnbench/graph/datasets.h"

namespace perfbench {

using namespace gnnbench;

namespace {

constexpr int kSetupRepeats = 3;
constexpr int kRanks = 4;

bool
sameWeights(const dist::DistResult &a, const dist::DistResult &b)
{
    if (a.weights.size() != b.weights.size())
        return false;
    for (size_t i = 0; i < a.weights.size(); ++i)
        if (!bitEqual(a.weights[i], b.weights[i]))
            return false;
    return true;
}

} // namespace

void
runDistSage(const Options &opt, Result &r)
{
    const std::string name = opt.tiny ? "ppi" : "flickr";
    const double scale = 0.05;
    r.settings.push_back({"dataset", name});
    r.settings.push_back({"scale", std::to_string(scale)});
    r.settings.push_back({"ranks", std::to_string(kRanks)});

    graph::Dataset ds;
    std::vector<double> setups;
    for (int k = 0; k < kSetupRepeats; ++k) {
        const double t0 = now();
        ds = graph::loadDataset(name, scale, opt.seed);
        setups.push_back(now() - t0);
    }
    const double setup = median(setups);
    r.slots["setup_s"] = setup;
    r.figure("setup_s", setup, "s", "measured");
    r.layers["graph.generate_s"] = setup;
    r.layer("graph.generate_s", setup, "s");

    dist::DistConfig cfg;
    cfg.numRanks = kRanks;
    cfg.epochs = 2;
    cfg.hiddenDim = 64;
    cfg.seed = opt.seed;
    dist::DistConfig one = cfg;
    one.numRanks = 1;

    auto call = [&](const dist::DistConfig &c, double *secs) {
        const double t0 = now();
        dist::DistResult res = dist::trainDistributedSage(ds, c);
        *secs = (now() - t0) / c.epochs;
        ++r.attempted;
        return res;
    };

    // Reference pair: 4 ranks against 1 rank, bit for bit.
    double ignored = 0.0;
    const auto c0 = counterSnapshot();
    const double g0 = now();
    const dist::DistResult ref = call(cfg, &ignored);
    const double call_wall = now() - g0;
    const auto c1 = counterSnapshot();
    const dist::DistResult base = call(one, &ignored);
    auto checkRun = [&](const dist::DistResult &res) {
        const bool ok = sameWeights(res, base) &&
                        bitEqual(res.modeledSeconds, ref.modeledSeconds);
        if (!ok)
            ++r.failed;
        return r.check(ok, "dist_sage: 4-rank weights equal the 1-rank "
                           "run and the modeled time repeats exactly");
    };
    checkRun(ref);
    const double modeled = ref.modeledSeconds / cfg.epochs;
    r.check(modeled > 0.0, "dist_sage: modeled time is charged");

    if (!opt.trace) {
        std::vector<double> four, single;
        const double deadline = now() + opt.seconds;
        while (four.size() < 2 || now() < deadline) {
            double s = 0.0;
            checkRun(call(cfg, &s));
            four.push_back(s);
            const dist::DistResult b = call(one, &s);
            if (!sameWeights(b, base))
                ++r.failed;
            r.check(sameWeights(b, base),
                    "dist_sage: the 1-rank run repeats bit-exactly");
            single.push_back(s);
            if (opt.tiny)
                break;
        }
        const double f = median(four), o = median(single);
        r.slots["primary_ms"] = 1e3 * f;
        r.slots["secondary_ms"] = 1e3 * o;
        r.slots["tertiary_ms"] = 1e3 * modeled;
        r.slots["throughput_per_s"] =
            static_cast<double>(ds.numNodes()) / f;
        r.figure("dist.epoch_s", f, "s", "measured");
        r.figure("dist.1rank.epoch_s", o, "s", "measured");
        r.figure("dist.modeled_epoch_s", modeled, "s", "modeled");
        r.figure("dist.nodes_per_s", r.slots["throughput_per_s"], "1/s",
                 "measured");
        r.figure("dist.datastore.hit_rate", ref.datastoreHitRate,
                 "fraction", "modeled");
        r.figure("dist.calls_timed", static_cast<double>(four.size()),
                 "count", "measured");
        return;
    }

    // ---- traced run: the trainer is one span (its supersteps cannot
    // be seen from outside); the shard step is probed on its own ----
    Spans sp;
    const graph::CsrGraph csr = spanned(
        &sp, "graph.convert", [&] { return graph::cooToCsr(ds.graph); });
    const graph::CsrGraph csc = spanned(
        &sp, "graph.convert", [&] { return graph::cooToCsc(ds.graph); });
    core::Rng rng(cfg.seed);
    rng.fork();
    core::Rng prng = rng.fork();
    const dist::ShardedGraph sharded = spanned(&sp, "dist.shard", [&] {
        return dist::partitionAndShard(csr, csc, kRanks, prng,
                                       cfg.partition);
    });
    r.check(sharded.cutEdges == ref.cutEdges,
            "dist_sage: the probed sharding matches the trainer's");
    double untraced = 0.0;
    checkRun(call(cfg, &untraced));
    const double t0 = now();
    const dist::DistResult traced =
        spanned(&sp, "dist.train", [&] { return call(cfg, &ignored); });
    const double wall = now() - t0;
    checkRun(traced);

    const double coverage = 100.0 * sp.seconds("dist.train") / wall;
    r.layers["trace.coverage"] = coverage;
    r.layers["trace.overhead"] =
        100.0 * (wall - untraced * cfg.epochs) / (untraced * cfg.epochs);
    r.layers["share.dist.train"] = coverage;
    r.layer("trace.coverage", coverage, "%");
    r.layer("trace.overhead", r.layers["trace.overhead"], "%");
    r.layer("graph.convert_s", sp.seconds("graph.convert"), "s");
    r.layer("dist.shard_s", sp.seconds("dist.shard"), "s");
    r.layer("dist.train_call_s", call_wall, "s");
    r.layer("dist.cut_edges", static_cast<double>(ref.cutEdges), "count");

    const std::pair<const char *, uint64_t> counts[] = {
        {"comm.messages", counterDelta(c0, c1, "comm.messages")},
        {"comm.allreduces", counterDelta(c0, c1, "comm.allreduces")},
        {"comm.bytes.halo", counterDelta(c0, c1, "comm.bytes.halo")},
        {"comm.bytes.allreduce",
         counterDelta(c0, c1, "comm.bytes.allreduce")},
        {"datastore.hits", counterDelta(c0, c1, "datastore.hits")},
        {"datastore.misses", counterDelta(c0, c1, "datastore.misses")},
        {"datastore.evictions",
         counterDelta(c0, c1, "datastore.evictions")},
        {"datastore.fetch.bytes",
         counterDelta(c0, c1, "datastore.fetch.bytes")},
    };
    for (const auto &[cname, v] : counts) {
        r.layers[cname] = static_cast<double>(v);
        r.layer(cname, static_cast<double>(v), "count (modeled)");
    }
    r.layer("comm.time.seconds", ref.commSeconds, "s (modeled)");
    r.layer("datastore.hit_rate", ref.datastoreHitRate,
            "fraction (modeled)");
}

} // namespace perfbench
