/**
 * @file
 * Workload sample_epoch: the data path of Figs. 3-4 with no model.
 * ogbn-arxiv at full size is loaded into both frameworks; each epoch
 * delivers neighbor (25/10 @512), cluster (2000 parts, 50 per batch)
 * and SAINT random-walk (3000 roots, length 2) batches through the
 * prefetching loaders, with the feature gather of every batch.  Each
 * round runs both frameworks inline (0 workers) and with 3 workers.
 *
 * Output check: the batches of a round are identical inline and with
 * 3 workers (the worker-count invariance contract), checksummed in an
 * untimed first round; timed rounds must deliver the same work and the
 * same modeled interpreter seconds.
 */

#include <cmath>
#include <memory>

#include "bench.h"
#include "gnnbench/core/ops.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/dglx/dataloader.h"
#include "gnnbench/graph/datasets.h"
#include "gnnbench/models/pipeline.h"
#include "gnnbench/profiling/trace.h"
#include "gnnbench/pygx/dataloader.h"

namespace perfbench {

using namespace gnnbench;

namespace {

constexpr int kSetupRepeats = 3;
constexpr int kWorkers = 3;
constexpr int kPrefetchDepth = 2;

/** Everything built before the first timed epoch. */
struct Setup
{
    graph::Dataset ds;
    dglx::LoadedData dgl;
    pygx::LoadedData pyg;
    /** pygx samplers charge their modeled interpreter cost here. */
    device::Session session;
    std::unique_ptr<dglx::NeighborSampler> dNeighbor;
    std::unique_ptr<dglx::ClusterSampler> dCluster;
    std::unique_ptr<dglx::SaintRwSampler> dSaint;
    std::unique_ptr<pygx::NeighborSampler> pNeighbor;
    std::unique_ptr<pygx::ClusterSampler> pCluster;
    std::unique_ptr<pygx::SaintRwSampler> pSaint;
    int32_t parts = 0;
    int32_t perBatch = 0;
    int32_t roots = 0;
    int clusterBatches = 0;
    int saintBatches = 0;
    /// Per-layer set-up times.
    double generate = 0.0, dglxLoad = 0.0, pygxLoad = 0.0,
           partition = 0.0;
};

std::unique_ptr<Setup>
buildSetup(const std::string &name, double scale, uint64_t seed)
{
    auto s = std::make_unique<Setup>();
    double t = now();
    s->ds = graph::loadDataset(name, scale, seed);
    s->generate = now() - t;
    t = now();
    s->dgl = dglx::DataLoader::load(s->ds);
    s->dglxLoad = now() - t;
    t = now();
    s->pyg = pygx::DataLoader::load(s->ds);
    s->pygxLoad = now() - t;

    const NodeId n = s->ds.numNodes();
    s->parts = std::min<int32_t>(2000, n / 2);
    s->perBatch = std::min<int32_t>(50, s->parts);
    s->roots = std::min<int32_t>(3000, n / 4);
    s->clusterBatches = std::max(1, s->parts / s->perBatch);
    s->saintBatches = models::saintBatchesPerEpoch(n, s->roots, 2);

    const std::vector<int> fanouts = {25, 10};
    s->dNeighbor = std::make_unique<dglx::NeighborSampler>(
        *s->dgl.graph, fanouts, core::Rng(seed + 11));
    s->dSaint = std::make_unique<dglx::SaintRwSampler>(
        *s->dgl.graph, s->roots, 2, core::Rng(seed + 12));
    s->pNeighbor = std::make_unique<pygx::NeighborSampler>(
        *s->pyg.data, fanouts, core::Rng(seed + 13), &s->session);
    s->pSaint = std::make_unique<pygx::SaintRwSampler>(
        *s->pyg.data, s->roots, 2, core::Rng(seed + 14), &s->session);
    t = now();
    s->dCluster = std::make_unique<dglx::ClusterSampler>(
        *s->dgl.graph, s->parts, core::Rng(seed + 15));
    s->pCluster = std::make_unique<pygx::ClusterSampler>(
        *s->pyg.data, s->parts, core::Rng(seed + 16), &s->session);
    s->partition = now() - t;
    return s;
}

/** What one epoch delivered. */
struct Tally
{
    uint64_t hash = 0;
    int64_t batches = 0;
    int64_t nodes = 0;
    int64_t edges = 0;
    double workerBusy = 0.0;
    double modeled = 0.0;
};

/** Options of one epoch pass. */
struct Pass
{
    int workers = 0;
    bool checksum = false;
    Spans *spans = nullptr;
};

uint64_t
hashOf(uint64_t h, const sampling::NeighborSample &s)
{
    for (const auto &b : s.blocks) {
        h = mixAll(h, b.srcNodes);
        h = mixAll(h, b.csc.indptr);
        h = mixAll(h, b.csc.indices);
    }
    return h;
}
uint64_t
hashOf(uint64_t h, const sampling::InducedSample &s)
{
    return mixAll(mixAll(mixAll(h, s.nodes), s.adj.indptr),
                  s.adj.indices);
}
uint64_t
hashOf(uint64_t h, const pygx::NeighborBatch &b)
{
    for (const auto &l : b.layers) {
        h = mixAll(h, l.srcNodes);
        h = mixAll(h, l.eSrc);
        h = mixAll(h, l.eDst);
    }
    return h;
}
uint64_t
hashOf(uint64_t h, const pygx::EdgeBatch &b)
{
    return mixAll(mixAll(mixAll(h, b.nodes), b.src), b.dst);
}

const std::vector<NodeId> &
nodesOf(const sampling::NeighborSample &s)
{
    return s.inputNodes();
}
const std::vector<NodeId> &
nodesOf(const sampling::InducedSample &s)
{
    return s.nodes;
}
const std::vector<NodeId> &
nodesOf(const pygx::NeighborBatch &b)
{
    return b.inputNodes();
}
const std::vector<NodeId> &
nodesOf(const pygx::EdgeBatch &b)
{
    return b.nodes;
}

int64_t
edgesOf(const sampling::NeighborSample &s)
{
    int64_t e = 0;
    for (const auto &b : s.blocks)
        e += b.csc.numEdges();
    return e;
}
int64_t
edgesOf(const sampling::InducedSample &s)
{
    return s.adj.numEdges();
}
int64_t
edgesOf(const pygx::NeighborBatch &b)
{
    int64_t e = 0;
    for (const auto &l : b.layers)
        e += static_cast<int64_t>(l.eSrc.size());
    return e;
}
int64_t
edgesOf(const pygx::EdgeBatch &b)
{
    return b.numEdges();
}

/**
 * Drain @p batches batches from a loader, gathering each batch's
 * features; @p span names the next() span (the consumer-side wait when
 * the loader has workers).
 */
template <typename Loader>
void
drain(Loader &loader, int64_t batches, const core::Tensor &features,
      const Pass &pass, const char *span, Tally &t)
{
    for (int64_t i = 0; i < batches; ++i) {
        auto b = spanned(pass.spans, span,
                              [&] { return take(loader.next()); });
        const auto &ids = nodesOf(b);
        core::Tensor x = spanned(pass.spans, "core.gather", [&] {
            return core::ops::gatherRows(features, ids);
        });
        ++t.batches;
        t.nodes += static_cast<int64_t>(ids.size());
        t.edges += edgesOf(b);
        if (pass.checksum)
            t.hash = tensorHash(hashOf(t.hash, b), x);
    }
    spanned(pass.spans, "loader", [&] {
        for (double s : loader.workerBusySeconds())
            t.workerBusy += s;
        loader.shutdown();
    });
}

/** Fresh, pass-independent RNG stream of one sampler's epoch. */
core::Rng
epochRng(uint64_t seed, uint64_t sampler)
{
    return core::Rng(core::parallel::chunkSeed(seed, 0x5a3b1e, sampler));
}

Tally
dglxEpoch(Setup &s, uint64_t seed, const Pass &pass)
{
    Tally t;
    const bool w = pass.workers > 0;
    const core::Tensor &f = s.dgl.features;
    {
        core::Rng rng = epochRng(seed, 1);
        auto loader = spanned(pass.spans, "loader", [&] {
            auto batches = models::makeBatches(s.dgl.trainIdx, 512, rng);
            return std::make_unique<dglx::NeighborLoader>(
                *s.dNeighbor, rng, std::move(batches), pass.workers,
                kPrefetchDepth);
        });
        drain(*loader,
              static_cast<int64_t>(loader->seedBatches().size()), f,
              pass, w ? "w3.dglx.neighbor" : "dglx.neighbor", t);
        spanned(pass.spans, "loader", [&] { loader.reset(); });
    }
    {
        core::Rng rng = epochRng(seed, 2);
        auto loader = spanned(pass.spans, "loader", [&] {
            return std::make_unique<dglx::InducedLoader>(
                dglx::makeClusterLoader(*s.dCluster, rng, s.perBatch,
                                        s.clusterBatches, pass.workers,
                                        kPrefetchDepth));
        });
        drain(*loader, s.clusterBatches, f, pass,
              w ? "w3.dglx.cluster" : "dglx.cluster", t);
        spanned(pass.spans, "loader", [&] { loader.reset(); });
    }
    {
        core::Rng rng = epochRng(seed, 3);
        auto loader = spanned(pass.spans, "loader", [&] {
            return std::make_unique<dglx::InducedLoader>(
                dglx::makeSaintRwLoader(*s.dSaint, rng, s.saintBatches,
                                        pass.workers, kPrefetchDepth));
        });
        drain(*loader, s.saintBatches, f, pass,
              w ? "w3.dglx.saint" : "dglx.saint", t);
        spanned(pass.spans, "loader", [&] { loader.reset(); });
    }
    return t;
}

Tally
pygxEpoch(Setup &s, uint64_t seed, const Pass &pass)
{
    Tally t;
    const bool w = pass.workers > 0;
    const core::Tensor &f = s.pyg.features;
    const double m0 = s.session.snapshot().modeled.cpuOverheadSeconds;
    {
        core::Rng rng = epochRng(seed, 4);
        auto loader = spanned(pass.spans, "loader", [&] {
            auto batches = models::makeBatches(s.pyg.trainIdx, 512, rng);
            return std::make_unique<pygx::NeighborLoader>(
                *s.pNeighbor, rng, std::move(batches), pass.workers,
                kPrefetchDepth, &s.session);
        });
        drain(*loader,
              static_cast<int64_t>(loader->seedBatches().size()), f,
              pass, w ? "w3.pygx.neighbor" : "pygx.neighbor", t);
        spanned(pass.spans, "loader", [&] { loader.reset(); });
    }
    {
        core::Rng rng = epochRng(seed, 5);
        auto loader = spanned(pass.spans, "loader", [&] {
            return std::make_unique<pygx::EdgeBatchLoader>(
                pygx::makeClusterLoader(*s.pCluster, rng, s.perBatch,
                                        s.clusterBatches, pass.workers,
                                        kPrefetchDepth, &s.session));
        });
        drain(*loader, s.clusterBatches, f, pass,
              w ? "w3.pygx.cluster" : "pygx.cluster", t);
        spanned(pass.spans, "loader", [&] { loader.reset(); });
    }
    {
        core::Rng rng = epochRng(seed, 6);
        auto loader = spanned(pass.spans, "loader", [&] {
            return std::make_unique<pygx::EdgeBatchLoader>(
                pygx::makeSaintRwLoader(*s.pSaint, rng, s.saintBatches,
                                        pass.workers, kPrefetchDepth,
                                        &s.session));
        });
        drain(*loader, s.saintBatches, f, pass,
              w ? "w3.pygx.saint" : "pygx.saint", t);
        spanned(pass.spans, "loader", [&] { loader.reset(); });
    }
    t.modeled = s.session.snapshot().modeled.cpuOverheadSeconds - m0;
    return t;
}

/** One round: both frameworks inline, then both with 3 workers. */
struct Round
{
    Tally d0, p0, d3, p3;
    double dSec = 0.0, pSec = 0.0, wSec = 0.0;
};

Round
runRound(Setup &s, uint64_t seed, bool checksum, Spans *sp)
{
    Round r;
    Pass inline_pass{0, checksum, sp};
    Pass worker_pass{kWorkers, checksum, sp};
    double t = now();
    r.d0 = dglxEpoch(s, seed, inline_pass);
    r.dSec = now() - t;
    t = now();
    r.p0 = pygxEpoch(s, seed, inline_pass);
    r.pSec = now() - t;
    t = now();
    r.d3 = dglxEpoch(s, seed, worker_pass);
    r.p3 = pygxEpoch(s, seed, worker_pass);
    r.wSec = now() - t;
    return r;
}

/**
 * Same batches delivered.  The modeled interpreter seconds are a
 * running floating-point sum in the session, so epochs that start from
 * different totals agree to rounding, not bit for bit.
 */
bool
sameWork(const Tally &a, const Tally &b)
{
    return a.batches == b.batches && a.nodes == b.nodes &&
           a.edges == b.edges &&
           std::abs(a.modeled - b.modeled) <= 1e-9 * std::abs(b.modeled);
}

} // namespace

void
runSampleEpoch(const Options &opt, Result &r)
{
    const std::string name = opt.tiny ? "ppi" : "ogbn-arxiv";
    const double scale = opt.tiny ? 0.1 : 1.0;
    r.settings.push_back({"dataset", name});
    r.settings.push_back({"scale", std::to_string(scale)});
    r.settings.push_back({"workers", std::to_string(kWorkers)});

    std::unique_ptr<Setup> s;
    std::vector<double> setups;
    for (int k = 0; k < kSetupRepeats; ++k) {
        s.reset();
        const double t0 = now();
        s = buildSetup(name, scale, opt.seed);
        setups.push_back(now() - t0);
    }
    const double setup = median(setups);
    r.slots["setup_s"] = setup;
    r.figure("setup_s", setup, "s", "measured");
    r.layers["graph.generate_s"] = s->generate;
    r.layer("graph.generate_s", s->generate, "s");
    r.layer("dglx.load_s", s->dglxLoad, "s");
    r.layer("pygx.load_s", s->pygxLoad, "s");
    r.layer("graph.partition_s", s->partition, "s");

    // Untimed checksummed round: the worker-count invariance check.
    const Round ref = runRound(*s, opt.seed, true, nullptr);
    r.attempted += 4;
    auto checkRound = [&](const Round &x, bool hashes) {
        bool ok = sameWork(x.d0, ref.d0) && sameWork(x.p0, ref.p0) &&
                  sameWork(x.d3, ref.d0) && sameWork(x.p3, ref.p0);
        if (hashes)
            ok = ok && x.d3.hash == x.d0.hash && x.p3.hash == x.p0.hash;
        if (!ok)
            ++r.failed;
        return ok;
    };
    r.check(checkRound(ref, true),
            "sample_epoch: inline and 3-worker batches have identical "
            "checksums");
    r.check(ref.p0.modeled > 0.0,
            "sample_epoch: pygx charges modeled interpreter time");

    if (!opt.trace) {
        std::vector<double> ds, ps, ws;
        const double deadline = now() + opt.seconds;
        while (ds.size() < 2 || now() < deadline) {
            const Round x = runRound(*s, opt.seed, false, nullptr);
            r.attempted += 4;
            r.check(checkRound(x, false),
                    "sample_epoch: every round delivers the same batches");
            ds.push_back(x.dSec);
            ps.push_back(x.pSec);
            ws.push_back(x.wSec);
            if (opt.tiny)
                break;
        }
        const double d = median(ds), p = median(ps), w = median(ws);
        r.slots["primary_ms"] = 1e3 * d;
        r.slots["secondary_ms"] = 1e3 * p;
        r.slots["tertiary_ms"] = 1e3 * w;
        r.slots["throughput_per_s"] =
            static_cast<double>(ref.d0.batches) / d;
        r.figure("sample.dglx.epoch_s", d, "s", "measured");
        r.figure("sample.pygx.epoch_s", p, "s", "measured");
        r.figure("sample.w3.epoch_s", w, "s", "measured");
        r.figure("sample.dglx.batches_per_s", r.slots["throughput_per_s"],
                 "1/s", "measured");
        r.figure("pygx.interp.modeled_s", ref.p0.modeled, "s",
                 "modeled");
        r.figure("sample.rounds_timed", static_cast<double>(ds.size()),
                 "count", "measured");
        return;
    }

    // ---- traced run: one untraced round, then one traced round ----
    const Round plain = runRound(*s, opt.seed, false, nullptr);
    r.attempted += 4;
    r.check(checkRound(plain, false),
            "sample_epoch: every round delivers the same batches");
    Spans sp;
    const auto c0 = counterSnapshot();
    const double t0 = now();
    const Round traced = runRound(*s, opt.seed, false, &sp);
    const double wall = now() - t0;
    const auto c1 = counterSnapshot();
    r.attempted += 4;
    r.check(checkRound(traced, false),
            "sample_epoch: the traced round delivers the same batches");

    const double coverage = 100.0 * sp.covered() / wall;
    r.check(coverage >= 95.0 || opt.tiny,
            "sample_epoch: layer spans cover >= 95% of traced wall");
    const double untraced = plain.dSec + plain.pSec + plain.wSec;
    const double overhead = 100.0 * (wall - untraced) / untraced;
    r.layers["trace.coverage"] = coverage;
    r.layers["trace.overhead"] = overhead;
    r.layer("trace.coverage", coverage, "%");
    r.layer("trace.uncovered", 100.0 - coverage, "%");
    r.layer("trace.overhead", overhead, "%");
    for (const auto &[span, t] : sp.totals())
        r.layer("span_share." + span, 100.0 * t.seconds / wall,
                "% of traced wall");

    auto sum = [&](std::initializer_list<const char *> names) {
        double v = 0.0;
        for (const char *n : names)
            v += sp.seconds(n);
        return v;
    };
    r.layers["share.dglx.sample"] =
        100.0 * sum({"dglx.neighbor", "dglx.cluster", "dglx.saint"}) /
        wall;
    r.layers["share.pygx.sample"] =
        100.0 * sum({"pygx.neighbor", "pygx.cluster", "pygx.saint"}) /
        wall;
    r.layers["share.prefetch.wait"] =
        100.0 *
        sum({"w3.dglx.neighbor", "w3.dglx.cluster", "w3.dglx.saint",
             "w3.pygx.neighbor", "w3.pygx.cluster", "w3.pygx.saint"}) /
        wall;
    r.layers["share.core.gather"] = 100.0 * sp.seconds("core.gather") / wall;

    for (const char *fw : {"dglx", "pygx"})
        for (const char *smp : {"neighbor", "cluster", "saint"}) {
            const std::string span = std::string(fw) + "." + smp;
            r.layer(span + ".sample_ms", sp.meanMs(span), "ms");
        }
    r.layer("pygx.interp.modeled_s", traced.p0.modeled, "s (modeled)");
    r.layer("core.gather_ms", sp.meanMs("core.gather"), "ms");
    r.layer("prefetch.wait_ms",
            1e3 *
                sum({"w3.dglx.neighbor", "w3.dglx.cluster",
                     "w3.dglx.saint", "w3.pygx.neighbor",
                     "w3.pygx.cluster", "w3.pygx.saint"}) /
                std::max<double>(1.0, traced.d3.batches +
                                          traced.p3.batches),
            "ms");
    r.layer("prefetch.worker_busy_s",
            traced.d3.workerBusy + traced.p3.workerBusy, "s");
    const double blocks = static_cast<double>(
        counterDelta(c0, c1, "prefetch.dequeue_blocks"));
    r.layers["prefetch.dequeue_blocks"] = blocks;
    r.layer("prefetch.dequeue_blocks", blocks, "count");
    r.layer("prefetch.dequeue_block_nanos",
            static_cast<double>(
                counterDelta(c0, c1, "prefetch.dequeue_block_nanos")),
            "ns");

    const Tally &a = traced.d0;
    const double per_batch = 1.0 / std::max<int64_t>(a.batches, 1);
    r.layers["sample.input_nodes_per_batch"] = a.nodes * per_batch;
    r.layers["sample.edges_per_batch"] = a.edges * per_batch;
    r.layer("sample.input_nodes_per_batch", a.nodes * per_batch, "count");
    r.layer("sample.edges_per_batch", a.edges * per_batch, "count");
}

} // namespace perfbench
