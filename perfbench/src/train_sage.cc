/**
 * @file
 * Workload train_sage: GraphSAGE mini-batch training (paper settings:
 * fanouts 25/10, batch 512, hidden 256, 0 workers) through
 * models::trainGraphSage, DGL-CPU and PyG-CPU, plus one DGL-CPUGPU
 * epoch with feature preload for the modeled device hierarchy.
 *
 * The traced run replays graphsage.cc's step loop through the public
 * layer calls with a span around each call, checks that its loss is
 * bit-identical to trainGraphSage's, and reads the kernel spans and
 * counters the library already records.
 */

#include "bench.h"
#include "gnnbench/core/autograd.h"
#include "gnnbench/core/ops.h"
#include "gnnbench/core/optim.h"
#include "gnnbench/dglx/dataloader.h"
#include "gnnbench/dglx/nn.h"
#include "gnnbench/graph/datasets.h"
#include "gnnbench/models/graphsage.h"
#include "gnnbench/pygx/dataloader.h"
#include "gnnbench/pygx/nn.h"
#include "gnnbench/profiling/trace.h"

namespace perfbench {

using namespace gnnbench;
namespace ag = core::ag;

namespace {

constexpr int kSetupRepeats = 3;

std::vector<int32_t>
seedLabels(const std::vector<int32_t> &labels,
           const std::vector<NodeId> &seeds)
{
    std::vector<int32_t> out(seeds.size());
    for (size_t i = 0; i < seeds.size(); ++i)
        out[i] = labels[seeds[i]];
    return out;
}

/** Work counts of the batches a replica delivered. */
struct BatchWork
{
    int64_t batches = 0;
    int64_t inputNodes = 0;
    int64_t edges = 0;
};

/** Per-epoch losses of a trainGraphSage call. */
std::vector<double>
losses(const models::TrainResult &res)
{
    std::vector<double> out;
    for (const auto &e : res.epochs)
        out.push_back(e.loss);
    return out;
}

/** The steps of graphsage.cc's runDglx (CPU mode), one span each. */
std::vector<double>
replicaDglx(const graph::Dataset &ds, const models::TrainConfig &cfg,
            Spans &sp, BatchWork &work)
{
    core::Rng rng(cfg.seed);
    device::Session session;
    dglx::LoadedData ld = spanned(
        &sp, "dglx.load", [&] { return dglx::DataLoader::load(ds); });
    dglx::KernelCtx ctx{&session, device::DeviceType::CPU,
                        dglx::Costs{}};
    core::Rng wrng = rng.fork();
    dglx::SageConv layer1(ds.info.numFeatures, cfg.hiddenDim, wrng);
    dglx::SageConv layer2(cfg.hiddenDim, ds.info.numClasses, wrng);
    std::vector<ag::Var> params = layer1.params();
    params.insert(params.end(), layer2.params().begin(),
                  layer2.params().end());
    core::Adam opt(params, cfg.lr);
    core::Rng srng = rng.fork();
    dglx::NeighborSampler sampler(*ld.graph, cfg.fanouts, srng);

    std::vector<double> out;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        double loss_sum = 0.0;
        int64_t total = 0;
        auto batches = models::makeBatches(ld.trainIdx, cfg.batchSize,
                                           rng);
        dglx::NeighborLoader loader(sampler, rng, batches,
                                    cfg.numWorkers, cfg.prefetchDepth);
        for (auto &seeds : batches) {
            sampling::NeighborSample smp = spanned(
                &sp, "dglx.sample", [&] { return take(loader.next()); });
            ++work.batches;
            work.inputNodes +=
                static_cast<int64_t>(smp.inputNodes().size());
            for (const auto &b : smp.blocks)
                work.edges += b.csc.numEdges();
            core::Tensor x = spanned(&sp, "core.gather", [&] {
                return core::ops::gatherRows(ld.features,
                                             smp.inputNodes());
            });
            ag::Var loss;
            {
                Span s(sp, "dglx.forward");
                ag::Var xv = ag::leaf(std::move(x), false);
                ag::Var h = layer1.forwardBlock(smp.blocks[0], xv, ctx);
                h = ag::relu(h);
                ag::Var o = layer2.forwardBlock(smp.blocks[1], h, ctx);
                ag::Var lp = ag::logSoftmax(o);
                loss = ag::nllLoss(lp, seedLabels(ld.labels, seeds), {});
                loss_sum +=
                    loss->value(0, 0) * static_cast<double>(seeds.size());
                total += static_cast<int64_t>(seeds.size());
            }
            spanned(&sp, "core.optim", [&] { opt.zeroGrad(); });
            spanned(&sp, "core.backward", [&] { ag::backward(loss); });
            spanned(&sp, "core.optim", [&] { opt.step(); });
        }
        out.push_back(loss_sum / std::max<int64_t>(total, 1));
    }
    return out;
}

/** The steps of graphsage.cc's runPygx (CPU mode), one span each. */
std::vector<double>
replicaPygx(const graph::Dataset &ds, const models::TrainConfig &cfg,
            Spans &sp, BatchWork &work, double *interp_modeled)
{
    core::Rng rng(cfg.seed);
    device::Session session;
    pygx::LoadedData ld = spanned(
        &sp, "pygx.load", [&] { return pygx::DataLoader::load(ds); });
    pygx::KernelCtx ctx{&session, device::DeviceType::CPU,
                        pygx::Costs{}, 1.0 / ds.scale};
    core::Rng wrng = rng.fork();
    pygx::SageConv layer1(ds.info.numFeatures, cfg.hiddenDim, wrng);
    pygx::SageConv layer2(cfg.hiddenDim, ds.info.numClasses, wrng);
    std::vector<ag::Var> params = layer1.params();
    params.insert(params.end(), layer2.params().begin(),
                  layer2.params().end());
    core::Adam opt(params, cfg.lr);
    pygx::NeighborSampler sampler(*ld.data, cfg.fanouts, rng.fork(),
                                  &session);

    std::vector<double> out;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        double loss_sum = 0.0;
        int64_t total = 0;
        auto batches = models::makeBatches(ld.trainIdx, cfg.batchSize,
                                           rng);
        pygx::NeighborLoader loader(sampler, rng, batches,
                                    cfg.numWorkers, cfg.prefetchDepth,
                                    &session);
        for (auto &seeds : batches) {
            pygx::NeighborBatch batch = spanned(
                &sp, "pygx.sample", [&] { return take(loader.next()); });
            ++work.batches;
            work.inputNodes +=
                static_cast<int64_t>(batch.inputNodes().size());
            for (const auto &l : batch.layers)
                work.edges += static_cast<int64_t>(l.eSrc.size());
            core::Tensor x = spanned(&sp, "core.gather", [&] {
                return core::ops::gatherRows(ld.features,
                                             batch.inputNodes());
            });
            ag::Var loss;
            {
                Span s(sp, "pygx.forward");
                ag::Var xv = ag::leaf(std::move(x), false);
                ag::Var h =
                    layer1.forwardLayer(batch.layers[0], xv, ctx);
                h = ag::relu(h);
                ag::Var o = layer2.forwardLayer(batch.layers[1], h, ctx);
                ag::Var lp = ag::logSoftmax(o);
                loss = ag::nllLoss(lp, seedLabels(ld.labels, seeds), {});
                loss_sum +=
                    loss->value(0, 0) * static_cast<double>(seeds.size());
                total += static_cast<int64_t>(seeds.size());
            }
            spanned(&sp, "core.optim", [&] { opt.zeroGrad(); });
            spanned(&sp, "core.backward", [&] { ag::backward(loss); });
            spanned(&sp, "core.optim", [&] { opt.step(); });
        }
        out.push_back(loss_sum / std::max<int64_t>(total, 1));
    }
    *interp_modeled += session.snapshot().modeled.cpuOverheadSeconds;
    return out;
}

/** Modeled GPU + transfer seconds of a preload run's phases. */
double
modeledDeviceSeconds(const models::TrainResult &res)
{
    double s = 0.0;
    for (const auto &p : res.phases)
        s += p.gpuBusySeconds + p.xferSeconds;
    return s;
}

} // namespace

void
runTrainSage(const Options &opt, Result &r)
{
    const std::string name = opt.tiny ? "ppi" : "flickr";
    const double scale = opt.tiny ? 0.05 : 0.25;
    r.settings.push_back({"dataset", name});
    r.settings.push_back({"scale", std::to_string(scale)});

    // ---- set-up: dataset synthesis (the frameworks load inside each
    // trainGraphSage call, as a user's script would) ----
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

    models::TrainConfig dcfg;
    dcfg.framework = models::Framework::Dglx;
    dcfg.mode = models::RunMode::CPU;
    dcfg.epochs = 1;
    dcfg.hiddenDim = opt.tiny ? 32 : 256;
    dcfg.seed = opt.seed;
    dcfg.numWorkers = 0;
    models::TrainConfig pcfg = dcfg;
    pcfg.framework = models::Framework::Pygx;
    models::TrainConfig gcfg = dcfg;
    gcfg.mode = models::RunMode::CPUGPU;
    gcfg.preloadFeatures = true;

    auto call = [&](const models::TrainConfig &cfg, double *secs) {
        const double t0 = now();
        models::TrainResult res = models::trainGraphSage(ds, cfg);
        *secs = (now() - t0) / cfg.epochs;
        ++r.attempted;
        if (res.oom || res.epochs.size() != static_cast<size_t>(cfg.epochs))
            ++r.failed;
        return res;
    };
    auto sameLoss = [&](const std::vector<double> &a,
                        const std::vector<double> &b, const char *what) {
        bool same = a.size() == b.size();
        for (size_t i = 0; same && i < a.size(); ++i)
            same = bitEqual(a[i], b[i]);
        if (!same)
            ++r.failed;
        r.check(same, what);
    };

    // Untimed warm-up calls; their losses are the references.
    double ignored = 0.0;
    const std::vector<double> dref = losses(call(dcfg, &ignored));
    const std::vector<double> pref = losses(call(pcfg, &ignored));
    const models::TrainResult g1 = call(gcfg, &ignored);
    const double gpu_modeled = modeledDeviceSeconds(g1);

    if (!opt.trace) {
        // ---- measured: alternate DGL-CPU and PyG-CPU calls ----
        std::vector<double> dt, pt;
        const double deadline = now() + opt.seconds;
        while (dt.size() < 2 || now() < deadline) {
            double s = 0.0;
            sameLoss(losses(call(dcfg, &s)), dref,
                     "train_sage: dglx loss repeats bit-exactly");
            dt.push_back(s);
            sameLoss(losses(call(pcfg, &s)), pref,
                     "train_sage: pygx loss repeats bit-exactly");
            pt.push_back(s);
            if (opt.tiny && dt.size() >= 2)
                break;
        }
        // The modeled preload epoch must repeat exactly.
        const models::TrainResult g2 = call(gcfg, &ignored);
        const double gpu_again = modeledDeviceSeconds(g2);
        r.check(bitEqual(gpu_modeled, gpu_again),
                "train_sage: modeled preload epoch repeats exactly");
        r.check(gpu_modeled > 0.0,
                "train_sage: preload epoch charges modeled time");
        sameLoss(losses(g2), losses(g1),
                 "train_sage: preload loss repeats bit-exactly");

        const double d = median(dt), p = median(pt);
        r.slots["primary_ms"] = 1e3 * d;
        r.slots["secondary_ms"] = 1e3 * p;
        r.slots["tertiary_ms"] = 1e3 * gpu_modeled;
        r.slots["throughput_per_s"] =
            static_cast<double>(ds.trainIdx.size()) / d;
        r.figure("train.dglx.epoch_s", d, "s", "measured");
        r.figure("train.pygx.epoch_s", p, "s", "measured");
        r.figure("train.dglx_gpu.modeled_epoch_s", gpu_modeled, "s",
                 "modeled");
        r.figure("train.dglx.seeds_per_s", r.slots["throughput_per_s"],
                 "1/s", "measured");
        r.figure("train.epochs_timed", static_cast<double>(dt.size()),
                 "count", "measured");
        return;
    }

    // ---- traced run ----
    double dglx_untraced = 0.0, pygx_untraced = 0.0;
    sameLoss(losses(call(dcfg, &dglx_untraced)), dref,
             "train_sage: dglx loss repeats bit-exactly");
    sameLoss(losses(call(pcfg, &pygx_untraced)), pref,
             "train_sage: pygx loss repeats bit-exactly");

    auto &tr = profiling::TraceRecorder::global();
    const auto c0 = counterSnapshot();
    tr.clear();
    tr.enable();
    Spans sp;
    BatchWork work;
    double interp = 0.0;
    const double t0 = now();
    const std::vector<double> dl = replicaDglx(ds, dcfg, sp, work);
    const double t1 = now();
    const std::vector<double> pl =
        replicaPygx(ds, pcfg, sp, work, &interp);
    const double t2 = now();
    tr.disable();
    const KernelSpans ks = readKernelSpans();
    const auto c1 = counterSnapshot();
    r.attempted += 2;
    sameLoss(dl, dref, "train_sage: traced dglx replica loss is "
                       "bit-identical to trainGraphSage");
    sameLoss(pl, pref, "train_sage: traced pygx replica loss is "
                       "bit-identical to trainGraphSage");

    // Device hierarchy counters of one preload epoch.
    const auto g0c = counterSnapshot();
    const double gpu_again = modeledDeviceSeconds(call(gcfg, &ignored));
    const auto g1c = counterSnapshot();
    r.check(bitEqual(gpu_modeled, gpu_again),
            "train_sage: modeled preload epoch repeats exactly");

    const double wall = t2 - t0;
    const double covered = sp.covered();
    const double coverage = 100.0 * covered / wall;
    r.check(coverage >= 95.0 || opt.tiny,
            "train_sage: layer spans cover >= 95% of traced wall");
    const double untraced = dglx_untraced + pygx_untraced;
    const double overhead = 100.0 * (wall - untraced) / untraced;
    r.layers["trace.coverage"] = coverage;
    r.layers["trace.overhead"] = overhead;
    r.layer("trace.coverage", coverage, "%");
    r.layer("trace.uncovered", 100.0 - coverage, "%");
    r.layer("trace.overhead", overhead, "%");
    r.layer("trace.dglx_epoch_s", t1 - t0, "s");
    r.layer("trace.pygx_epoch_s", t2 - t1, "s");

    const std::pair<const char *, const char *> shares[] = {
        {"dglx.sample", "share.dglx.sample"},
        {"pygx.sample", "share.pygx.sample"},
        {"core.gather", "share.core.gather"},
        {"dglx.forward", "share.dglx.forward"},
        {"pygx.forward", "share.pygx.forward"},
        {"core.backward", "share.core.backward"},
        {"core.optim", "share.core.optim"},
    };
    for (const auto &[span, key] : shares)
        r.layers[key] = 100.0 * sp.seconds(span) / wall;
    r.layers["share.kernels"] = 100.0 * ks.busySeconds / wall;
    for (const auto &[span, t] : sp.totals())
        r.layer("span_share." + span,
                100.0 * t.seconds / wall, "% of traced wall");

    r.layer("dglx.load_s", sp.seconds("dglx.load"), "s");
    r.layer("pygx.load_s", sp.seconds("pygx.load"), "s");
    r.layer("dglx.neighbor.sample_ms", sp.meanMs("dglx.sample"), "ms");
    r.layer("pygx.neighbor.sample_ms", sp.meanMs("pygx.sample"), "ms");
    r.layer("pygx.interp.modeled_s", interp, "s (modeled)");
    r.layer("dglx.forward_ms", sp.meanMs("dglx.forward"), "ms");
    r.layer("pygx.forward_ms", sp.meanMs("pygx.forward"), "ms");
    r.layer("core.backward_ms", sp.meanMs("core.backward"), "ms");
    r.layer("core.optim_ms",
            1e3 * sp.seconds("core.optim") /
                std::max<double>(1.0, sp.calls("core.backward")),
            "ms");
    r.layer("core.gather_ms", sp.meanMs("core.gather"), "ms");
    const double fwd_bwd = sp.seconds("dglx.forward") +
                           sp.seconds("pygx.forward") +
                           sp.seconds("core.backward");
    r.layer("kernels.busy_s", ks.busySeconds, "s");
    r.layer("kernels.share", ks.busySeconds / fwd_bwd, "fraction");
    r.layer("kernels.spans", static_cast<double>(ks.spans), "count");

    const double per_batch = 1.0 / std::max<int64_t>(work.batches, 1);
    r.layers["sample.input_nodes_per_batch"] = work.inputNodes * per_batch;
    r.layers["sample.edges_per_batch"] = work.edges * per_batch;

    // Kernel counters over the traced replicas: per family and summed.
    for (const char *stat : {"calls", "nnz", "bytes", "flops"}) {
        double sum = 0.0;
        for (const auto &[cname, v] : c1) {
            const std::string suffix = std::string(".") + stat;
            if (cname.rfind("kernels.", 0) != 0 ||
                cname.rfind("kernels.variant.", 0) == 0 ||
                cname.size() < suffix.size() ||
                cname.compare(cname.size() - suffix.size(),
                              suffix.size(), suffix) != 0)
                continue;
            const double d =
                static_cast<double>(counterDelta(c0, c1, cname));
            sum += d;
            r.layer(cname, d, "count");
        }
        r.layers[std::string("kernels.") + stat] = sum;
    }
    for (const char *cname :
         {"device.l2.hits", "device.l2.misses", "device.vram.hits",
          "device.vram.misses", "device.dma.bytes", "device.kernel.bytes",
          "device.fusion.fused_bytes_saved", "xfer.h2d_bytes"}) {
        const double d = static_cast<double>(counterDelta(g0c, g1c, cname));
        r.layers[cname] = d;
        r.layer(cname, d, "count (modeled)");
    }
}

} // namespace perfbench
