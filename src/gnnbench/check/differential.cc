#include "gnnbench/check/differential.h"

#include <cmath>
#include <sstream>

#include "gnnbench/check/validate_sampling.h"
#include "gnnbench/core/optim.h"
#include "gnnbench/dglx/kernels.h"
#include "gnnbench/dglx/sampler.h"
#include "gnnbench/graph/convert.h"
#include "gnnbench/pygx/sampler.h"
#include "gnnbench/pygx/scatter.h"

namespace gnnbench {
namespace check {

namespace {

namespace ag = core::ag;
using core::Tensor;

/** Random distinct seed nodes (at most @p want) for sampler draws. */
std::vector<NodeId>
randomSeeds(core::Rng &rng, NodeId n, size_t want)
{
    std::vector<NodeId> out;
    for (size_t i = 0; i < want * 3 && out.size() < want; ++i) {
        const auto v = static_cast<NodeId>(
            rng.uniformInt(static_cast<uint64_t>(n)));
        bool dup = false;
        for (NodeId u : out)
            dup = dup || u == v;
        if (!dup)
            out.push_back(v);
    }
    return out;
}

Result
closeScalar(const char *what, double a, double b, double rel,
            double abs_slack)
{
    if (std::fabs(a - b) <=
        abs_slack + rel * std::max(1.0, std::fabs(b)))
        return Result::pass();
    std::ostringstream oss;
    oss << what << ": dglx " << a << " vs pygx " << b
        << " beyond tolerance (rel " << rel << ")";
    return Result::fail(oss.str());
}

} // namespace

Result
compareTensors(const char *what, const Tensor &a, const Tensor &b,
               DiffTol tol)
{
    if (!a.sameShape(b)) {
        std::ostringstream oss;
        oss << what << ": shape mismatch";
        return Result::fail(oss.str());
    }
    for (int64_t i = 0; i < a.numel(); ++i) {
        const float av = a.data()[i];
        const float bv = b.data()[i];
        const float bound =
            tol.abs + tol.rel * std::max(1.0f, std::fabs(bv));
        if (std::fabs(av - bv) > bound || std::isnan(av) ||
            std::isnan(bv)) {
            std::ostringstream oss;
            oss << what << ": element " << i << " differs (dglx "
                << av << ", pygx " << bv << ", bound " << bound
                << ")";
            return Result::fail(oss.str());
        }
    }
    return Result::pass();
}

DiffCase::DiffCase(const GraphCase &c, uint64_t seed,
                   int64_t feat_dim, int32_t num_classes)
    : sym(graph::symmetrize(c.coo, false)), dgl(sym), pyg(sym),
      x([&] {
          core::Rng rng(seed ^ 0xFEA7ULL);
          return Tensor::randn(sym.numNodes, feat_dim, rng);
      }()),
      featDim(feat_dim), numClasses(num_classes)
{
    labels.resize(static_cast<size_t>(sym.numNodes));
    for (NodeId v = 0; v < sym.numNodes; ++v)
        labels[static_cast<size_t>(v)] = v % num_classes;
}

Result
diffConvForward(nn::ConvKind kind, const GraphCase &c,
                uint64_t seed, DiffTol tol)
{
    DiffCase d(c, seed);
    const int64_t out_dim = 5;
    core::Rng wrng_d(seed ^ 0x11ULL), wrng_p(seed ^ 0x11ULL);
    auto dconv =
        dglx::makeConv(kind, d.featDim, out_dim, wrng_d, false);
    auto pconv =
        pygx::makeConv(kind, d.featDim, out_dim, wrng_p, false);

    Tensor in = d.x.clone();
    if (kind == nn::ConvKind::Gcn2) {
        core::Rng prng(seed ^ 0x22ULL);
        in = core::ops::matmul(
            d.x, Tensor::glorot(d.featDim, out_dim, prng));
        static_cast<dglx::Gcn2Conv *>(dconv.get())
            ->setInitial(ag::constant(in.clone()));
        static_cast<pygx::Gcn2Conv *>(pconv.get())
            ->setInitial(ag::constant(in.clone()));
    }

    dglx::KernelCtx dctx;
    pygx::KernelCtx pctx;
    ag::Var dout =
        dconv->forward(d.dgl, ag::constant(in.clone()), dctx);
    ag::Var pout =
        pconv->forward(d.pyg, ag::constant(in.clone()), pctx);
    std::string what =
        std::string("forward[") + nn::convKindName(kind) + "]";
    return compareTensors(what.c_str(), dout->value, pout->value,
                          tol);
}

Result
diffTrainSteps(const GraphCase &c, uint64_t seed, int steps,
               DiffTol tol)
{
    DiffCase d(c, seed);
    const int64_t hidden = 7;
    core::Rng wrng_d(seed ^ 0x33ULL), wrng_p(seed ^ 0x33ULL);
    dglx::GcnConv d1(d.featDim, hidden, wrng_d);
    dglx::GcnConv d2(hidden, d.numClasses, wrng_d);
    pygx::GcnConv p1(d.featDim, hidden, wrng_p);
    pygx::GcnConv p2(hidden, d.numClasses, wrng_p);

    auto dparams = d1.params();
    {
        auto tail = d2.params();
        dparams.insert(dparams.end(), tail.begin(), tail.end());
    }
    auto pparams = p1.params();
    {
        auto tail = p2.params();
        pparams.insert(pparams.end(), tail.begin(), tail.end());
    }
    core::Adam dopt(dparams, 0.01f), popt(pparams, 0.01f);
    dglx::KernelCtx dctx;
    pygx::KernelCtx pctx;

    for (int s = 0; s < steps; ++s) {
        ag::Var dout = d2.forward(
            d.dgl,
            ag::relu(d1.forward(
                d.dgl, ag::constant(d.x.clone()), dctx)),
            dctx);
        ag::Var dloss =
            ag::nllLoss(ag::logSoftmax(dout), d.labels, {});
        dopt.zeroGrad();
        ag::backward(dloss);

        ag::Var pout = p2.forward(
            d.pyg,
            ag::relu(p1.forward(
                d.pyg, ag::constant(d.x.clone()), pctx)),
            pctx);
        ag::Var ploss =
            ag::nllLoss(ag::logSoftmax(pout), d.labels, {});
        popt.zeroGrad();
        ag::backward(ploss);

        if (Result r = closeScalar("train-step loss",
                                   dloss->value(0, 0),
                                   ploss->value(0, 0), tol.rel,
                                   tol.abs);
            !r)
            return r;
        for (size_t i = 0; i < dparams.size(); ++i)
            if (Result r = compareTensors("train-step gradient",
                                          dparams[i]->grad,
                                          pparams[i]->grad, tol);
                !r)
                return r;
        dopt.step();
        popt.step();
    }
    for (size_t i = 0; i < dparams.size(); ++i)
        if (Result r = compareTensors("post-step parameter",
                                      dparams[i]->value,
                                      pparams[i]->value, tol);
            !r)
            return r;
    return Result::pass();
}

Result
diffInducedStep(const GraphCase &c, uint64_t seed, DiffTol tol)
{
    DiffCase d(c, seed);
    const NodeId n = d.sym.numNodes;
    core::Rng rng(seed ^ 0x44ULL);
    const size_t want = 1 + rng.uniformInt(
                                static_cast<uint64_t>(n));
    std::vector<NodeId> nodes = randomSeeds(rng, n, want);

    // The same node subset materialized both ways.  The symmetrized
    // graph makes csr == csc up to row-internal order, so the two
    // subgraphs describe the same adjacency.
    std::vector<NodeId> scratch(static_cast<size_t>(n), -1);
    sampling::InducedSample smp = dglx::ClusterSampler::extractInduced(
        d.dgl.csr(), nodes, scratch);
    pygx::EdgeBatch batch;
    batch.nodes = nodes;
    {
        graph::CsrGraph ref = graph::inducedSubgraph(
            graph::cooToCsc(d.sym), nodes);
        for (NodeId u = 0; u < ref.numRows; ++u)
            for (EdgeId e = ref.indptr[u]; e < ref.indptr[u + 1];
                 ++e) {
                batch.src.push_back(
                    ref.indices[static_cast<size_t>(e)]);
                batch.dst.push_back(u);
            }
    }

    // Identical supervision: every subgraph node carries loss.
    std::vector<int32_t> labels(nodes.size());
    std::vector<NodeId> loss_rows(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
        labels[i] = d.labels[static_cast<size_t>(nodes[i])];
        loss_rows[i] = static_cast<NodeId>(i);
    }
    Tensor xb(static_cast<int64_t>(nodes.size()), d.featDim);
    for (size_t i = 0; i < nodes.size(); ++i)
        for (int64_t f = 0; f < d.featDim; ++f)
            xb(static_cast<int64_t>(i), f) = d.x(nodes[i], f);

    const int64_t hidden = 6;
    core::Rng wrng_d(seed ^ 0x55ULL), wrng_p(seed ^ 0x55ULL);
    dglx::GcnConv d1(d.featDim, hidden, wrng_d);
    dglx::GcnConv d2(hidden, d.numClasses, wrng_d);
    pygx::GcnConv p1(d.featDim, hidden, wrng_p);
    pygx::GcnConv p2(hidden, d.numClasses, wrng_p);
    dglx::KernelCtx dctx;
    pygx::KernelCtx pctx;

    const std::vector<float> norm = nn::gcnNorm(smp.adj);
    const std::vector<float> self = nn::selfScale(smp.adj);
    ag::Var dh = d1.forwardInduced(smp.adj, norm, self,
                                   ag::constant(xb.clone()), dctx);
    ag::Var dout =
        d2.forwardInduced(smp.adj, norm, self, ag::relu(dh), dctx);
    ag::Var dloss =
        ag::nllLoss(ag::logSoftmax(dout), labels, loss_rows);
    ag::backward(dloss);

    ag::Var ph =
        p1.forwardBatch(batch, ag::constant(xb.clone()), pctx);
    ag::Var pout = p2.forwardBatch(batch, ag::relu(ph), pctx);
    ag::Var ploss =
        ag::nllLoss(ag::logSoftmax(pout), labels, loss_rows);
    ag::backward(ploss);

    if (Result r =
            compareTensors("induced-step output", dout->value,
                           pout->value, tol);
        !r)
        return r;
    if (Result r = closeScalar("induced-step loss",
                               dloss->value(0, 0),
                               ploss->value(0, 0), tol.rel, tol.abs);
        !r)
        return r;
    auto dp = d1.params(), pp = p1.params();
    for (size_t i = 0; i < dp.size(); ++i)
        if (Result r = compareTensors("induced-step gradient",
                                      dp[i]->grad, pp[i]->grad, tol);
            !r)
            return r;
    return Result::pass();
}

Result
diffNeighborSamplerStats(const GraphCase &c,
                         const std::vector<int> &fanouts,
                         uint64_t seed, int draws, double rel_tol)
{
    DiffCase d(c, seed);
    const NodeId n = d.sym.numNodes;
    dglx::NeighborSampler ds(d.dgl, fanouts,
                             core::Rng(seed ^ 0x66ULL));
    pygx::NeighborSampler ps(d.pyg, fanouts,
                             core::Rng(seed ^ 0x77ULL), nullptr);
    core::Rng srng(seed ^ 0x88ULL);
    const size_t top = fanouts.size() - 1;
    double dfrontier = 0, pfrontier = 0;
    std::vector<double> dedges(fanouts.size(), 0);
    std::vector<double> pedges(fanouts.size(), 0);
    for (int t = 0; t < draws; ++t) {
        std::vector<NodeId> seeds = randomSeeds(
            srng, n, 1 + srng.uniformInt(4));
        sampling::NeighborSample dsmp = ds.sample(seeds);
        pygx::NeighborBatch psmp = ps.sample(seeds);
        for (size_t l = 0; l < fanouts.size(); ++l) {
            const auto de = static_cast<int64_t>(
                dsmp.blocks[l].csc.indices.size());
            const auto pe = static_cast<int64_t>(
                psmp.layers[l].eSrc.size());
            // Only the seed-side layer samples from an identical
            // frontier in both frameworks; there, edges kept per
            // destination are min(degree, fanout) — deterministic —
            // so the counts must agree exactly.  Deeper frontiers
            // depend on each framework's own RNG stream and agree
            // only distributionally.
            if (l == top && de != pe) {
                std::ostringstream oss;
                oss << "neighbor samplers: seed layer edge counts"
                    << " differ (dglx " << de << ", pygx " << pe
                    << ")";
                return Result::fail(oss.str());
            }
            dedges[l] += static_cast<double>(de);
            pedges[l] += static_cast<double>(pe);
        }
        dfrontier +=
            static_cast<double>(dsmp.inputNodes().size());
        pfrontier +=
            static_cast<double>(psmp.inputNodes().size());
    }
    for (size_t l = 0; l < top; ++l) {
        std::ostringstream name;
        name << "neighbor samplers: layer " << l
             << " mean edge count";
        if (Result r = closeScalar(name.str().c_str(),
                                   dedges[l] / draws,
                                   pedges[l] / draws, rel_tol, 4.0);
            !r)
            return r;
    }
    return closeScalar("neighbor samplers: mean frontier size",
                       dfrontier / draws, pfrontier / draws, rel_tol,
                       2.0);
}

Result
diffSaintRwStats(const GraphCase &c, int32_t num_roots,
                 int32_t walk_length, uint64_t seed, int draws,
                 double rel_tol)
{
    DiffCase d(c, seed);
    const auto roots = std::min<int32_t>(
        num_roots, std::max<int32_t>(1, d.sym.numNodes / 2));
    dglx::SaintRwSampler ds(d.dgl, roots, walk_length,
                            core::Rng(seed ^ 0x99ULL));
    pygx::SaintRwSampler ps(d.pyg, roots, walk_length,
                            core::Rng(seed ^ 0xAAULL), nullptr);
    double dnodes = 0, pnodes = 0, dedges = 0, pedges = 0;
    for (int t = 0; t < draws; ++t) {
        sampling::InducedSample dsmp = ds.sample();
        pygx::EdgeBatch psmp = ps.sample();
        dnodes += static_cast<double>(dsmp.nodes.size());
        pnodes += static_cast<double>(psmp.nodes.size());
        dedges += static_cast<double>(dsmp.adj.indices.size());
        pedges += static_cast<double>(psmp.src.size());
    }
    if (Result r = closeScalar("saint-rw samplers: mean node count",
                               dnodes / draws, pnodes / draws,
                               rel_tol, 2.0);
        !r)
        return r;
    return closeScalar("saint-rw samplers: mean edge count",
                       dedges / draws, pedges / draws, rel_tol, 4.0);
}

Result
diffInducedExtraction(const GraphCase &c, uint64_t seed)
{
    DiffCase d(c, seed);
    const NodeId n = d.sym.numNodes;
    core::Rng rng(seed ^ 0xBBULL);
    std::vector<NodeId> nodes = randomSeeds(
        rng, n, 1 + rng.uniformInt(static_cast<uint64_t>(n)));
    std::vector<NodeId> scratch(static_cast<size_t>(n), -1);
    sampling::InducedSample smp =
        dglx::ClusterSampler::extractInduced(d.dgl.csr(), nodes,
                                             scratch);
    // checkInducedSample compares against graph::inducedSubgraph, so
    // this certifies the fast flat-scratch path against the
    // reference; the pygx extraction path is certified by
    // checkEdgeBatch on real sampler outputs.
    return checkInducedSample(smp, d.dgl.csr());
}

Result
diffUnifiedAggregation(const GraphCase &c, uint64_t seed)
{
    const graph::CsrGraph csc = graph::cooToCsc(c.coo);
    const NodeId n = csc.numRows;
    const int64_t f = 11;
    core::Rng rng(seed ^ 0xA66ULL);
    Tensor x = Tensor::randn(n, f, rng);

    // Materialize the edge list in csc traversal order so the pygx
    // scatter pipeline visits each destination's in-edges in exactly
    // the order the fused dglx kernel reduces them.
    const size_t m = static_cast<size_t>(csc.numEdges());
    std::vector<NodeId> esrc, edst;
    esrc.reserve(m);
    edst.reserve(m);
    for (NodeId d = 0; d < csc.numRows; ++d)
        for (EdgeId e = csc.indptr[d]; e < csc.indptr[d + 1]; ++e) {
            esrc.push_back(csc.indices[e]);
            edst.push_back(d);
        }

    dglx::KernelCtx dctx;
    pygx::KernelCtx pctx;
    const DiffTol bitExact{0.0f, 0.0f};

    const Tensor msgs = pygx::gather(x, esrc, pctx);
    if (Result r = compareTensors(
            "unified aggregation (sum)",
            dglx::gspmm(csc, x, dglx::Reducer::Sum, nullptr, dctx),
            pygx::scatterSum(msgs, edst, n, pctx), bitExact);
        !r)
        return r;
    if (Result r = compareTensors(
            "unified aggregation (mean)",
            dglx::gspmm(csc, x, dglx::Reducer::Mean, nullptr, dctx),
            pygx::scatterMean(msgs, edst, n, pctx), bitExact);
        !r)
        return r;
    if (Result r = compareTensors(
            "unified aggregation (max)",
            dglx::gspmm(csc, x, dglx::Reducer::Max, nullptr, dctx),
            pygx::scatterMax(msgs, edst, n, pctx), bitExact);
        !r)
        return r;

    std::vector<float> w(m);
    Tensor wt(static_cast<NodeId>(m), 1);
    for (size_t e = 0; e < m; ++e) {
        w[e] = rng.uniformFloat() - 0.5f;
        wt(static_cast<NodeId>(e), 0) = w[e];
    }
    const Tensor dWeighted =
        dglx::gspmm(csc, x, dglx::Reducer::Sum, w.data(), dctx);
    // Both fused entry points resolve to kernels::spmm, so the
    // weighted reduction is bit-identical across frameworks.
    if (Result r = compareTensors(
            "unified aggregation (weighted fused)", dWeighted,
            pygx::spmm(csc, x, w.data(), pctx), bitExact);
        !r)
        return r;
    // The materialized path rounds each w[e]*x product to float
    // before accumulating, while the fused kernel may contract it
    // into an FMA; hold those to a tight tolerance instead.
    return compareTensors(
        "unified aggregation (weighted materialized)", dWeighted,
        pygx::scatterSum(pygx::mulEdgeScalar(msgs, wt, pctx), edst, n,
                         pctx),
        DiffTol{1e-5f, 1e-6f});
}

} // namespace check
} // namespace gnnbench
