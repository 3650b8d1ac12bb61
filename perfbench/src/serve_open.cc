/**
 * @file
 * Workload serve_open: the inference server on ppi (2 workers, max
 * batch 16, 50 ms SLO, hidden 64) under open-loop Poisson load from
 * one generator thread that calls Server::submit directly.
 *
 * Each request keeps the time it was due; its latency is
 * Response::finish minus that due time, so a generator stall counts
 * against the requests it delayed, and the generator's lateness is
 * reported.  Fixed rates of 1000 and 4000 QPS each see one
 * Server::publish hot-swap at their halfway mark; a short rate ladder
 * then finds the highest rate that meets the SLO with nothing shed.
 *
 * Output check: every served logit row is replayed offline (reseed
 * from the request id, NeighborSampler::sample, gatherRows,
 * inferLogits) under the weight version that answered it and must
 * match bit for bit.
 */

#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "gnnbench/core/ops.h"
#include "gnnbench/core/parallel.h"
#include "gnnbench/graph/datasets.h"
#include "gnnbench/serve/loadgen.h"
#include "gnnbench/serve/server.h"

namespace perfbench {

using namespace gnnbench;

namespace {

constexpr int kSetupRepeats = 3;
constexpr int64_t kHidden = 64;
constexpr double kLowRate = 1000.0;
constexpr double kHighRate = 4000.0;
/** Windows per measured rate; percentiles are window medians. */
constexpr int kWindows = 9;
/** Unmeasured load after each phase's measured requests. */
constexpr double kTailSeconds = 0.05;
/** Ladder above the fixed rates, stopping at the first failure. */
constexpr double kLadder[] = {8000.0, 16000.0, 32000.0, 64000.0, 128000.0};
/** Salt of the server's per-request sampler streams (server.cc). */
constexpr uint64_t kRequestSalt = 0x5e12e5e12e5e12e5ULL;

serve::ServeConfig
serveConfig(uint64_t seed)
{
    serve::ServeConfig c;
    c.workers = 2;
    c.maxBatch = 16;
    c.sloSeconds = 0.050;
    c.seed = seed;
    return c;
}

/** Everything built before the first request. */
struct Setup
{
    graph::Dataset ds;
    dglx::LoadedData data;
    serve::RealClock clock;
    std::unique_ptr<serve::Server> server;
    /** Every published weight set, by version, for the replay. */
    std::map<uint64_t, serve::ModelWeights> weights;
    double generate = 0.0, load = 0.0, start = 0.0;
};

uint64_t
publish(Setup &s, uint64_t seed)
{
    serve::ModelWeights w = serve::makeSageWeights(
        s.data.features.cols(), kHidden, s.ds.info.numClasses,
        seed * 1000 + s.weights.size() + 1);
    serve::ModelWeights copy = w;
    const uint64_t v = s.server->publish(std::move(w));
    s.weights[v] = std::move(copy);
    return v;
}

std::unique_ptr<Setup>
buildSetup(const std::string &name, double scale, uint64_t seed)
{
    auto s = std::make_unique<Setup>();
    double t = now();
    s->ds = graph::loadDataset(name, scale, seed);
    s->generate = now() - t;
    t = now();
    s->data = dglx::DataLoader::load(s->ds);
    s->load = now() - t;
    t = now();
    s->server = std::make_unique<serve::Server>(s->data,
                                                serveConfig(seed),
                                                s->clock);
    publish(*s, seed);
    s->start = now() - t;
    return s;
}

/** One served request, as the benchmark saw it. */
struct Served
{
    serve::Response resp;
    double due = 0.0;
    /** Measurement window of the request; -1 for the unmeasured tail. */
    int window = -1;
};

/** What one load phase produced. */
struct Phase
{
    int64_t sent = 0;
    int64_t shed = 0;
    int64_t missed = 0;
    std::vector<double> latency;  ///< seconds from due time, per served
    std::vector<double> lag;      ///< seconds the generator ran late
    std::vector<double> submit;   ///< seconds per submit() call
    std::vector<Served> served;
    double publishSeconds = -1.0;
    double drainSeconds = 0.0;  ///< last due time -> all answered
    double batchSizeMean = 0.0;
    double p50 = 0.0;  ///< median over windows of the window p50
    double p99 = 0.0;  ///< median over windows of the window p99

    bool
    meetsSlo(double slo) const
    {
        return shed == 0 && missed == 0 && !latency.empty() &&
               p99 <= slo && drainSeconds <= slo;
    }
};

/** Wait until @p clock reads @p target: sleep while far, then spin,
 *  so the generator keeps pace well beyond the server's capacity. */
void
waitUntil(const serve::Clock &clock, double target)
{
    for (double left = target - clock.now(); left > 0.0;
         left = target - clock.now())
        if (left > 2e-3)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(left - 1.5e-3));
        else
            std::this_thread::yield();
}

/**
 * Offer Poisson load at @p rate: @p seconds of measured requests split
 * into @p windows windows of equal request count, then a short
 * unmeasured tail so the last measured requests are batched like the
 * rest rather than flushed alone; then drain.  The percentiles are
 * medians over windows, so a stall of the machine spoils one window
 * rather than the figure.  With @p hot_swap, a new weight version is
 * published at the halfway request.
 */
Phase
openLoop(Setup &s, double rate, double seconds, int windows,
         core::Rng &rng, uint64_t seed, bool hot_swap)
{
    Phase ph;
    serve::Server &server = *s.server;
    const double slo = server.config().sloSeconds;
    const auto nodes = static_cast<uint64_t>(server.numNodes());
    const auto n = static_cast<int64_t>(std::llround(rate * seconds));
    const auto total =
        n + static_cast<int64_t>(std::llround(rate * kTailSeconds));
    std::unordered_map<uint64_t, std::pair<double, int>> due_of;
    due_of.reserve(static_cast<size_t>(total));
    ph.lag.reserve(static_cast<size_t>(total));
    ph.submit.reserve(static_cast<size_t>(total));

    double due = s.clock.now();
    for (int64_t i = 0; i < total; ++i) {
        waitUntil(s.clock, due);
        ph.lag.push_back(s.clock.now() - due);
        const auto node = static_cast<NodeId>(rng.uniformInt(nodes));
        const double t0 = now();
        const std::optional<uint64_t> id = server.submit(0, node);
        ph.submit.push_back(now() - t0);
        ++ph.sent;
        const int window =
            i < n ? static_cast<int>(i * windows / n) : -1;
        if (id)
            due_of[*id] = {due, window};
        else
            ++ph.shed;
        if (hot_swap && i == n / 2) {
            const double t1 = now();
            publish(s, seed);
            ph.publishSeconds = now() - t1;
        }
        due += -std::log(1.0 - rng.uniform()) / rate;
    }
    server.drain();
    ph.drainSeconds = std::max(0.0, s.clock.now() - due);

    std::map<uint64_t, int> batch_sizes;
    std::vector<std::vector<double>> per_window(
        static_cast<size_t>(windows));
    for (serve::Response &resp : server.takeResponses()) {
        const auto [d, window] = due_of.at(resp.id);
        const double latency = resp.finish - d;
        ph.latency.push_back(latency);
        if (latency > slo)
            ++ph.missed;
        if (window >= 0)
            per_window[static_cast<size_t>(window)].push_back(latency);
        batch_sizes[resp.batchId] = resp.batchSize;
        ph.served.push_back({std::move(resp), d, window});
    }
    double sum = 0.0;
    for (const auto &[id, size] : batch_sizes)
        sum += size;
    ph.batchSizeMean = batch_sizes.empty()
                           ? 0.0
                           : sum / static_cast<double>(batch_sizes.size());
    std::vector<double> p50s, p99s;
    for (const auto &w : per_window) {
        p50s.push_back(quantile(w, 0.5));
        p99s.push_back(quantile(w, 0.99));
    }
    ph.p50 = median(p50s);
    ph.p99 = median(p99s);
    return ph;
}

/**
 * Closed-loop saturation: @p clients requests always in flight
 * (serve::runLoadGen's closed loop) for @p requests requests; the
 * completion rate is the server's capacity at this batch size.
 */
Phase
saturate(Setup &s, int64_t requests, int clients, uint64_t seed,
         double *qps)
{
    Phase ph;
    serve::LoadGenConfig c;
    c.arrival = serve::Arrival::ClosedLoop;
    c.closedLoopClients = clients;
    c.tenants = 1;
    c.requests = requests;
    c.seed = seed;
    const double t0 = s.clock.now();
    const serve::LoadGenResult g = serve::runLoadGen(*s.server, c, s.clock);
    const double t1 = s.clock.now();
    ph.sent = requests;
    ph.shed = g.shed;
    for (serve::Response &resp : s.server->takeResponses()) {
        ph.latency.push_back(resp.latency());
        ph.served.push_back({std::move(resp), 0.0});
    }
    *qps = static_cast<double>(ph.served.size()) / (t1 - t0);
    return ph;
}

/** Offline replay of one request: the server's sampler, gather and
 *  inference calls, timed per call when @p sp is set. */
struct Replayer
{
    const Setup &s;
    dglx::NeighborSampler sampler;

    explicit Replayer(const Setup &setup)
        : s(setup),
          sampler(*setup.data.graph, setup.server->config().fanouts,
                  core::Rng(setup.server->config().seed))
    {
    }

    bool
    matches(const serve::Response &resp, Spans *sp)
    {
        const uint64_t base = s.server->config().seed;
        auto sample = [&] {
            sampler.reseed(core::Rng(
                core::parallel::chunkSeed(base, kRequestSalt, resp.id)));
            return sampler.sample({resp.node});
        };
        sampling::NeighborSample smp = spanned(sp, "serve.sample", sample);
        auto gather = [&] {
            return core::ops::gatherRows(s.data.features,
                                         smp.inputNodes());
        };
        core::Tensor x = spanned(sp, "core.gather", gather);
        auto it = s.weights.find(resp.weightVersion);
        if (it == s.weights.end())
            return false;
        auto infer = [&] { return serve::inferLogits(smp, x, it->second); };
        core::Tensor logits = spanned(sp, "serve.infer", infer);
        return logits.rows() == 1 &&
               logits.cols() == static_cast<int64_t>(resp.logits.size()) &&
               std::memcmp(logits.data(), resp.logits.data(),
                           resp.logits.size() * sizeof(float)) == 0;
    }
};

/** Replay every served request on all cores; returns mismatches. */
int64_t
replayAll(const Setup &s, const std::vector<const Served *> &all)
{
    const int threads = std::max(1, core::parallel::numThreads());
    std::vector<int64_t> bad(static_cast<size_t>(threads), 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            core::parallel::WorkerThreadScope scope;
            Replayer rep(s);
            for (size_t i = static_cast<size_t>(t); i < all.size();
                 i += static_cast<size_t>(threads))
                if (!rep.matches(all[i]->resp, nullptr))
                    ++bad[static_cast<size_t>(t)];
        });
    for (auto &th : pool)
        th.join();
    int64_t total = 0;
    for (int64_t b : bad)
        total += b;
    return total;
}

} // namespace

void
runServeOpen(const Options &opt, Result &r)
{
    const std::string name = "ppi";
    const double scale = opt.tiny ? 0.2 : 1.0;
    r.settings.push_back({"dataset", name});
    r.settings.push_back({"scale", std::to_string(scale)});
    r.settings.push_back({"serve", "2 workers, max batch 16, SLO 50 ms, "
                                   "hidden 64, open-loop Poisson"});

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
    r.layer("dglx.load_s", s->load, "s");
    r.layer("serve.start_s", s->start, "s");

    // Phase lengths scale with the run length; a 20 s run uses a
    // 0.5 s warm-up, 9 s at 1000 QPS and 4.5 s at 4000 QPS (9 windows
    // each), 9 x 5000 closed-loop requests and 0.5 s per ladder step.
    const double unit = opt.tiny ? 0.02 : opt.seconds / 20.0;
    const double slo = s->server->config().sloSeconds;
    core::Rng rng(core::parallel::chunkSeed(opt.seed, 0x10ad, 0));
    openLoop(*s, kLowRate, 0.5 * unit, 1, rng, opt.seed, false);
    const Phase low =
        openLoop(*s, kLowRate, 9 * unit, kWindows, rng, opt.seed, true);
    const Phase high = openLoop(*s, kHighRate, 4.5 * unit, kWindows, rng,
                                opt.seed, true);
    std::vector<std::pair<double, Phase>> ladder;
    double max_qps = high.meetsSlo(slo) ? kHighRate : 0.0;
    if (low.meetsSlo(slo) && high.meetsSlo(slo))
        for (double rate : kLadder) {
            ladder.emplace_back(
                rate, openLoop(*s, rate, 0.5 * unit, 1, rng, opt.seed, false));
            if (!ladder.back().second.meetsSlo(slo))
                break;
            max_qps = rate;
        }
    std::vector<double> sat_qps_w;
    std::vector<Phase> sat;
    for (int w = 0; w < kWindows; ++w) {
        double q = 0.0;
        sat.push_back(saturate(*s, static_cast<int64_t>(5000 * unit) + 1,
                               64, opt.seed + w, &q));
        sat_qps_w.push_back(q);
    }
    const double sat_qps = median(sat_qps_w);
    const double peak = static_cast<double>(s->server->queuePeakDepth());

    // Counted operations: the fixed-rate requests.  Only a wrong logit
    // row fails one.  Whether a request is shed or late depends on how
    // the host schedules the run, so both are reported as figures
    // (serve.late_or_shed) and bounded through the latency metrics.
    for (const Phase *ph : {&low, &high})
        r.attempted += ph->sent;
    r.check(low.publishSeconds >= 0.0 && high.publishSeconds >= 0.0,
            "serve_open: a hot-swap was published under load");

    std::vector<const Served *> all;
    for (const Phase *ph : {&low, &high})
        for (const Served &sv : ph->served)
            all.push_back(&sv);
    for (const auto &[rate, ph] : ladder)
        for (const Served &sv : ph.served)
            all.push_back(&sv);
    for (const Phase &ph : sat)
        for (const Served &sv : ph.served)
            all.push_back(&sv);
    const int64_t bad = replayAll(*s, all);
    r.failed += bad;
    r.check(bad == 0, "serve_open: every served logit row equals its "
                      "offline replay under the answering version");
    s->server->shutdown();

    const double p50_1k = 1e3 * low.p50, p99_1k = 1e3 * low.p99;
    const double p50_4k = 1e3 * high.p50, p99_4k = 1e3 * high.p99;
    r.figure("serve.p50_ms.r1000", p50_1k, "ms", "measured");
    r.figure("serve.p99_ms.r1000", p99_1k, "ms", "measured");
    r.figure("serve.p50_ms.r4000", p50_4k, "ms", "measured");
    r.figure("serve.p99_ms.r4000", p99_4k, "ms", "measured");
    r.figure("serve.max_qps", max_qps, "1/s", "measured");
    r.figure("serve.saturation_qps", sat_qps, "1/s", "measured");
    r.figure("serve.late_or_shed", static_cast<double>(
                                       low.shed + low.missed + high.shed +
                                       high.missed),
             "count", "measured");
    r.figure("loadgen.lag_ms.p99.r1000", 1e3 * quantile(low.lag, 0.99),
             "ms", "measured");
    r.figure("loadgen.lag_ms.p99.r4000", 1e3 * quantile(high.lag, 0.99),
             "ms", "measured");
    r.figure("serve.requests.r1000", static_cast<double>(low.sent), "count",
             "measured");
    r.figure("serve.requests.r4000", static_cast<double>(high.sent),
             "count", "measured");
    for (const auto &[rate, ph] : ladder)
        r.figure("serve.ladder.p99_ms.r" +
                     std::to_string(static_cast<int>(rate)),
                 1e3 * ph.p99, "ms", "measured");

    if (!opt.trace) {
        r.slots["primary_ms"] = p50_1k;
        r.slots["secondary_ms"] = p99_1k;
        r.slots["tertiary_ms"] = p50_4k;
        r.slots["throughput_per_s"] = sat_qps;
        return;
    }

    // ---- traced run: serial replay of the fixed-rate requests with a
    // span around each layer call, after an untraced serial pass ----
    std::vector<const Served *> fixed(all.begin(),
                                      all.begin() + static_cast<long>(
                                          low.served.size() +
                                          high.served.size()));
    Replayer rep(*s);
    double t0 = now();
    for (const Served *sv : fixed)
        rep.matches(sv->resp, nullptr);
    const double untraced = now() - t0;
    Spans sp;
    std::vector<double> service;
    service.reserve(fixed.size());
    t0 = now();
    for (const Served *sv : fixed) {
        const double a = sp.covered();
        rep.matches(sv->resp, &sp);
        service.push_back(sp.covered() - a);
    }
    const double wall = now() - t0;
    const double coverage = 100.0 * sp.covered() / wall;
    r.layers["trace.coverage"] = coverage;
    r.layers["trace.overhead"] = 100.0 * (wall - untraced) / untraced;
    r.layer("trace.coverage", coverage, "% of replay wall");
    r.layer("trace.overhead", r.layers["trace.overhead"], "%");
    r.layers["share.serve.sample"] = 100.0 * sp.seconds("serve.sample") / wall;
    r.layers["share.serve.infer"] = 100.0 * sp.seconds("serve.infer") / wall;
    r.layers["share.core.gather"] = 100.0 * sp.seconds("core.gather") / wall;

    // Wait = latency minus the replayed service time of the request.
    std::vector<double> wait;
    for (size_t i = 0; i < low.served.size(); ++i)
        if (low.served[i].window >= 0)
            wait.push_back(low.latency[i] - service[i]);
    r.layer("serve.wait_ms.r1000", 1e3 * median(wait), "ms (p50)");
    r.layer("serve.service_ms", 1e3 * median(service), "ms (p50)");
    r.layer("serve.sample_us", 1e3 * sp.meanMs("serve.sample"), "us");
    r.layer("core.gather_us", 1e3 * sp.meanMs("core.gather"), "us");
    r.layer("serve.infer_us", 1e3 * sp.meanMs("serve.infer"), "us");
    std::vector<double> submit = low.submit;
    submit.insert(submit.end(), high.submit.begin(), high.submit.end());
    r.layer("serve.submit_us", 1e6 * median(submit), "us (p50)");
    r.layer("serve.publish_ms",
            1e3 * std::max(low.publishSeconds, high.publishSeconds), "ms");
    std::vector<double> lag = low.lag;
    lag.insert(lag.end(), high.lag.begin(), high.lag.end());
    r.layer("loadgen.lag_ms", 1e3 * quantile(lag, 0.99), "ms (p99)");
    const double batch_mean = 0.5 * (low.batchSizeMean + high.batchSizeMean);
    r.layers["serve.batch_size_mean"] = batch_mean;
    r.layers["serve.queue_depth_peak"] = peak;
    r.layer("serve.batch_size_mean.r1000", low.batchSizeMean, "count");
    r.layer("serve.batch_size_mean.r4000", high.batchSizeMean, "count");
    r.layer("serve.queue_depth_peak", peak, "count");
}

} // namespace perfbench
