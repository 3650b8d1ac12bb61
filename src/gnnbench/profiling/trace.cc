#include "gnnbench/profiling/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "gnnbench/core/common.h"
#include "gnnbench/device/hierarchy.h"
#include "gnnbench/profiling/metrics_registry.h"
#include "gnnbench/profiling/perf_counters.h"
#include "gnnbench/profiling/roofline.h"

namespace gnnbench {
namespace profiling {

namespace {

/** Monotonic wall seconds (arbitrary origin). */
double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint64_t
nextRecorderId()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

TraceRecorder::TraceRecorder(std::function<double()> clock)
    : id_(nextRecorderId()), clock_(std::move(clock))
{
}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder &
TraceRecorder::global()
{
    static TraceRecorder recorder;
    return recorder;
}

void
TraceRecorder::enable()
{
    epoch_ = clock_ ? 0.0 : wallSeconds();
    enabled_.store(true, std::memory_order_relaxed);
    setThreadLaneName("main");
}

void
TraceRecorder::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

double
TraceRecorder::now() const
{
    return clock_ ? clock_() : wallSeconds() - epoch_;
}

TraceRecorder::Lane &
TraceRecorder::threadLane()
{
    // One cache entry per (thread, recorder).  Recorder ids are never
    // reused, so a stale entry from a destroyed recorder can never be
    // matched; clear() keeps thread-lane objects alive for the same
    // reason.
    thread_local std::vector<std::pair<uint64_t, Lane *>> cache;
    for (const auto &[id, lane] : cache)
        if (id == id_)
            return *lane;
    std::lock_guard lock(mutex_);
    lanes_.push_back(std::make_unique<Lane>());
    Lane &lane = *lanes_.back();
    lane.tid = nextTid_++;
    lane.name = "thread " + std::to_string(lane.tid);
    cache.emplace_back(id_, &lane);
    return lane;
}

TraceRecorder::Lane &
TraceRecorder::syntheticLane(const std::string &name)
{
    std::lock_guard lock(mutex_);
    for (auto &lane : lanes_)
        if (lane->synthetic && lane->name == name)
            return *lane;
    lanes_.push_back(std::make_unique<Lane>());
    Lane &lane = *lanes_.back();
    lane.tid = nextSyntheticTid_++;
    lane.name = name;
    lane.synthetic = true;
    return lane;
}

void
TraceRecorder::setThreadLaneName(const std::string &name)
{
    if (!enabled())
        return;
    Lane &lane = threadLane();
    std::lock_guard lock(lane.mutex);
    lane.name = name;
}

void
TraceRecorder::record(std::string name, const char *category,
                      double start_seconds, double end_seconds)
{
    record(std::move(name), category, start_seconds, end_seconds, {});
}

void
TraceRecorder::record(std::string name, const char *category,
                      double start_seconds, double end_seconds,
                      std::vector<std::pair<std::string, double>> args)
{
    if (!enabled())
        return;
    Lane &lane = threadLane();
    std::lock_guard lock(lane.mutex);
    lane.events.push_back(
        TraceEvent{std::move(name), category, start_seconds,
                   std::max(0.0, end_seconds - start_seconds),
                   std::move(args)});
}

void
TraceRecorder::recordSynthetic(const std::string &lane_name,
                               std::string name, const char *category,
                               double start_seconds,
                               double duration_seconds)
{
    if (!enabled())
        return;
    Lane &lane = syntheticLane(lane_name);
    std::lock_guard lock(lane.mutex);
    lane.events.push_back(TraceEvent{std::move(name), category,
                                     start_seconds,
                                     std::max(0.0, duration_seconds),
                                     {}});
}

std::vector<TraceRecorder::LaneView>
TraceRecorder::lanesSnapshot() const
{
    std::lock_guard lock(mutex_);
    std::vector<LaneView> out;
    out.reserve(lanes_.size());
    for (const auto &lane : lanes_) {
        LaneView view;
        {
            std::lock_guard elock(lane->mutex);
            view.name = lane->name;
            view.tid = lane->tid;
            view.synthetic = lane->synthetic;
            view.events = lane->events;
        }
        std::stable_sort(view.events.begin(), view.events.end(),
                         [](const TraceEvent &a, const TraceEvent &b) {
                             return a.startSeconds < b.startSeconds;
                         });
        out.push_back(std::move(view));
    }
    return out;
}

size_t
TraceRecorder::eventCount() const
{
    std::lock_guard lock(mutex_);
    size_t n = 0;
    for (const auto &lane : lanes_) {
        std::lock_guard elock(lane->mutex);
        n += lane->events.size();
    }
    return n;
}

void
TraceRecorder::clear()
{
    std::lock_guard lock(mutex_);
    // Thread lanes stay alive (thread-local caches hold pointers);
    // synthetic lanes are looked up by name every time, so they can
    // be dropped entirely.
    lanes_.erase(std::remove_if(lanes_.begin(), lanes_.end(),
                                [](const std::unique_ptr<Lane> &l) {
                                    return l->synthetic;
                                }),
                 lanes_.end());
    for (auto &lane : lanes_) {
        std::lock_guard elock(lane->mutex);
        lane->events.clear();
    }
}

void
TraceRecorder::writeTraceEvents(JsonWriter &w,
                                const std::string &key) const
{
    const auto lanes = lanesSnapshot();
    w.beginArray(key);
    int sort_index = 0;
    for (const auto &lane : lanes) {
        w.beginObject();
        w.value("ph", "M");
        w.value("pid", 1);
        w.value("tid", lane.tid);
        w.value("name", "thread_name");
        w.beginObject("args");
        w.value("name", lane.name);
        w.endObject();
        w.endObject();
        w.beginObject();
        w.value("ph", "M");
        w.value("pid", 1);
        w.value("tid", lane.tid);
        w.value("name", "thread_sort_index");
        w.beginObject("args");
        w.value("sort_index", lane.synthetic ? 1000 + sort_index
                                             : sort_index);
        w.endObject();
        w.endObject();
        ++sort_index;
    }
    for (const auto &lane : lanes) {
        for (const auto &e : lane.events) {
            w.beginObject();
            w.value("ph", "X");
            w.value("pid", 1);
            w.value("tid", lane.tid);
            w.value("name", e.name);
            w.value("cat", e.category);
            w.value("ts", e.startSeconds * 1e6);
            w.value("dur", e.durationSeconds * 1e6);
            if (!e.args.empty()) {
                w.beginObject("args");
                for (const auto &[k, v] : e.args)
                    w.value(k, v);
                w.endObject();
            }
            w.endObject();
        }
    }
    w.endArray();
}

void
TraceRecorder::writeChromeTrace(std::ostream &out) const
{
    JsonWriter w(out);
    w.beginObject();
    w.value("displayTimeUnit", "ms");
    writeTraceEvents(w, "traceEvents");
    w.endObject();
}

namespace {

void
writeSlice(JsonWriter &w, const std::string &key,
           const power::ActivitySlice &s)
{
    w.beginObject(key);
    w.value("seconds", s.seconds());
    w.value("cpu_busy_seconds", s.cpuBusySeconds);
    w.value("gpu_busy_seconds", s.gpuBusySeconds);
    w.value("gpu_util_seconds", s.gpuUtilSeconds);
    w.value("xfer_seconds", s.xferSeconds);
    w.endObject();
}

} // namespace

void
writeRunReport(const std::string &path, const RunReportContext &ctx)
{
    flushRngDraws();
    std::ofstream out(path);
    GNNBENCH_CHECK(out.good(), "cannot open ", path, " for writing");
    JsonWriter w(out);
    w.beginObject();
    w.value("displayTimeUnit", "ms");
    if (ctx.trace) {
        ctx.trace->writeTraceEvents(w, "traceEvents");
    } else {
        w.beginArray("traceEvents");
        w.endArray();
    }
    if (ctx.resultsEmitter)
        ctx.resultsEmitter(w);
    w.beginObject("gnnbench");
    w.value("bench", ctx.benchName);
    w.beginObject("options");
    for (const auto &[k, v] : ctx.options)
        w.value(k, v);
    w.endObject();
    w.beginArray("runs");
    for (const RunRecord &r : ctx.runs) {
        w.beginObject();
        w.value("dataset", r.dataset);
        w.value("config", r.config);
        double total = 0.0;
        w.beginObject("phases");
        for (int p = 0; p < kNumPhases; ++p) {
            writeSlice(w, phaseName(static_cast<Phase>(p)),
                       r.phases[p]);
            total += r.phases[p].seconds();
        }
        w.endObject();
        w.value("total_seconds", total);
        double worker_total = 0.0;
        for (int p = 0; p < kNumPhases; ++p)
            worker_total += r.workerPhases[p].seconds();
        if (worker_total > 0.0) {
            w.beginObject("worker_phases");
            for (int p = 0; p < kNumPhases; ++p)
                if (r.workerPhases[p].seconds() > 0.0)
                    writeSlice(w, phaseName(static_cast<Phase>(p)),
                               r.workerPhases[p]);
            w.endObject();
        }
        w.beginObject("energy");
        w.value("seconds", r.energy.seconds);
        w.value("cpu_joules", r.energy.cpuJoules);
        w.value("gpu_joules", r.energy.gpuJoules);
        w.value("joules", r.energy.joules());
        w.value("avg_watts", r.energy.avgWatts());
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.beginObject("tables");
    for (const auto &[name, table] : ctx.tables) {
        w.beginObject(name);
        w.beginArray("headers");
        for (const auto &h : table->headers())
            w.value(h);
        w.endArray();
        w.beginArray("rows");
        for (const auto &row : table->rows()) {
            w.beginArray();
            for (const auto &cell : row)
                w.value(cell);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
    if (ctx.metrics)
        ctx.metrics->writeJson(w, "metrics");
    writeRooflineJson(w, "roofline", ctx.metrics);
    device::writeDeviceJson(w, "device");
    // "available" or the explicit "unavailable (...)" fallback — the
    // report always says which one the PMU numbers (don't) come from.
    w.value("perf", perfStatusLabel());
    w.endObject();
    w.endObject();
    out << '\n';
    out.close();
    GNNBENCH_CHECK(out.good(), "failed writing run report to ", path);
}

} // namespace profiling
} // namespace gnnbench
