/**
 * @file
 * Structured tracing: a low-overhead, per-thread event recorder that
 * exports Chrome trace-event / Perfetto-compatible JSON, plus the
 * unified run-report emitter every bench binary uses for --json.
 *
 * Lanes.  Each recording thread owns one lane (its event buffer);
 * the main thread's lane is named "main" and prefetch workers name
 * theirs "<tag>/w<k>".  Two synthetic lanes — "gpu (modeled)" and
 * "pcie (modeled)" — carry the modeled GPU kernels and PCIe
 * transfers reconstructed from device::Session snapshot deltas by
 * the PhaseTracker scopes, so the modeled device shows up in
 * Perfetto next to the real threads.
 *
 * Time.  Real-thread lanes are stamped with wall time since
 * enable() — wall time is what exhibits worker parallelism in a
 * trace viewer.  Synthetic device events are placed at the wall-time
 * start of the scope that charged them, with *modeled* durations;
 * docs/modeling.md ("Observability") spells out these semantics.
 * The clock is injectable, so tests replay a fixed virtual clock and
 * assert byte-identical output.
 *
 * Overhead.  A disabled recorder costs one relaxed atomic load per
 * would-be event.  When enabled, a thread finds its lane through a
 * thread-local cache (no lock after the first event) and appends
 * under the lane's own mutex, which only the exporter ever contends.
 */

#ifndef GNNBENCH_PROFILING_TRACE_H
#define GNNBENCH_PROFILING_TRACE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "gnnbench/power/energy_meter.h"
#include "gnnbench/profiling/json_writer.h"
#include "gnnbench/profiling/profiler.h"
#include "gnnbench/profiling/report.h"

namespace gnnbench {
namespace profiling {

class MetricsRegistry;

/** One complete ("X") event on a lane, times in seconds. */
struct TraceEvent
{
    std::string name;
    const char *category = "";
    double startSeconds = 0.0;
    double durationSeconds = 0.0;
    /** Optional numeric counter args rendered as the event's "args"
     *  object (PMU deltas, roofline numbers); empty for plain
     *  slices. */
    std::vector<std::pair<std::string, double>> args;
};

/**
 * The event recorder.  One global() instance serves the benchmarks
 * (enabled by --json); tests construct their own with a manual
 * clock.  writeChromeTrace()/lanesSnapshot() may run concurrently
 * with recording, but a stable export requires recording threads to
 * have quiesced (the benches export after training completes).
 */
class TraceRecorder
{
  public:
    /** @param clock seconds-since-epoch source; defaults to a
     *  monotonic wall clock starting at enable(). */
    explicit TraceRecorder(std::function<double()> clock = {});
    ~TraceRecorder();

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** The process-wide recorder used by the instrumentation. */
    static TraceRecorder &global();

    /** Start recording; zeroes the default clock and names the
     *  calling thread's lane "main". */
    void enable();
    void disable();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Current trace time in seconds. */
    double now() const;

    /** Name the calling thread's lane (e.g. "dgl-neighbor/w0"). */
    void setThreadLaneName(const std::string &name);

    /** Record a complete event on the calling thread's lane;
     *  no-op while disabled. */
    void record(std::string name, const char *category,
                double start_seconds, double end_seconds);

    /** As above, with numeric counter args attached to the slice. */
    void record(std::string name, const char *category,
                double start_seconds, double end_seconds,
                std::vector<std::pair<std::string, double>> args);

    /** Record onto a named synthetic lane (modeled GPU / PCIe). */
    void recordSynthetic(const std::string &lane, std::string name,
                         const char *category, double start_seconds,
                         double duration_seconds);

    /** Lane names of the synthetic device lanes. */
    static constexpr const char *kGpuLane = "gpu (modeled)";
    static constexpr const char *kPcieLane = "pcie (modeled)";

    /** A lane's name and events, sorted by start time (for tests). */
    struct LaneView
    {
        std::string name;
        int tid = 0;
        bool synthetic = false;
        std::vector<TraceEvent> events;
    };

    /** Copy of all lanes in creation order (thread lanes first). */
    std::vector<LaneView> lanesSnapshot() const;

    /** Total events across all lanes. */
    size_t eventCount() const;

    /** Drop all recorded events and lanes (keeps enabled state). */
    void clear();

    /**
     * Emit the "traceEvents" array (metadata + sorted complete
     * events) as the value of @p key in the enclosing JSON object.
     * Timestamps are microseconds, the Chrome trace unit.
     */
    void writeTraceEvents(JsonWriter &w, const std::string &key) const;

    /** Write a standalone Chrome-trace JSON document. */
    void writeChromeTrace(std::ostream &out) const;

  private:
    struct Lane
    {
        std::string name;
        int tid = 0;
        bool synthetic = false;
        mutable std::mutex mutex;
        std::vector<TraceEvent> events;
    };

    Lane &threadLane();
    Lane &syntheticLane(const std::string &name);

    const uint64_t id_; ///< process-unique, for the thread-local cache
    std::function<double()> clock_;
    std::atomic<bool> enabled_{false};
    double epoch_ = 0.0; ///< default-clock origin set by enable()

    mutable std::mutex mutex_; ///< guards the lane list
    std::vector<std::unique_ptr<Lane>> lanes_;
    int nextTid_ = 1;
    int nextSyntheticTid_ = 1000;
};

/**
 * RAII complete-event scope on the calling thread's lane.  The event
 * is named @p name, or "<name> <id>" when an @p id is given (e.g.
 * "batch 12"); the string is built only while the recorder is on, so
 * a scope costs no allocation when tracing is off.  @p name and
 * @p category must outlive the scope (string literals do).
 */
class TraceScope
{
  public:
    TraceScope(TraceRecorder &recorder, const char *name,
               const char *category, std::optional<int64_t> id = {})
        : recorder_(recorder.enabled() ? &recorder : nullptr),
          name_(name), category_(category), id_(id)
    {
        if (recorder_)
            start_ = recorder_->now();
    }

    ~TraceScope()
    {
        if (!recorder_)
            return;
        const double end = recorder_->now();
        recorder_->record(id_ ? std::string(name_) + " " +
                                    std::to_string(*id_)
                              : std::string(name_),
                          category_, start_, end);
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    TraceRecorder *recorder_;
    const char *name_;
    const char *category_;
    std::optional<int64_t> id_;
    double start_ = 0.0;
};

/** One model run (dataset x config) in the unified run report. */
struct RunRecord
{
    std::string dataset;
    std::string config;
    std::array<power::ActivitySlice, kNumPhases> phases{};
    /** Detached worker-side sampling busy time (not part of the
     *  virtual-time total; see PhaseTracker::addWorker). */
    std::array<power::ActivitySlice, kNumPhases> workerPhases{};
    power::EnergyReport energy;
};

/** Everything the run-report emitter folds into one JSON document. */
struct RunReportContext
{
    std::string benchName;
    /** Flat key -> value strings of the bench configuration. */
    std::vector<std::pair<std::string, std::string>> options;
    /** Per-run phase/energy records (model benches). */
    std::vector<RunRecord> runs;
    /** Printed tables, exported as structured rows. */
    std::vector<std::pair<std::string, const Table *>> tables;
    const TraceRecorder *trace = nullptr;
    const MetricsRegistry *metrics = nullptr;
    /**
     * Optional perf-gate rows.  When set, invoked with the writer
     * positioned inside the root object; the emitter must write one
     * complete `"results"` array (beginArray("results") ...
     * endArray()).  scripts/check_bench_regression.py reads this
     * top-level key, so a bench with gate rows emits ONE document
     * that is simultaneously a Chrome trace, a unified run report,
     * and a regression-gate record.
     */
    std::function<void(JsonWriter &)> resultsEmitter;
};

/**
 * Write the unified run report to @p path: a Chrome-trace-compatible
 * JSON document ("traceEvents" at top level, loadable in Perfetto /
 * chrome://tracing) whose "gnnbench" key carries the config, phase
 * slices, tables, and metrics snapshot.  Flushes the
 * main thread's RNG-draw tally first.  Fatal on I/O failure.
 */
void writeRunReport(const std::string &path,
                    const RunReportContext &ctx);

} // namespace profiling
} // namespace gnnbench

#endif // GNNBENCH_PROFILING_TRACE_H
