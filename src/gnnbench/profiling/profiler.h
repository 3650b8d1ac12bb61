/**
 * @file
 * Runtime phase accounting.
 *
 * PhaseTracker gives the paper's coarse 4-phase accounting (data
 * loading, sampling, data movement, model training) used by the
 * runtime-breakdown figures.  It measures *virtual* time through
 * device::Session snapshots so modeled GPU kernels and transfers are
 * accounted consistently, and it is thread-safe: accumulators are
 * mutex-protected, and scopes opened on prefetch worker threads
 * (which must not touch the single-threaded Session) measure
 * per-thread CPU time instead and land in a separate worker-side
 * tally that never double-counts against the main virtual timeline.
 *
 * When the process TraceRecorder is enabled (bench --json), every
 * scope additionally emits a complete event on the calling thread's
 * trace lane plus synthetic events for the modeled GPU kernels and
 * PCIe transfers it charged.
 */

#ifndef GNNBENCH_PROFILING_PROFILER_H
#define GNNBENCH_PROFILING_PROFILER_H

#include <array>
#include <mutex>

#include "gnnbench/core/timer.h"
#include "gnnbench/device/session.h"
#include "gnnbench/power/power.h"
#include "gnnbench/profiling/perf_counters.h"

namespace gnnbench {
namespace profiling {

class TraceRecorder;

/** The four runtime phases of sampling-based GNN training (Fig. 2). */
enum class Phase : int
{
    DataLoading = 0,
    Sampling = 1,
    DataMovement = 2,
    Training = 3,
    Other = 4,
};

constexpr int kNumPhases = 5;

/** Printable phase name. */
const char *phaseName(Phase p);

/** Compute the activity delta between two session snapshots. */
power::ActivitySlice sliceBetween(const device::Session::Snapshot &a,
                                  const device::Session::Snapshot &b);

/** Per-phase activity accounting for one training run. */
class PhaseTracker
{
  public:
    /** @param trace recorder for scope events; defaults to the
     *  process-wide TraceRecorder::global(). */
    explicit PhaseTracker(device::Session &session,
                          TraceRecorder *trace = nullptr);

    /**
     * RAII scope attributing its duration to one phase.  On the main
     * thread the duration is the virtual-time delta between Session
     * snapshots; on a prefetch worker thread (where the Session must
     * not be touched) it is the thread's CPU time, accumulated into
     * the detached worker tally via addWorker().
     */
    class Scope
    {
      public:
        Scope(PhaseTracker &tracker, Phase phase);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        PhaseTracker &tracker_;
        Phase phase_;
        bool onWorker_;
        device::Session::Snapshot start_;
        core::ThreadCpuTimer cpuTimer_;
        PerfScope perfScope_;
        double traceStart_ = 0.0;
        bool traced_ = false;
    };

    /** Open a phase scope. */
    Scope track(Phase p) { return Scope(*this, p); }

    /** Directly add a slice to a phase (used by async pipelines).
     *  Thread-safe. */
    void add(Phase p, const power::ActivitySlice &slice);

    /**
     * Add a *detached* worker-side slice: real work done on a
     * prefetch worker thread concurrently with the main timeline.
     * Kept separate from the main phases — the main timeline already
     * contains the consumer's wait — so total() stays equal to the
     * run's virtual duration.  Thread-safe.
     */
    void addWorker(Phase p, const power::ActivitySlice &slice);

    /** Accumulated activity of one phase. */
    power::ActivitySlice phase(Phase p) const;

    /** Accumulated detached worker-side activity of one phase. */
    power::ActivitySlice workerPhase(Phase p) const;

    /** Accumulated PMU deltas of one phase (main and worker scopes
     *  combined; invalid when the PMU is unavailable). */
    PerfDelta phasePerf(Phase p) const;

    /** Directly accumulate a PMU delta into a phase.  Thread-safe. */
    void addPerf(Phase p, const PerfDelta &d);

    /** Sum over all (main-timeline) phases. */
    power::ActivitySlice total() const;

    device::Session &session() { return session_; }

    TraceRecorder *trace() const { return trace_; }

  private:
    device::Session &session_;
    TraceRecorder *trace_;
    mutable std::mutex mutex_;
    std::array<power::ActivitySlice, kNumPhases> phases_;
    std::array<power::ActivitySlice, kNumPhases> workerPhases_;
    std::array<PerfDelta, kNumPhases> phasePerf_;
};

} // namespace profiling
} // namespace gnnbench

#endif // GNNBENCH_PROFILING_PROFILER_H
