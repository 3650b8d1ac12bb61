#include "gnnbench/profiling/profiler.h"

#include "gnnbench/core/parallel.h"
#include "gnnbench/profiling/trace.h"

namespace gnnbench {
namespace profiling {

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::DataLoading:
        return "data_loading";
      case Phase::Sampling:
        return "sampling";
      case Phase::DataMovement:
        return "data_movement";
      case Phase::Training:
        return "training";
      case Phase::Other:
        return "other";
    }
    return "?";
}

power::ActivitySlice
sliceBetween(const device::Session::Snapshot &a,
             const device::Session::Snapshot &b)
{
    power::ActivitySlice s;
    s.cpuBusySeconds =
        (b.wall - a.wall) - (b.excludedWall - a.excludedWall) +
        (b.modeled.cpuOverheadSeconds - a.modeled.cpuOverheadSeconds);
    s.gpuBusySeconds = b.modeled.gpuSeconds - a.modeled.gpuSeconds;
    s.gpuUtilSeconds =
        b.modeled.gpuUtilSeconds - a.modeled.gpuUtilSeconds;
    s.xferSeconds = b.modeled.xferSeconds - a.modeled.xferSeconds;
    return s;
}

namespace {

/**
 * Mirror the modeled GPU/PCIe activity a scope charged onto the
 * synthetic device lanes.  The events are anchored at the scope's
 * trace start with modeled durations — see the trace schema notes in
 * docs/modeling.md.
 */
void
emitSyntheticDeviceEvents(TraceRecorder &trace, const char *scope_name,
                          double trace_start,
                          const power::ActivitySlice &slice)
{
    if (slice.gpuBusySeconds > 0.0)
        trace.recordSynthetic(TraceRecorder::kGpuLane, scope_name,
                              "gpu", trace_start,
                              slice.gpuBusySeconds);
    if (slice.xferSeconds > 0.0)
        trace.recordSynthetic(TraceRecorder::kPcieLane, scope_name,
                              "pcie", trace_start, slice.xferSeconds);
}

} // namespace

PhaseTracker::PhaseTracker(device::Session &session,
                           TraceRecorder *trace)
    : session_(session),
      trace_(trace != nullptr ? trace : &TraceRecorder::global())
{
}

PhaseTracker::Scope::Scope(PhaseTracker &tracker, Phase phase)
    : tracker_(tracker), phase_(phase),
      onWorker_(core::parallel::inWorkerThread())
{
    // Worker threads must not touch the single-threaded Session; they
    // measure their own CPU time instead (cpuTimer_ is reset by its
    // constructor either way).
    if (!onWorker_)
        start_ = tracker_.session_.snapshot();
    if (tracker_.trace_->enabled()) {
        traced_ = true;
        traceStart_ = tracker_.trace_->now();
    }
}

PhaseTracker::Scope::~Scope()
{
    const PerfDelta perf = perfScope_.stop();
    power::ActivitySlice slice;
    if (onWorker_) {
        slice.cpuBusySeconds = cpuTimer_.elapsed();
        tracker_.addWorker(phase_, slice);
    } else {
        slice = sliceBetween(start_, tracker_.session_.snapshot());
        tracker_.add(phase_, slice);
    }
    tracker_.addPerf(phase_, perf);
    addPerfDelta(std::string("perf.phase.") + phaseName(phase_), perf);
    if (traced_) {
        TraceRecorder &trace = *tracker_.trace_;
        std::vector<std::pair<std::string, double>> args;
        appendPerfArgs(perf, &args);
        trace.record(phaseName(phase_), "phase", traceStart_,
                     trace.now(), std::move(args));
        if (!onWorker_)
            emitSyntheticDeviceEvents(trace, phaseName(phase_),
                                      traceStart_, slice);
    }
}

void
PhaseTracker::add(Phase p, const power::ActivitySlice &slice)
{
    std::lock_guard lock(mutex_);
    phases_[static_cast<int>(p)] += slice;
}

void
PhaseTracker::addWorker(Phase p, const power::ActivitySlice &slice)
{
    std::lock_guard lock(mutex_);
    workerPhases_[static_cast<int>(p)] += slice;
}

power::ActivitySlice
PhaseTracker::phase(Phase p) const
{
    std::lock_guard lock(mutex_);
    return phases_[static_cast<int>(p)];
}

power::ActivitySlice
PhaseTracker::workerPhase(Phase p) const
{
    std::lock_guard lock(mutex_);
    return workerPhases_[static_cast<int>(p)];
}

PerfDelta
PhaseTracker::phasePerf(Phase p) const
{
    std::lock_guard lock(mutex_);
    return phasePerf_[static_cast<int>(p)];
}

void
PhaseTracker::addPerf(Phase p, const PerfDelta &d)
{
    if (!d.valid)
        return;
    std::lock_guard lock(mutex_);
    phasePerf_[static_cast<int>(p)] += d;
}

power::ActivitySlice
PhaseTracker::total() const
{
    std::lock_guard lock(mutex_);
    power::ActivitySlice t;
    for (const auto &s : phases_)
        t += s;
    return t;
}

} // namespace profiling
} // namespace gnnbench
