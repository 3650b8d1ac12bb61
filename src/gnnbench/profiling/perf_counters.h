/**
 * @file
 * Hardware performance-counter attribution via perf_event_open(2).
 *
 * The paper's "magnifying glass" is ultimately a microarchitectural
 * one: knowing that sampling took 40% of the wall clock is far weaker
 * evidence than knowing it retired 0.4 IPC at an 80% LLC-miss rate.
 * This layer reads a small fixed group of PMU counters — cycles,
 * instructions, LLC references/misses, branch misses, and stalled
 * backend cycles — around every profiling scope and every kernel
 * dispatch, so phases and kernels carry *measured* hardware cost next
 * to the modeled bytes the device model charges.
 *
 * Design constraints, in order:
 *
 *  1. **Graceful no-op fallback.**  perf_event_open is frequently
 *     denied (unprivileged containers, GitHub CI runners,
 *     kernel.perf_event_paranoid >= 3) or absent (non-Linux).  Every
 *     entry point here degrades to a cheap no-op in that case:
 *     PerfScope costs one relaxed bool load, deltas come back
 *     `valid == false`, and callers emit an explicit "unavailable"
 *     marker instead of zeros masquerading as measurements.
 *  2. **Per-thread counting.**  Counters are opened per thread
 *     (pid=0, cpu=-1) the first time that thread opens a PerfScope,
 *     so prefetch workers and serve workers attribute their own work
 *     without cross-thread contamination.
 *  3. **Multiplexing-aware scaling.**  The six events may exceed the
 *     physical PMU width; the kernel then time-multiplexes the group.
 *     Reads use PERF_FORMAT_TOTAL_TIME_{ENABLED,RUNNING} and scale
 *     values by enabled/running — the standard unbiased estimate —
 *     so deltas stay comparable whether or not the group was
 *     descheduled.
 *
 * GNNBENCH_PERF=off disables collection even where the syscall
 * works (e.g. to A/B the instrumentation overhead); "on" (or unset)
 * means "use it if the kernel allows", and any other value is fatal.
 */

#ifndef GNNBENCH_PROFILING_PERF_COUNTERS_H
#define GNNBENCH_PROFILING_PERF_COUNTERS_H

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gnnbench {
namespace profiling {

/** Index of each event in a PerfDelta / counter-group read. */
enum class PerfEvent : int
{
    Cycles = 0,
    Instructions = 1,
    LlcLoads = 2,     ///< PERF_COUNT_HW_CACHE_REFERENCES
    LlcMisses = 3,    ///< PERF_COUNT_HW_CACHE_MISSES
    BranchMisses = 4,
    StalledCycles = 5 ///< PERF_COUNT_HW_STALLED_CYCLES_BACKEND
};

constexpr int kNumPerfEvents = 6;

/** Metric-suffix name of one event ("cycles", "llc_misses", ...). */
const char *perfEventName(PerfEvent e);

/**
 * Multiplexing-scaled counter deltas over one scope.  `valid` is
 * false when the PMU is unavailable (or disabled); all values are
 * zero then.  Individual events the kernel refused to open (e.g.
 * stalled-cycles on many VMs) read as zero with their bit cleared in
 * `present`.
 */
struct PerfDelta
{
    bool valid = false;
    /** Bitmask of PerfEvent indices that were actually counted. */
    unsigned present = 0;
    std::array<double, kNumPerfEvents> v{};

    double value(PerfEvent e) const { return v[static_cast<int>(e)]; }
    bool
    has(PerfEvent e) const
    {
        return (present >> static_cast<int>(e)) & 1u;
    }

    double cycles() const { return value(PerfEvent::Cycles); }
    double instructions() const { return value(PerfEvent::Instructions); }
    double llcLoads() const { return value(PerfEvent::LlcLoads); }
    double llcMisses() const { return value(PerfEvent::LlcMisses); }
    double branchMisses() const { return value(PerfEvent::BranchMisses); }
    double stalledCycles() const { return value(PerfEvent::StalledCycles); }

    /** Instructions per cycle (0 when cycles weren't counted). */
    double ipc() const;
    /** LLC misses / LLC references (0 when references are 0). */
    double llcMissRate() const;
    /** Stalled backend cycles / cycles (0 when not counted). */
    double stalledFraction() const;

    PerfDelta &operator+=(const PerfDelta &other);
};

/**
 * Whether PMU collection is live in this process: perf_event_open
 * succeeded on a probe counter and GNNBENCH_PERF is not "off".
 * Decided once, at first call; cheap afterwards.
 */
bool perfAvailable();

/**
 * Human-readable availability status for reports: "available",
 * "disabled (GNNBENCH_PERF=off)", or "unavailable (<errno name>)" —
 * the last being what GitHub runners produce (EPERM/EACCES under
 * the default seccomp policy).
 */
const char *perfStatusLabel();

/**
 * Test hook: force the available/unavailable decision, overriding the
 * probe (pass -1 to restore the probed value).  Lets the fallback
 * path be exercised deterministically on machines where the PMU
 * works, and vice versa lets a denied CI runner assert the fallback
 * is what actually ran.
 */
void setPerfForcedStateForTest(int forced);

/**
 * RAII counter read around a region of one thread's execution.
 * Construction snapshots the calling thread's counter group (opening
 * it on the thread's first use); stop()/destruction produces the
 * scaled delta.  Never throws; on an unavailable PMU both ends are
 * no-ops and the delta is invalid.
 */
class PerfScope
{
  public:
    PerfScope();
    ~PerfScope() = default;

    PerfScope(const PerfScope &) = delete;
    PerfScope &operator=(const PerfScope &) = delete;

    /** Delta since construction; callable once per region end (each
     *  call re-reads, so later calls extend the region). */
    PerfDelta stop() const;

  private:
    bool active_ = false;
    std::array<double, kNumPerfEvents> start_{};
    unsigned present_ = 0;
};

/**
 * Accumulate a delta into the process metrics registry as
 * "<prefix>.cycles", "<prefix>.instructions", ...  No-op for invalid
 * deltas, so call sites need no availability check of their own.
 */
void addPerfDelta(const std::string &prefix, const PerfDelta &d);

/**
 * Append the delta as (name, value) counter args for a trace slice
 * ("cycles", "instructions", ..., plus derived "ipc" and
 * "llc_miss_rate").  No-op for invalid deltas.
 */
void appendPerfArgs(const PerfDelta &d,
                    std::vector<std::pair<std::string, double>> *args);

} // namespace profiling
} // namespace gnnbench

#endif // GNNBENCH_PROFILING_PERF_COUNTERS_H
