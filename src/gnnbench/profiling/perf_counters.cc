#include "gnnbench/profiling/perf_counters.h"

#include <atomic>
#include <cstring>

#include "gnnbench/core/parse.h"
#include "gnnbench/profiling/metrics_registry.h"

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define GNNBENCH_HAVE_PERF_EVENT 1
#include <cerrno>
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define GNNBENCH_HAVE_PERF_EVENT 0
#endif

namespace gnnbench {
namespace profiling {

const char *
perfEventName(PerfEvent e)
{
    switch (e) {
    case PerfEvent::Cycles:
        return "cycles";
    case PerfEvent::Instructions:
        return "instructions";
    case PerfEvent::LlcLoads:
        return "llc_loads";
    case PerfEvent::LlcMisses:
        return "llc_misses";
    case PerfEvent::BranchMisses:
        return "branch_misses";
    case PerfEvent::StalledCycles:
        return "stalled_cycles";
    }
    return "?";
}

double
PerfDelta::ipc() const
{
    return cycles() > 0.0 ? instructions() / cycles() : 0.0;
}

double
PerfDelta::llcMissRate() const
{
    return llcLoads() > 0.0 ? llcMisses() / llcLoads() : 0.0;
}

double
PerfDelta::stalledFraction() const
{
    return (has(PerfEvent::StalledCycles) && cycles() > 0.0)
               ? stalledCycles() / cycles()
               : 0.0;
}

PerfDelta &
PerfDelta::operator+=(const PerfDelta &other)
{
    if (!other.valid)
        return *this;
    valid = true;
    present |= other.present;
    for (int i = 0; i < kNumPerfEvents; ++i)
        v[static_cast<size_t>(i)] += other.v[static_cast<size_t>(i)];
    return *this;
}

namespace {

/** -1 = follow the probe; 0 = forced off; 1 = forced on (tests). */
std::atomic<int> g_forcedState{-1};

#if GNNBENCH_HAVE_PERF_EVENT

long
perfEventOpen(struct perf_event_attr *attr, pid_t pid, int cpu,
              int group_fd, unsigned long flags)
{
    return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd,
                   flags);
}

struct perf_event_attr
hwAttr(uint64_t config)
{
    struct perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.type = PERF_TYPE_HARDWARE;
    attr.size = sizeof(attr);
    attr.config = config;
    attr.disabled = 0;
    attr.exclude_kernel = 1; // works at perf_event_paranoid <= 2
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP |
                       PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    return attr;
}

constexpr uint64_t
eventConfig(PerfEvent e)
{
    switch (e) {
    case PerfEvent::Cycles:
        return PERF_COUNT_HW_CPU_CYCLES;
    case PerfEvent::Instructions:
        return PERF_COUNT_HW_INSTRUCTIONS;
    case PerfEvent::LlcLoads:
        return PERF_COUNT_HW_CACHE_REFERENCES;
    case PerfEvent::LlcMisses:
        return PERF_COUNT_HW_CACHE_MISSES;
    case PerfEvent::BranchMisses:
        return PERF_COUNT_HW_BRANCH_MISSES;
    case PerfEvent::StalledCycles:
        return PERF_COUNT_HW_STALLED_CYCLES_BACKEND;
    }
    return 0;
}

/**
 * One thread's counter group: a cycles leader plus whichever sibling
 * events the kernel accepted.  Values are read as a group with
 * enabled/running times; readScaled() returns cumulative counts
 * scaled by enabled/running to undo multiplexing.
 */
class ThreadGroup
{
  public:
    ThreadGroup()
    {
        auto leaderAttr = hwAttr(eventConfig(PerfEvent::Cycles));
        leader_ = static_cast<int>(
            perfEventOpen(&leaderAttr, 0, -1, -1, 0));
        if (leader_ < 0)
            return;
        fds_[0] = leader_;
        present_ = 1u;
        for (int i = 1; i < kNumPerfEvents; ++i) {
            auto attr =
                hwAttr(eventConfig(static_cast<PerfEvent>(i)));
            const int fd = static_cast<int>(
                perfEventOpen(&attr, 0, -1, leader_, 0));
            fds_[static_cast<size_t>(i)] = fd;
            if (fd >= 0)
                present_ |= 1u << i;
        }
    }

    ~ThreadGroup()
    {
        for (int fd : fds_)
            if (fd >= 0)
                close(fd);
    }

    ThreadGroup(const ThreadGroup &) = delete;
    ThreadGroup &operator=(const ThreadGroup &) = delete;

    bool ok() const { return leader_ >= 0; }
    unsigned present() const { return present_; }

    /** Cumulative scaled counts in PerfEvent order; false on a read
     *  failure (the scope then reports invalid). */
    bool
    readScaled(std::array<double, kNumPerfEvents> *out) const
    {
        // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running,
        // then one value per group member in open order.
        uint64_t buf[3 + kNumPerfEvents];
        const ssize_t n = read(leader_, buf, sizeof(buf));
        if (n < static_cast<ssize_t>(3 * sizeof(uint64_t)))
            return false;
        const uint64_t nr = buf[0];
        const uint64_t enabled = buf[1];
        const uint64_t running = buf[2];
        const double scale =
            running > 0 ? static_cast<double>(enabled) /
                              static_cast<double>(running)
                        : 0.0;
        out->fill(0.0);
        // Group members appear in the order they were opened; map
        // them back to their event slots via the present_ mask.
        uint64_t member = 0;
        for (int i = 0; i < kNumPerfEvents; ++i) {
            if (!((present_ >> i) & 1u))
                continue;
            if (member >= nr)
                break;
            (*out)[static_cast<size_t>(i)] =
                static_cast<double>(buf[3 + member]) * scale;
            ++member;
        }
        return true;
    }

  private:
    int leader_ = -1;
    std::array<int, kNumPerfEvents> fds_{-1, -1, -1, -1, -1, -1};
    unsigned present_ = 0;
};

ThreadGroup &
threadGroup()
{
    thread_local ThreadGroup group;
    return group;
}

/** Probe result, decided once: 1 = available, 0 = not, with label. */
struct ProbeResult
{
    bool available = false;
    const char *label = "unavailable";
};

ProbeResult
probe()
{
    ProbeResult r;
    if (!core::envChoice("GNNBENCH_PERF", true,
                         {{"on", true}, {"off", false}})) {
        r.label = "disabled (GNNBENCH_PERF=off)";
        return r;
    }
    auto attr = hwAttr(PERF_COUNT_HW_CPU_CYCLES);
    const int fd =
        static_cast<int>(perfEventOpen(&attr, 0, -1, -1, 0));
    if (fd >= 0) {
        close(fd);
        r.available = true;
        r.label = "available";
        return r;
    }
    switch (errno) {
    case EPERM:
        r.label = "unavailable (EPERM)";
        break;
    case EACCES:
        r.label = "unavailable (EACCES)";
        break;
    case ENOSYS:
        r.label = "unavailable (ENOSYS)";
        break;
    case ENOENT:
        r.label = "unavailable (ENOENT)";
        break;
    default:
        r.label = "unavailable (errno)";
        break;
    }
    return r;
}

#else // !GNNBENCH_HAVE_PERF_EVENT

struct ProbeResult
{
    bool available = false;
    const char *label = "unavailable (no perf_event support)";
};

ProbeResult
probe()
{
    return ProbeResult{};
}

#endif // GNNBENCH_HAVE_PERF_EVENT

const ProbeResult &
probed()
{
    static const ProbeResult r = probe();
    return r;
}

} // namespace

bool
perfAvailable()
{
    const int forced = g_forcedState.load(std::memory_order_relaxed);
    if (forced >= 0)
        return forced != 0;
    return probed().available;
}

const char *
perfStatusLabel()
{
    const int forced = g_forcedState.load(std::memory_order_relaxed);
    if (forced == 0)
        return "disabled (forced for test)";
    if (forced == 1)
        return "available";
    return probed().label;
}

void
setPerfForcedStateForTest(int forced)
{
    g_forcedState.store(forced, std::memory_order_relaxed);
}

PerfScope::PerfScope()
{
    if (!perfAvailable())
        return;
#if GNNBENCH_HAVE_PERF_EVENT
    ThreadGroup &g = threadGroup();
    if (!g.ok())
        return;
    if (!g.readScaled(&start_))
        return;
    present_ = g.present();
    active_ = true;
#endif
}

PerfDelta
PerfScope::stop() const
{
    PerfDelta d;
    if (!active_)
        return d;
#if GNNBENCH_HAVE_PERF_EVENT
    std::array<double, kNumPerfEvents> end{};
    if (!threadGroup().readScaled(&end))
        return d;
    d.valid = true;
    d.present = present_;
    for (int i = 0; i < kNumPerfEvents; ++i) {
        const auto s = static_cast<size_t>(i);
        // Scaled estimates can wobble a hair below the start value
        // when the multiplex ratio shifts mid-scope; clamp at zero
        // so downstream rates stay sane.
        const double delta = end[s] - start_[s];
        d.v[s] = delta > 0.0 ? delta : 0.0;
    }
#endif
    return d;
}

void
addPerfDelta(const std::string &prefix, const PerfDelta &d)
{
    if (!d.valid)
        return;
    auto &reg = MetricsRegistry::global();
    for (int i = 0; i < kNumPerfEvents; ++i) {
        const auto e = static_cast<PerfEvent>(i);
        if (!d.has(e))
            continue;
        reg.counter(prefix + "." + perfEventName(e))
            .add(static_cast<uint64_t>(d.value(e)));
    }
}

void
appendPerfArgs(const PerfDelta &d,
               std::vector<std::pair<std::string, double>> *args)
{
    if (!d.valid || args == nullptr)
        return;
    for (int i = 0; i < kNumPerfEvents; ++i) {
        const auto e = static_cast<PerfEvent>(i);
        if (d.has(e))
            args->emplace_back(perfEventName(e), d.value(e));
    }
    args->emplace_back("ipc", d.ipc());
    args->emplace_back("llc_miss_rate", d.llcMissRate());
}

} // namespace profiling
} // namespace gnnbench
