/**
 * @file
 * Shared plumbing of the repository benchmark: options, the result
 * record every workload fills, the benchmark's own layer spans, and
 * readers for the counters and kernel spans the library already keeps.
 *
 * Layer spans are recorded here, around the calls the benchmark makes
 * into each layer's public functions; nothing inside src/ is changed
 * to produce them.  Output checks never abort: a failed check is
 * recorded by name, printed, and turned into a non-zero exit code by
 * main(), so no fatal path runs while the thread pool is live.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "gnnbench/core/tensor.h"
#include "gnnbench/profiling/metrics_registry.h"

namespace perfbench {

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs for the self-test: correctness only. */
    bool tiny = false;
};

/** Monotonic wall-clock seconds. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of a sample (0 when empty). */
double median(std::vector<double> v);

/** Linear-interpolated quantile, 0 <= p <= 1 (0 when empty). */
double quantile(std::vector<double> v, double p);

/** One named figure of the human-readable report. */
struct Figure
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** "measured" (host wall time) or "modeled" (device model). */
    std::string kind;
};

/**
 * Everything a workload run produces.  The `slots` are the values of
 * the end-to-end metrics named in BENCHMARK.json (setup_s,
 * primary_ms, secondary_ms, tertiary_ms, throughput_per_s); `figures`
 * are the same numbers, and the rest, under their per-workload names.
 */
struct Result
{
    std::map<std::string, double> slots;
    std::vector<Figure> figures;
    std::map<std::string, double> layers;
    std::vector<Figure> layerFigures;
    std::vector<std::pair<std::string, std::string>> settings;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> failedChecks;

    /** Record a check; a false @p ok marks the run incorrect. */
    bool check(bool ok, const std::string &what);

    void figure(const std::string &name, double value,
                const std::string &unit, const char *kind);

    /** A per-layer figure of the traced run (report only). */
    void layer(const std::string &name, double value,
               const std::string &unit);
};

/**
 * The benchmark's own layer spans: total seconds and call count per
 * layer name.  Spans do not nest; kernel spans (recorded by the
 * library's TraceRecorder) nest inside the forward/backward spans and
 * are read separately.
 */
class Spans
{
  public:
    struct Total
    {
        double seconds = 0.0;
        int64_t calls = 0;
    };

    void
    add(const std::string &name, double seconds)
    {
        Total &t = totals_[name];
        t.seconds += seconds;
        ++t.calls;
    }

    double seconds(const std::string &name) const;
    int64_t calls(const std::string &name) const;
    /** Mean milliseconds per call (0 when never called). */
    double meanMs(const std::string &name) const;
    /** Sum over every layer. */
    double covered() const;
    const std::map<std::string, Total> &totals() const { return totals_; }

  private:
    std::map<std::string, Total> totals_;
};

/** RAII span: adds its lifetime to @p spans under @p name. */
class Span
{
  public:
    Span(Spans &spans, const char *name)
        : spans_(spans), name_(name), start_(now())
    {
    }
    ~Span() { spans_.add(name_, now() - start_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Spans &spans_;
    const char *name_;
    double start_;
};

/** Time @p fn under a span when @p spans is set; returns what @p fn
 *  returns. */
template <typename F>
auto
spanned(Spans *spans, const char *name, F &&fn)
{
    if (!spans)
        return fn();
    Span s(*spans, name);
    return fn();
}

/** Unwrap a loader's next(); an early end is an error, not a crash. */
template <typename T>
T
take(std::optional<T> v)
{
    if (!v)
        throw std::runtime_error("loader exhausted early");
    return std::move(*v);
}

/** Counter values of the process registry, for before/after deltas. */
std::map<std::string, uint64_t> counterSnapshot();

/** after[name] - before[name] (0 when absent). */
uint64_t counterDelta(const std::map<std::string, uint64_t> &before,
                      const std::map<std::string, uint64_t> &after,
                      const std::string &name);

/** Kernel spans the library recorded since the recorder was cleared. */
struct KernelSpans
{
    double busySeconds = 0.0;
    int64_t spans = 0;
};
KernelSpans readKernelSpans();

/** FNV-1a style mixing used for batch checksums. */
inline uint64_t
mix(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h * 0x100000001b3ULL;
}

template <typename T>
uint64_t
mixAll(uint64_t h, const std::vector<T> &v)
{
    h = mix(h, v.size());
    for (const T &x : v)
        h = mix(h, static_cast<uint64_t>(x));
    return h;
}

/** Bit pattern hash of every float of @p t. */
uint64_t tensorHash(uint64_t h, const gnnbench::core::Tensor &t);

/** Bitwise equality of two float tensors (shape and payload). */
bool bitEqual(const gnnbench::core::Tensor &a,
              const gnnbench::core::Tensor &b);

inline bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/// @name Workloads (one translation unit each)
/// @{
void runTrainSage(const Options &opt, Result &r);
void runSampleEpoch(const Options &opt, Result &r);
void runServeOpen(const Options &opt, Result &r);
void runDistSage(const Options &opt, Result &r);
/// @}

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
