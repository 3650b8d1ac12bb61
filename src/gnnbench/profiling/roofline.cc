#include "gnnbench/profiling/roofline.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "gnnbench/core/timer.h"
#include "gnnbench/profiling/json_writer.h"
#include "gnnbench/profiling/metrics_registry.h"
#include "gnnbench/profiling/perf_counters.h"

namespace gnnbench {
namespace profiling {

// Byte formulas mirror the kernel layer's modeled-traffic accounting
// (kernels.*.bytes counters) exactly; see each kernel's noteCall.

OpCost
spmmCost(uint64_t rows, uint64_t nnz, int64_t f, bool weighted,
         bool mean)
{
    OpCost c;
    const double nf = static_cast<double>(nnz) * static_cast<double>(f);
    const double rf =
        static_cast<double>(rows) * static_cast<double>(f);
    c.flops = weighted ? 2.0 * nf : nf;
    if (mean)
        c.flops += rf;
    c.bytes = nf * 4.0 + rf * 4.0;
    return c;
}

OpCost
spmmMaxCost(uint64_t rows, uint64_t nnz, int64_t f)
{
    OpCost c;
    c.flops = static_cast<double>(nnz) * static_cast<double>(f);
    c.bytes = static_cast<double>(nnz) * f * 4.0 +
              static_cast<double>(rows) * f * 4.0;
    return c;
}

OpCost
spmmScatterCost(uint64_t nnz, int64_t f, bool weighted)
{
    OpCost c;
    const double nf = static_cast<double>(nnz) * static_cast<double>(f);
    c.flops = weighted ? 2.0 * nf : nf;
    c.bytes = nf * 8.0;
    return c;
}

OpCost
sddmmAddCost(uint64_t nnz, int64_t f)
{
    OpCost c;
    c.flops = static_cast<double>(nnz) * static_cast<double>(f);
    c.bytes = static_cast<double>(nnz) * f * 12.0;
    return c;
}

OpCost
sddmmDotCost(uint64_t nnz, int64_t f)
{
    OpCost c;
    c.flops =
        2.0 * static_cast<double>(nnz) * static_cast<double>(f);
    c.bytes = static_cast<double>(nnz) * (f * 8.0 + 4.0);
    return c;
}

OpCost
gatherCost(uint64_t n, int64_t f)
{
    OpCost c;
    c.bytes = static_cast<double>(n) * f * 8.0;
    return c;
}

OpCost
scatterCost(uint64_t n, uint64_t /*out_rows*/, int64_t f)
{
    OpCost c;
    c.flops = static_cast<double>(n) * static_cast<double>(f);
    c.bytes = static_cast<double>(n) * f * 8.0;
    return c;
}

OpCost
segmentSumCost(uint64_t rows, uint64_t nnz, int64_t f)
{
    OpCost c;
    c.flops = static_cast<double>(nnz) * static_cast<double>(f);
    c.bytes = static_cast<double>(nnz) * f * 4.0 +
              static_cast<double>(rows) * f * 4.0;
    return c;
}

namespace {

std::mutex g_calibMutex;
RooflineCalibration g_calib; // measured lazily under g_calibMutex

/**
 * STREAM-style triad a[i] = b[i] + s*c[i] over arrays well past any
 * LLC; 24 modeled bytes per element (two reads, one write-allocate
 * pair), best-of-3 after one warm-up pass.
 */
double
measureTriadBandwidth()
{
    constexpr size_t kN = 4u << 20; // 3 x 16 MiB of floats
    std::vector<float> a(kN, 0.0f), b(kN, 1.0f), c(kN, 2.0f);
    const float s = 3.0f;
    double best = 0.0;
    for (int rep = 0; rep < 4; ++rep) {
        core::Timer t;
        float *__restrict ap = a.data();
        const float *__restrict bp = b.data();
        const float *__restrict cp = c.data();
        for (size_t i = 0; i < kN; ++i)
            ap[i] = bp[i] + s * cp[i];
        const double secs = t.elapsed();
        const double bw =
            secs > 0.0 ? 24.0 * static_cast<double>(kN) / secs : 0.0;
        if (rep > 0) // rep 0 is the warm-up
            best = std::max(best, bw);
    }
    // The warm-up write keeps a resident; fold its result into b so
    // the compiler cannot dead-store the measured loops.
    b[0] += a[kN / 2];
    return best;
}

/**
 * Peak FP32 multiply-add throughput: eight independent accumulator
 * chains of x = x * m + d, counted as 2 FLOPs each.  Whatever the
 * compiler turns this into (FMA, AVX2, scalar) IS this build's peak;
 * the probe measures the machine as configured, not a spec sheet.
 */
double
measureFmaPeak()
{
    constexpr int kLanes = 8;
    constexpr int kIters = 4 << 20;
    float x[kLanes];
    for (int l = 0; l < kLanes; ++l)
        x[l] = 1.0f + 1e-7f * static_cast<float>(l);
    const float m = 1.0000001f;
    const float d = 1e-9f;
    double best = 0.0;
    for (int rep = 0; rep < 4; ++rep) {
        core::Timer t;
        for (int i = 0; i < kIters; ++i)
            for (int l = 0; l < kLanes; ++l)
                x[l] = x[l] * m + d;
        const double secs = t.elapsed();
        const double flops =
            secs > 0.0 ? 2.0 * kLanes *
                             static_cast<double>(kIters) / secs
                       : 0.0;
        if (rep > 0)
            best = std::max(best, flops);
    }
    // Consume the accumulators so the chains cannot be elided.
    volatile float sink = 0.0f;
    for (int l = 0; l < kLanes; ++l)
        sink = sink + x[l];
    (void)sink;
    return best;
}

} // namespace

const RooflineCalibration &
rooflineCalibration()
{
    std::lock_guard lock(g_calibMutex);
    if (!g_calib.measured) {
        core::Timer t;
        g_calib.memBandwidthBytesPerSec = measureTriadBandwidth();
        g_calib.peakFlopsPerSec = measureFmaPeak();
        g_calib.calibrationSeconds = t.elapsed();
        g_calib.measured = true;
        auto &reg = MetricsRegistry::global();
        reg.gauge("roofline.peak_flops_per_s")
            .set(g_calib.peakFlopsPerSec);
        reg.gauge("roofline.mem_bandwidth_bytes_per_s")
            .set(g_calib.memBandwidthBytesPerSec);
    }
    return g_calib;
}

void
setCalibrationForTest(const RooflineCalibration &c)
{
    std::lock_guard lock(g_calibMutex);
    g_calib = c;
}

double
attainableFlopsPerSec(const RooflineCalibration &c, double intensity)
{
    if (!c.measured || intensity <= 0.0)
        return c.peakFlopsPerSec;
    return std::min(c.peakFlopsPerSec,
                    c.memBandwidthBytesPerSec * intensity);
}

double
rooflineFraction(const OpCost &cost, double seconds,
                 const RooflineCalibration &c)
{
    if (!c.measured || seconds <= 0.0)
        return 0.0;
    if (cost.flops > 0.0) {
        const double roof =
            attainableFlopsPerSec(c, cost.intensity());
        return roof > 0.0 ? (cost.flops / seconds) / roof : 0.0;
    }
    // Pure-movement ops (gather): achieved bandwidth vs the roof.
    if (cost.bytes > 0.0 && c.memBandwidthBytesPerSec > 0.0)
        return (cost.bytes / seconds) / c.memBandwidthBytesPerSec;
    return 0.0;
}

void
writeRooflineJson(JsonWriter &w, const std::string &key,
                  const MetricsRegistry *metrics)
{
    const RooflineCalibration &c = rooflineCalibration();
    w.beginObject(key);
    w.value("measured", c.measured);
    w.value("peak_flops_per_s", c.peakFlopsPerSec);
    w.value("mem_bandwidth_bytes_per_s", c.memBandwidthBytesPerSec);
    w.value("ridge_intensity", c.ridgeIntensity());
    w.value("calibration_seconds", c.calibrationSeconds);
    w.value("perf_counters", perfStatusLabel());
    if (metrics) {
        // Per-family aggregates: pair each kernels.<family>.flops
        // counter with its .bytes sibling.
        w.beginObject("kernels");
        const auto counters = metrics->counterValues();
        for (const auto &[name, flops] : counters) {
            const std::string suffix = ".flops";
            if (name.size() <= suffix.size() ||
                name.compare(name.size() - suffix.size(),
                             suffix.size(), suffix) != 0)
                continue;
            const std::string family =
                name.substr(0, name.size() - suffix.size());
            uint64_t bytes = 0;
            for (const auto &[n2, v2] : counters)
                if (n2 == family + ".bytes")
                    bytes = v2;
            w.beginObject(family);
            w.value("flops", flops);
            w.value("bytes", bytes);
            OpCost agg;
            agg.flops = static_cast<double>(flops);
            agg.bytes = static_cast<double>(bytes);
            w.value("intensity", agg.intensity());
            w.endObject();
        }
        w.endObject();
    }
    w.endObject();
}

} // namespace profiling
} // namespace gnnbench
