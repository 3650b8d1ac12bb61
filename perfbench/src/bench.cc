#include "bench.h"

#include <cstdio>

#include "gnnbench/profiling/trace.h"

namespace perfbench {

double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

bool
Result::check(bool ok, const std::string &what)
{
    if (!ok) {
        failedChecks.push_back(what);
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     what.c_str());
    }
    return ok;
}

void
Result::figure(const std::string &name, double value,
               const std::string &unit, const char *kind)
{
    figures.push_back({name, value, unit, kind});
}

void
Result::layer(const std::string &name, double value,
              const std::string &unit)
{
    layerFigures.push_back({name, value, unit, "measured"});
}

double
Spans::seconds(const std::string &name) const
{
    auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second.seconds;
}

int64_t
Spans::calls(const std::string &name) const
{
    auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second.calls;
}

double
Spans::meanMs(const std::string &name) const
{
    const int64_t n = calls(name);
    return n > 0 ? 1e3 * seconds(name) / static_cast<double>(n) : 0.0;
}

double
Spans::covered() const
{
    double s = 0.0;
    for (const auto &[name, t] : totals_)
        s += t.seconds;
    return s;
}

std::map<std::string, uint64_t>
counterSnapshot()
{
    std::map<std::string, uint64_t> out;
    for (auto &[name, v] :
         gnnbench::profiling::MetricsRegistry::global().counterValues())
        out[name] = v;
    return out;
}

uint64_t
counterDelta(const std::map<std::string, uint64_t> &before,
             const std::map<std::string, uint64_t> &after,
             const std::string &name)
{
    auto a = after.find(name);
    if (a == after.end())
        return 0;
    auto b = before.find(name);
    return a->second - (b == before.end() ? 0 : b->second);
}

KernelSpans
readKernelSpans()
{
    KernelSpans out;
    for (const auto &lane :
         gnnbench::profiling::TraceRecorder::global().lanesSnapshot())
        for (const auto &ev : lane.events)
            if (std::strcmp(ev.category, "kernel") == 0) {
                out.busySeconds += ev.durationSeconds;
                ++out.spans;
            }
    return out;
}

uint64_t
tensorHash(uint64_t h, const gnnbench::core::Tensor &t)
{
    h = mix(h, static_cast<uint64_t>(t.rows()));
    h = mix(h, static_cast<uint64_t>(t.cols()));
    const float *p = t.data();
    for (int64_t i = 0; i < t.rows() * t.cols(); ++i) {
        uint32_t bits = 0;
        std::memcpy(&bits, p + i, sizeof bits);
        h = mix(h, bits);
    }
    return h;
}

bool
bitEqual(const gnnbench::core::Tensor &a,
         const gnnbench::core::Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.rows() * a.cols()) *
                           sizeof(float)) == 0;
}

} // namespace perfbench
