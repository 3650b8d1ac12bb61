#include "gnnbench/core/common.h"

#include <cmath>
#include <cstdio>

#include "gnnbench/core/parse.h"

namespace gnnbench {
namespace core {

void
fatal(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    // _Exit, not exit: static destructors must not run, because the
    // thread pool's destructor joins workers that may not exist (e.g.
    // in a forked death-test child) and would crash the exit path.
    std::fflush(stdout);
    std::fflush(stderr);
    std::_Exit(1);
}

void
panic(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

namespace detail {

void
badInteger(const std::string &name, const std::string &value,
           const std::string &min, const std::string &max)
{
    const std::string form = min == "1"   ? "a positive integer"
                             : min == "0" ? "a non-negative integer"
                                          : "an integer >= " + min;
    fatal(__FILE__, __LINE__,
          name + " must be " + form + ", got '" + value + "'" +
              (max.empty() ? "" : " (at most " + max + ")"));
}

void
badChoice(const std::string &name, const std::string &value,
          const std::string &words)
{
    fatal(__FILE__, __LINE__,
          name + " must be one of " + words + ", got '" + value + "'");
}

const char *
envValue(const char *name)
{
    const char *value = std::getenv(name);
    return value && *value ? value : nullptr;
}

} // namespace detail

double
parsePositive(const std::string &name, const std::string &value)
{
    double v = 0.0;
    const char *last = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), last, v);
    if (ec != std::errc() || ptr != last || !std::isfinite(v) || v <= 0.0)
        fatal(__FILE__, __LINE__,
              name + " must be a positive number, got '" + value + "'");
    return v;
}

double
envPositive(const char *name, double fallback)
{
    const char *value = detail::envValue(name);
    return value ? parsePositive(name, value) : fallback;
}

} // namespace core
} // namespace gnnbench
