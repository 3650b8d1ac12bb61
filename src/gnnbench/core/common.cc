#include "gnnbench/core/common.h"

#include <cstdio>

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

} // namespace core
} // namespace gnnbench
