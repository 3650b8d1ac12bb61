/**
 * @file
 * Common infrastructure for gnnbench: fatal/panic error handling,
 * logging helpers, and small shared type aliases.
 *
 * Following the gem5 convention we distinguish two failure classes:
 *  - GNNBENCH_CHECK: the condition is the *user's* fault (bad
 *    configuration, invalid argument).  Prints "fatal: <message>"
 *    (the condition's text only when no message is given) and exits
 *    with status 1.
 *  - GNNBENCH_ASSERT: the condition is an *internal invariant*; a
 *    violation is a gnnbench bug.  Prints "panic: <condition>:
 *    <message>" and aborts.
 */

#ifndef GNNBENCH_CORE_COMMON_H
#define GNNBENCH_CORE_COMMON_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace gnnbench {

/** Node index type. Graphs up to ~2^31 nodes are supported. */
using NodeId = int32_t;

/** Edge index type. Large graphs can exceed 2^31 edges. */
using EdgeId = int64_t;

namespace core {

/** Terminate due to a user-facing error (bad config / argument). */
[[noreturn]] void fatal(const char *file, int line, const std::string &msg);

/** Terminate due to a violated internal invariant (gnnbench bug). */
[[noreturn]] void panic(const char *file, int line, const std::string &msg);

/** Print a one-line warning to stderr. */
void warn(const std::string &msg);

/** Print a one-line informational message to stderr. */
void inform(const std::string &msg);

namespace detail {

/** Build "cond_str: extra" style messages for GNNBENCH_ASSERT. */
template <typename... Args>
std::string
formatMessage(const char *cond, Args &&...args)
{
    std::ostringstream oss;
    oss << cond;
    if constexpr (sizeof...(Args) > 0) {
        oss << ": ";
        (oss << ... << args);
    }
    return oss.str();
}

/** GNNBENCH_CHECK's message: the user-facing text alone, or the
 *  condition when the check gives none.  Out of line and cold, so a
 *  check costs its caller no more than a call on the failure path. */
template <typename... Args>
[[gnu::cold, gnu::noinline]] std::string
checkMessage(const char *cond, Args &&...args)
{
    if constexpr (sizeof...(Args) == 0) {
        return cond;
    } else {
        std::ostringstream oss;
        (oss << ... << args);
        return oss.str();
    }
}

} // namespace detail
} // namespace core
} // namespace gnnbench

/** Fatal user-error check: condition must hold or the run is aborted. */
#define GNNBENCH_CHECK(cond, ...)                                          \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::gnnbench::core::fatal(                                       \
                __FILE__, __LINE__,                                        \
                ::gnnbench::core::detail::checkMessage(                    \
                    #cond __VA_OPT__(, ) __VA_ARGS__));                    \
        }                                                                  \
    } while (0)

/** Internal invariant check: a failure is a bug in gnnbench itself. */
#define GNNBENCH_ASSERT(cond, ...)                                         \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::gnnbench::core::panic(                                       \
                __FILE__, __LINE__,                                        \
                ::gnnbench::core::detail::formatMessage(                   \
                    #cond __VA_OPT__(, ) __VA_ARGS__));                    \
        }                                                                  \
    } while (0)

#endif // GNNBENCH_CORE_COMMON_H
