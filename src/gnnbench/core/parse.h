/**
 * @file
 * Strict numeric parsing for untrusted input: every numeric GNNBENCH_*
 * environment knob and bench flag goes through these helpers.  The
 * whole value must be one decimal number inside the accepted range;
 * anything else (empty, leading space or '+', trailing text,
 * overflow, out of range) is a fatal user error naming the knob, the
 * accepted form and the value given, e.g. "--epochs must be a
 * positive integer, got '2x'".
 */

#ifndef GNNBENCH_CORE_PARSE_H
#define GNNBENCH_CORE_PARSE_H

#include <charconv>
#include <limits>
#include <string>

#include "gnnbench/core/common.h"

namespace gnnbench {
namespace core {

namespace detail {

/** Die with "<name> must be a positive integer, got '<value>'" (or
 *  the form @p min implies), noting @p max when it is not empty. */
[[noreturn]] void badInteger(const std::string &name,
                             const std::string &value,
                             const std::string &min,
                             const std::string &max);

/** The environment variable's value when set and non-empty, else
 *  nullptr. */
const char *envValue(const char *name);

} // namespace detail

/** Parse @p value as an integer of type T in [@p min, @p max]. */
template <typename T>
T
parseInt(const std::string &name, const std::string &value, T min = 1,
         T max = std::numeric_limits<T>::max())
{
    T v{};
    const char *last = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), last, v);
    if (ec != std::errc() || ptr != last || v < min || v > max)
        detail::badInteger(name, value, std::to_string(min),
                           max == std::numeric_limits<T>::max()
                               ? std::string()
                               : std::to_string(max));
    return v;
}

/** Parse @p value as a finite number greater than zero. */
double parsePositive(const std::string &name, const std::string &value);

/** parseInt of environment variable @p name; @p fallback when it is
 *  unset or empty. */
template <typename T>
T
envInt(const char *name, T fallback, T min = 1,
       T max = std::numeric_limits<T>::max())
{
    const char *value = detail::envValue(name);
    return value ? parseInt<T>(name, value, min, max) : fallback;
}

/** parsePositive of environment variable @p name; @p fallback when it
 *  is unset or empty. */
double envPositive(const char *name, double fallback);

} // namespace core
} // namespace gnnbench

#endif // GNNBENCH_CORE_PARSE_H
