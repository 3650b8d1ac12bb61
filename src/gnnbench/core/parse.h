/**
 * @file
 * Strict parsing for untrusted input: every GNNBENCH_* environment
 * knob and numeric bench flag goes through these helpers.  A numeric
 * value must be one whole decimal number inside the accepted range
 * (no leading space or '+', trailing text or overflow); a word-valued
 * knob must be one of its spellings, compared exactly.  Anything else
 * is a fatal user error naming the knob, the accepted forms and the
 * value given, e.g. "--epochs must be a positive integer, got '2x'"
 * or "GNNBENCH_PERF must be one of on/off, got 'no'".
 */

#ifndef GNNBENCH_CORE_PARSE_H
#define GNNBENCH_CORE_PARSE_H

#include <charconv>
#include <limits>
#include <string>

#include "gnnbench/core/common.h"

namespace gnnbench {
namespace core {

/** One spelling of a word-valued knob and what it means. */
template <typename T>
struct Choice
{
    const char *word;
    T value;
};

namespace detail {

/** Die with "<name> must be a positive integer, got '<value>'" (or
 *  the form @p min implies), noting @p max when it is not empty. */
[[noreturn]] void badInteger(const std::string &name,
                             const std::string &value,
                             const std::string &min,
                             const std::string &max);

/** Die with "<name> must be one of <words>, got '<value>'". */
[[noreturn]] void badChoice(const std::string &name,
                            const std::string &value,
                            const std::string &words);

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

/** The meaning of @p value among @p choices; any other value is fatal,
 *  listing the spellings as "a/b/c". */
template <typename T, size_t N>
T
parseChoice(const std::string &name, const std::string &value,
            const Choice<T> (&choices)[N])
{
    for (const Choice<T> &c : choices)
        if (value == c.word)
            return c.value;
    std::string words;
    for (const Choice<T> &c : choices) {
        if (!words.empty())
            words += '/';
        words += c.word;
    }
    detail::badChoice(name, value, words);
}

/** parseChoice of environment variable @p name; @p fallback when it
 *  is unset or empty. */
template <typename T, size_t N>
T
envChoice(const char *name, T fallback, const Choice<T> (&choices)[N])
{
    const char *value = detail::envValue(name);
    return value ? parseChoice(name, value, choices) : fallback;
}

} // namespace core
} // namespace gnnbench

#endif // GNNBENCH_CORE_PARSE_H
