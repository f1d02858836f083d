/**
 * @file
 * Status and error reporting helpers.
 *
 * Follows the gem5 convention: fatal() is for user error (bad
 * configuration, invalid arguments) and exits cleanly; panic() is for
 * internal invariant violations (a bug in this library) and aborts.
 */

#ifndef BITFUSION_COMMON_LOGGING_H
#define BITFUSION_COMMON_LOGGING_H

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace bitfusion {

namespace detail {

[[noreturn]] void fatalExit(const std::string &msg, const char *file,
                            int line);
[[noreturn]] void panicAbort(const std::string &msg, const char *file,
                             int line);
void warnPrint(const std::string &msg);

/** Concatenate a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

} // namespace bitfusion

/** Terminate due to a user-facing error (bad config, bad arguments). */
#define BF_FATAL(...) \
    ::bitfusion::detail::fatalExit( \
        ::bitfusion::detail::concat(__VA_ARGS__), __FILE__, __LINE__)

/** Terminate due to an internal bug (should never happen). */
#define BF_PANIC(...) \
    ::bitfusion::detail::panicAbort( \
        ::bitfusion::detail::concat(__VA_ARGS__), __FILE__, __LINE__)

/** Check an internal invariant; panic with a message if violated. */
#define BF_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            ::bitfusion::detail::panicAbort( \
                ::bitfusion::detail::concat("assertion failed: ", #cond, \
                                            " ", ##__VA_ARGS__), \
                __FILE__, __LINE__); \
        } \
    } while (0)

/** Non-fatal warning about questionable behaviour. */
#define BF_WARN(...) \
    ::bitfusion::detail::warnPrint(::bitfusion::detail::concat(__VA_ARGS__))

#endif // BITFUSION_COMMON_LOGGING_H
