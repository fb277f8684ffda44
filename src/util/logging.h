#ifndef CPULLM_UTIL_LOGGING_H
#define CPULLM_UTIL_LOGGING_H

/**
 * @file
 * Status/error reporting in the gem5 tradition.
 *
 * - inform(): normal operating message, no connotation of error.
 * - warn():   something is suboptimal or approximated but execution can
 *             continue meaningfully.
 * - fatal():  the simulation cannot continue because of a *user* error
 *             (bad configuration, invalid arguments); exits with code 1,
 *             also in a forked child (e.g. a death test) of a process
 *             whose thread pool has started.
 * - panic():  an internal invariant was violated (a bug in cpullm);
 *             aborts so a debugger/core dump can capture state.
 */

#include <cstdlib>
#include <sstream>
#include <string>

namespace cpullm {

/** Verbosity levels for the global logger. */
enum class LogLevel { Silent = 0, Warn = 1, Info = 2, Debug = 3 };

/** Set the global verbosity (default: Info). */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

/**
 * Parse a user-facing level name ("silent", "warn", "info", "debug",
 * case-sensitive); false when @p s is not one of them.
 */
bool logLevelFromString(const std::string& s, LogLevel* out);

/** Inverse of logLevelFromString. */
const char* logLevelName(LogLevel level);

/**
 * Crash hook: invoked exactly once from CPULLM_FATAL / CPULLM_PANIC
 * (after the message is printed, before exit/abort) so the flight
 * recorder can dump its ring for post-mortem triage. The hook must be
 * reentrancy-safe: a hook that itself crashes must not recurse.
 * Returns the previously installed hook (nullptr initially).
 */
using CrashHook = void (*)(const char* what);
CrashHook setCrashHook(CrashHook hook) noexcept;

namespace detail {

/** Emit one formatted log line to stderr if @p level is enabled. */
void logLine(LogLevel level, const std::string& tag, const std::string& msg);

[[noreturn]] void fatalImpl(const char* file, int line,
                            const std::string& msg);
[[noreturn]] void panicImpl(const char* file, int line,
                            const std::string& msg);

/** Stream-compose arbitrary arguments into a string. */
template <typename... Args>
std::string
composeMessage(Args&&... args)
{
    std::ostringstream os;
    ((os << std::forward<Args>(args)), ...);
    return os.str();
}

} // namespace detail

/** Informative message for the user (level Info). */
template <typename... Args>
void
inform(Args&&... args)
{
    detail::logLine(LogLevel::Info, "info",
                    detail::composeMessage(std::forward<Args>(args)...));
}

/** Debug-level message. */
template <typename... Args>
void
debugLog(Args&&... args)
{
    detail::logLine(LogLevel::Debug, "debug",
                    detail::composeMessage(std::forward<Args>(args)...));
}

/** Warning: functionality is approximate or degraded but usable. */
template <typename... Args>
void
warn(Args&&... args)
{
    detail::logLine(LogLevel::Warn, "warn",
                    detail::composeMessage(std::forward<Args>(args)...));
}

/**
 * Terminate due to a user error (bad config/arguments).
 * Calls std::exit(1), which exits 1 in a forked child too: the thread
 * pool is never destroyed at exit (see util/thread_pool.h).
 */
#define CPULLM_FATAL(...)                                                    \
    ::cpullm::detail::fatalImpl(                                             \
        __FILE__, __LINE__,                                                  \
        ::cpullm::detail::composeMessage(__VA_ARGS__))

/**
 * Terminate due to an internal bug (invariant violation).
 * Calls std::abort().
 */
#define CPULLM_PANIC(...)                                                    \
    ::cpullm::detail::panicImpl(                                             \
        __FILE__, __LINE__,                                                  \
        ::cpullm::detail::composeMessage(__VA_ARGS__))

/** Panic unless @p cond holds. */
#define CPULLM_ASSERT(cond, ...)                                             \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::cpullm::detail::panicImpl(                                     \
                __FILE__, __LINE__,                                          \
                ::cpullm::detail::composeMessage(                            \
                    "assertion failed: " #cond " ", ##__VA_ARGS__));         \
        }                                                                    \
    } while (0)

} // namespace cpullm

#endif // CPULLM_UTIL_LOGGING_H
