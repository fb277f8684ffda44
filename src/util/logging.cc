#include "util/logging.h"

#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>

namespace cpullm {

namespace {

std::atomic<LogLevel> global_level{LogLevel::Info};
std::mutex log_mutex;

std::atomic<CrashHook> g_crash_hook{nullptr};
std::atomic<bool> g_in_crash_hook{false};

void
runCrashHook(const char* what)
{
    CrashHook hook = g_crash_hook.load(std::memory_order_acquire);
    if (hook != nullptr && !g_in_crash_hook.exchange(true)) {
        hook(what);
    }
}

} // namespace

void
setLogLevel(LogLevel level)
{
    global_level.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return global_level.load(std::memory_order_relaxed);
}

bool
logLevelFromString(const std::string& s, LogLevel* out)
{
    if (s == "silent") {
        *out = LogLevel::Silent;
    } else if (s == "warn") {
        *out = LogLevel::Warn;
    } else if (s == "info") {
        *out = LogLevel::Info;
    } else if (s == "debug") {
        *out = LogLevel::Debug;
    } else {
        return false;
    }
    return true;
}

const char*
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Silent: return "silent";
      case LogLevel::Warn: return "warn";
      case LogLevel::Info: return "info";
      case LogLevel::Debug: return "debug";
    }
    return "info";
}

CrashHook
setCrashHook(CrashHook hook) noexcept
{
    return g_crash_hook.exchange(hook, std::memory_order_acq_rel);
}

namespace detail {

void
logLine(LogLevel level, const std::string& tag, const std::string& msg)
{
    if (static_cast<int>(level) >
        static_cast<int>(global_level.load(std::memory_order_relaxed))) {
        return;
    }
    std::lock_guard<std::mutex> lock(log_mutex);
    std::fprintf(stderr, "[cpullm:%s] %s\n", tag.c_str(), msg.c_str());
}

void
fatalImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "[cpullm:fatal] %s (%s:%d)\n", msg.c_str(), file,
                 line);
    runCrashHook("fatal");
    std::exit(1);
}

void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "[cpullm:panic] %s (%s:%d)\n", msg.c_str(), file,
                 line);
    runCrashHook("panic");
    std::abort();
}

} // namespace detail

} // namespace cpullm
