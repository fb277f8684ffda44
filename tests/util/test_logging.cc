#include "util/logging.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>

#include "util/thread_pool.h"

namespace cpullm {
namespace {

TEST(LogLevel, DefaultIsInfo)
{
    EXPECT_EQ(static_cast<int>(logLevel()),
              static_cast<int>(LogLevel::Info));
}

TEST(LogLevel, SetAndGet)
{
    const LogLevel prev = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(static_cast<int>(logLevel()),
              static_cast<int>(LogLevel::Silent));
    setLogLevel(prev);
}

TEST(ComposeMessage, StreamsArbitraryArgs)
{
    EXPECT_EQ(detail::composeMessage("a=", 1, " b=", 2.5), "a=1 b=2.5");
    EXPECT_EQ(detail::composeMessage(), "");
}

TEST(Assert, PassingConditionIsQuiet)
{
    // Must not abort.
    CPULLM_ASSERT(1 + 1 == 2, "math works");
    SUCCEED();
}

TEST(AssertDeath, FailingConditionAborts)
{
    EXPECT_DEATH({ CPULLM_ASSERT(false, "expected failure"); },
                 "assertion failed");
}

TEST(PanicDeath, PanicAborts)
{
    EXPECT_DEATH({ CPULLM_PANIC("internal bug"); }, "internal bug");
}

TEST(FatalDeath, FatalExitsWithCode1)
{
    EXPECT_EXIT({ CPULLM_FATAL("user error"); },
                testing::ExitedWithCode(1), "user error");
}

TEST(FatalDeath, FatalExitsWithCode1AfterPoolStarted)
{
    // A pooled loop first, so the workers exist when the death test
    // forks; the child has none of them and exit(1) must not try to
    // join them.
    std::atomic<std::size_t> sum{0};
    ThreadPool::instance().parallelFor(0, 4096, [&](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), std::size_t{4096} * 4095 / 2);
    EXPECT_EXIT({ CPULLM_FATAL("user error after pool start"); },
                testing::ExitedWithCode(1), "user error after pool start");
}

TEST(LogLevel, FromStringAcceptsTheFourNames)
{
    LogLevel l = LogLevel::Info;
    ASSERT_TRUE(logLevelFromString("silent", &l));
    EXPECT_EQ(l, LogLevel::Silent);
    ASSERT_TRUE(logLevelFromString("warn", &l));
    EXPECT_EQ(l, LogLevel::Warn);
    ASSERT_TRUE(logLevelFromString("info", &l));
    EXPECT_EQ(l, LogLevel::Info);
    ASSERT_TRUE(logLevelFromString("debug", &l));
    EXPECT_EQ(l, LogLevel::Debug);
    EXPECT_FALSE(logLevelFromString("verbose", &l));
    EXPECT_FALSE(logLevelFromString("DEBUG", &l)); // case-sensitive
    EXPECT_FALSE(logLevelFromString("", &l));
}

TEST(LogLevel, NameRoundTrip)
{
    for (LogLevel l : {LogLevel::Silent, LogLevel::Warn,
                       LogLevel::Info, LogLevel::Debug}) {
        LogLevel back = LogLevel::Info;
        ASSERT_TRUE(logLevelFromString(logLevelName(l), &back));
        EXPECT_EQ(back, l);
    }
}

namespace {
int g_hook_calls = 0;
std::string g_hook_what;
void
recordingHook(const char* what)
{
    ++g_hook_calls;
    g_hook_what = what;
}
} // namespace

TEST(CrashHook, InstallReturnsPreviousHook)
{
    CrashHook prev = setCrashHook(recordingHook);
    EXPECT_EQ(setCrashHook(prev), recordingHook);
}

TEST(CrashHookDeath, FatalAndPanicRunTheHook)
{
    // The hook's output proves it ran inside the dying process; the
    // exit path must still be exit(1) for fatal and SIGABRT for
    // panic.
    CrashHook hook = [](const char* what) {
        std::fprintf(stderr, "[hook ran: %s]\n", what);
    };
    EXPECT_EXIT(
        {
            setCrashHook(hook);
            CPULLM_FATAL("bad config");
        },
        testing::ExitedWithCode(1), "hook ran: fatal");
    EXPECT_DEATH(
        {
            setCrashHook(hook);
            CPULLM_PANIC("bad invariant");
        },
        "hook ran: panic");
}

} // namespace
} // namespace cpullm
