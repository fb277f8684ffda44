#include "core/runtime_options.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace cpullm {
namespace core {
namespace {

/** Test values for one row of the table, which its env var names. */
struct RowCase
{
    const char* env;
    const char* valid; ///< not the default, spelled as show() spells it
    const char* other; ///< a second valid value, for the flag
    std::vector<const char*> malformed;
};

// ctest names each case after the printed parameter; print the env
// var, not gtest's byte dump (ASLR-moved pointers).
void
PrintTo(const RowCase& c, std::ostream* os)
{
    *os << c.env;
}

const std::vector<RowCase>&
rowCases()
{
    static const std::vector<RowCase> kCases = {
        {"CPULLM_THREADS", "3", "1", {"abc", "4cores", "-2", "2.0", " 2"}},
        {"CPULLM_COUNTERS", "soft", "perf", {"always", "SOFT", "on"}},
        {"CPULLM_WQUANT", "int4", "int8", {"int3", "garbage", "fp8"}},
        {"CPULLM_BATCH_MAX", "2", "5", {"0", "1e1", "many"}},
        {"CPULLM_KV_BLOCKS", "32", "7", {"0", "-4", "lots"}},
        {"CPULLM_PREFIX_CACHE", "off", "on", {"maybe", "1", "ON"}},
        {"CPULLM_LOG_LEVEL", "debug", "warn", {"loud", "INFO"}},
    };
    return kCases;
}

const RuntimeOption*
rowFor(const std::string& env)
{
    for (const RuntimeOption& row : runtimeOptionTable()) {
        if (env == row.env)
            return &row;
    }
    return nullptr;
}

/** The cases whose row also has a flag. */
std::vector<RowCase>
flagCases()
{
    std::vector<RowCase> out;
    for (const RowCase& c : rowCases()) {
        const RuntimeOption* row = rowFor(c.env);
        if (row != nullptr && row->flag != nullptr)
            out.push_back(c);
    }
    return out;
}

std::string
caseName(const testing::TestParamInfo<RowCase>& info)
{
    return info.param.env;
}

/** Unsets every knob's env var for its lifetime, then restores them. */
class ClearedKnobEnv
{
  public:
    ClearedKnobEnv()
    {
        for (const RuntimeOption& row : runtimeOptionTable()) {
            const char* v = std::getenv(row.env);
            saved_.emplace_back(row.env, v ? std::optional<std::string>(v)
                                           : std::nullopt);
            ::unsetenv(row.env);
        }
    }

    ~ClearedKnobEnv()
    {
        for (const auto& [name, value] : saved_) {
            if (value)
                ::setenv(name.c_str(), value->c_str(), 1);
            else
                ::unsetenv(name.c_str());
        }
    }

  private:
    std::vector<std::pair<std::string, std::optional<std::string>>>
        saved_;
};

/** One row's test, run with every knob's env var unset at start. */
class KnobEnvTest : public testing::TestWithParam<RowCase>
{
  protected:
    void
    SetUp() override
    {
        row_ = rowFor(GetParam().env);
        ASSERT_NE(row_, nullptr) << GetParam().env;
    }

    /** This row's value after resolving @p flags over the env. */
    std::string
    resolved(const FlagValues& flags = {}) const
    {
        return row_->show(resolveRuntimeOptions("test", flags));
    }

    std::string
    flagName() const
    {
        return std::string("--") + row_->flag;
    }

    ClearedKnobEnv env_;
    const RuntimeOption* row_ = nullptr;
};

class RuntimeOptionEnv : public KnobEnvTest
{
};

class RuntimeOptionFlag : public KnobEnvTest
{
};

TEST_P(RuntimeOptionEnv, UnsetAndEmptyGiveDefault)
{
    const std::string def = row_->show(RuntimeOptions{});
    EXPECT_NE(def, GetParam().valid);
    EXPECT_EQ(resolved(), def);
    ::setenv(row_->env, "", 1);
    EXPECT_EQ(resolved(), def);
}

TEST_P(RuntimeOptionEnv, ValidValueSetsField)
{
    ::setenv(row_->env, GetParam().valid, 1);
    EXPECT_EQ(resolved(), GetParam().valid);
}

TEST_P(RuntimeOptionEnv, MalformedValueExitsTwo)
{
    const std::string message =
        std::string("test: ") + row_->env + " expects ";
    for (const char* bad : GetParam().malformed) {
        EXPECT_EXIT(
            {
                ::setenv(row_->env, bad, 1);
                resolveRuntimeOptions("test", {});
            },
            testing::ExitedWithCode(2), message)
            << "value '" << bad << "'";
    }
}

TEST_P(RuntimeOptionEnv, MalformedValueLeavesFieldAlone)
{
    ::setenv(row_->env, GetParam().valid, 1);
    RuntimeOptions opts = resolveRuntimeOptions("test", {});
    for (const char* bad : GetParam().malformed) {
        EXPECT_FALSE(row_->parse(bad, &opts)) << "value '" << bad << "'";
        EXPECT_EQ(row_->show(opts), GetParam().valid);
    }
}

INSTANTIATE_TEST_SUITE_P(Rows, RuntimeOptionEnv,
                         testing::ValuesIn(rowCases()), caseName);

TEST_P(RuntimeOptionFlag, OverridesEnv)
{
    const FlagValues flags = {{row_->flag, GetParam().other}};
    EXPECT_EQ(resolved(flags), GetParam().other);
    ::setenv(row_->env, GetParam().valid, 1);
    EXPECT_EQ(resolved(), GetParam().valid);
    EXPECT_EQ(resolved(flags), GetParam().other);
}

TEST_P(RuntimeOptionFlag, MalformedValueExitsTwo)
{
    const std::string message = "test: " + flagName() + " expects ";
    for (const char* bad : GetParam().malformed) {
        EXPECT_EXIT(resolveRuntimeOptions("test", {{row_->flag, bad}}),
                    testing::ExitedWithCode(2), message)
            << "value '" << bad << "'";
    }
}

TEST_P(RuntimeOptionFlag, MalformedEnvFailsUnderAValidFlag)
{
    EXPECT_EXIT(
        {
            ::setenv(row_->env, GetParam().malformed.front(), 1);
            resolveRuntimeOptions("test",
                                  {{row_->flag, GetParam().other}});
        },
        testing::ExitedWithCode(2), row_->env);
}

INSTANTIATE_TEST_SUITE_P(Rows, RuntimeOptionFlag,
                         testing::ValuesIn(flagCases()), caseName);

TEST(RuntimeOptionTable, EveryRowIsTestedAndNamedOnce)
{
    std::set<std::string> names;
    for (const RuntimeOption& row : runtimeOptionTable()) {
        bool tested = false;
        for (const RowCase& c : rowCases())
            tested = tested || row.env == std::string(c.env);
        EXPECT_TRUE(tested) << row.env << " has no RowCase";
        EXPECT_TRUE(names.insert(row.env).second) << row.env;
        if (row.flag != nullptr) {
            EXPECT_TRUE(names.insert(row.flag).second) << row.flag;
        }
    }
}

TEST(RuntimeOptionTable, CallerDefaultsHoldUntilEnvOrFlag)
{
    // `cpullm counters` and bench_host_counters measure, so they
    // resolve with an auto counter default instead of off.
    const ClearedKnobEnv env;
    RuntimeOptions defaults;
    defaults.counters = obs::pmu::Mode::Auto;
    EXPECT_EQ(resolveRuntimeOptions("test", {}, defaults).counters,
              obs::pmu::Mode::Auto);
    ::setenv("CPULLM_COUNTERS", "soft", 1);
    EXPECT_EQ(resolveRuntimeOptions("test", {}, defaults).counters,
              obs::pmu::Mode::Soft);
    EXPECT_EQ(resolveRuntimeOptions("test", {{"counters", "off"}},
                                    defaults)
                  .counters,
              obs::pmu::Mode::Off);
    // Flags no row names (a program's other flags) are not knobs.
    EXPECT_EQ(resolveRuntimeOptions("test", {{"model", "tiny"}})
                  .batcher.maxBatch,
              serve::BatcherConfig{}.maxBatch);
}

TEST(RuntimeOptionTable, ApplyProcessWideSetsThreadCapAndLogLevel)
{
    const LogLevel prev = logLevel();
    RuntimeOptions opts;
    opts.threads = 1;
    opts.logLevel = LogLevel::Debug;
    applyProcessWide(opts);
    EXPECT_EQ(hardwareThreads(), 1u);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    opts.threads = 0; // one per hardware thread
    opts.logLevel = prev;
    applyProcessWide(opts);
    EXPECT_GE(hardwareThreads(), 1u);
    EXPECT_EQ(logLevel(), prev);
}

/** Clears every knob's env var and restores the process-wide knobs. */
class ProcessWideGuard
{
  public:
    ~ProcessWideGuard()
    {
        setMaxThreads(0);
        setLogLevel(level_);
    }

  private:
    ClearedKnobEnv env_;
    LogLevel level_ = logLevel();
};

/** What a program gets from its env: resolve, then apply process-wide. */
void
applyEnv(const RuntimeOptions& defaults = {})
{
    applyProcessWide(resolveRuntimeOptions("test", {}, defaults));
}

/** The usage error a malformed @p env value @p bad exits 2 with. */
std::string
malformedMessage(const char* env, const char* bad)
{
    return std::string("test: ") + env + " expects .*, got '" + bad + "'";
}

// The thread cap, log level and weight dtype, each through the whole
// path a program takes from its env var.

TEST(ApplyThreadsEnv, UnsetLeavesCapAlone)
{
    const ProcessWideGuard guard;
    RuntimeOptions defaults;
    defaults.threads = 1; // the caller's own cap
    applyEnv(defaults);
    EXPECT_EQ(hardwareThreads(), 1u);
    ::setenv("CPULLM_THREADS", "", 1); // empty counts as unset
    applyEnv(defaults);
    EXPECT_EQ(hardwareThreads(), 1u);
}

TEST(ApplyThreadsEnv, MalformedValueIsRejected)
{
    const ProcessWideGuard guard;
    for (const char* bad : {"abc", "4cores", "-2"}) {
        EXPECT_EXIT(
            {
                ::setenv("CPULLM_THREADS", bad, 1);
                applyEnv();
            },
            testing::ExitedWithCode(2),
            malformedMessage("CPULLM_THREADS", bad))
            << "value '" << bad << "'";
    }
}

TEST(LogLevelEnv, AppliesValidValue)
{
    const ProcessWideGuard guard;
    ::setenv("CPULLM_LOG_LEVEL", "debug", 1);
    applyEnv();
    EXPECT_EQ(logLevel(), LogLevel::Debug);
}

TEST(LogLevelEnv, UnsetAndEmptyLeaveLevelUntouched)
{
    const ProcessWideGuard guard;
    RuntimeOptions defaults;
    defaults.logLevel = LogLevel::Warn;
    applyEnv(defaults);
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    ::setenv("CPULLM_LOG_LEVEL", "", 1);
    applyEnv(defaults);
    EXPECT_EQ(logLevel(), LogLevel::Warn);
}

TEST(LogLevelEnvDeath, MalformedValueIsUsageErrorExit2)
{
    const ProcessWideGuard guard;
    EXPECT_EXIT(
        {
            ::setenv("CPULLM_LOG_LEVEL", "loud", 1);
            applyEnv();
        },
        testing::ExitedWithCode(2),
        malformedMessage("CPULLM_LOG_LEVEL", "loud"));
}

TEST(WquantEnv, AppliesAndRejects)
{
    const ClearedKnobEnv env;
    ::setenv("CPULLM_WQUANT", "int4", 1);
    RuntimeOptions opts = resolveRuntimeOptions("test", {});
    EXPECT_EQ(opts.wquant, gemm::WeightDtype::I4Grouped);
    ::setenv("CPULLM_WQUANT", "garbage", 1);
    EXPECT_EXIT(resolveRuntimeOptions("test", {}),
                testing::ExitedWithCode(2),
                malformedMessage("CPULLM_WQUANT", "garbage"));
    // Malformed values must not clobber the previous selection.
    const RuntimeOption* row = rowFor("CPULLM_WQUANT");
    ASSERT_NE(row, nullptr);
    EXPECT_FALSE(row->parse("garbage", &opts));
    EXPECT_EQ(opts.wquant, gemm::WeightDtype::I4Grouped);
    ::unsetenv("CPULLM_WQUANT");
    EXPECT_EQ(resolveRuntimeOptions("test", {}).wquant,
              gemm::WeightDtype::Native);
}

} // namespace
} // namespace core
} // namespace cpullm
