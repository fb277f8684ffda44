#include "core/runtime_options.h"

#include <cstdlib>
#include <iostream>

#include "util/parallel.h"
#include "util/string_util.h"

namespace cpullm {
namespace core {

namespace {

/** Exit status for malformed invocations, as in every CLI here. */
constexpr int kUsageExit = 2;

/** Integer knob of at least @p min. */
bool
intAtLeast(const std::string& text, std::int64_t min, std::int64_t* out)
{
    std::int64_t v = 0;
    if (!parseInt(text, &v) || v < min)
        return false;
    *out = v;
    return true;
}

} // namespace

const std::vector<RuntimeOption>&
runtimeOptionTable()
{
    using Opts = RuntimeOptions;
    static const std::vector<RuntimeOption> kTable = {
        {"threads", "CPULLM_THREADS", "integer >= 0",
         "host worker-thread cap, 0 = one per hardware thread",
         [](const std::string& t, Opts* o) {
             std::int64_t n = 0;
             if (!intAtLeast(t, 0, &n))
                 return false;
             o->threads = static_cast<std::size_t>(n);
             return true;
         },
         [](const Opts& o) { return std::to_string(o.threads); }},
        {"counters", "CPULLM_COUNTERS", "auto|perf|soft|off",
         "measured hardware-counter backend",
         [](const std::string& t, Opts* o) {
             return obs::pmu::modeFromString(t, &o->counters);
         },
         [](const Opts& o) {
             return std::string(obs::pmu::modeName(o.counters));
         }},
        {"wquant", "CPULLM_WQUANT", "bf16|int8|int4",
         "weight-only quantization of the functional weights",
         [](const std::string& t, Opts* o) {
             return gemm::weightDtypeFromName(t, &o->wquant);
         },
         [](const Opts& o) {
             return std::string(gemm::weightDtypeName(o.wquant));
         }},
        {"batch-max", "CPULLM_BATCH_MAX", "integer >= 1",
         "continuous-batching in-flight sequence cap",
         [](const std::string& t, Opts* o) {
             return intAtLeast(t, 1, &o->batcher.maxBatch);
         },
         [](const Opts& o) { return std::to_string(o.batcher.maxBatch); }},
        {"kv-blocks", "CPULLM_KV_BLOCKS", "integer >= 1",
         "continuous-batching paged-KV pool size in blocks",
         [](const std::string& t, Opts* o) {
             return intAtLeast(t, 1, &o->batcher.numBlocks);
         },
         [](const Opts& o) {
             return std::to_string(o.batcher.numBlocks);
         }},
        {"prefix-cache", "CPULLM_PREFIX_CACHE", "on|off",
         "share the KV blocks of a common prompt prefix",
         [](const std::string& t, Opts* o) {
             if (t != "on" && t != "off")
                 return false;
             o->batcher.prefixCache = t == "on";
             return true;
         },
         [](const Opts& o) {
             return std::string(o.batcher.prefixCache ? "on" : "off");
         }},
        {nullptr, "CPULLM_LOG_LEVEL", "silent|warn|info|debug",
         "log verbosity",
         [](const std::string& t, Opts* o) {
             return logLevelFromString(t, &o->logLevel);
         },
         [](const Opts& o) {
             return std::string(logLevelName(o.logLevel));
         }},
    };
    return kTable;
}

RuntimeOptions
resolveRuntimeOptions(const std::string& prog, const FlagValues& flags,
                      RuntimeOptions opts)
{
    auto take = [&](const RuntimeOption& row, const std::string& name,
                    const std::string& text) {
        if (row.parse(text, &opts))
            return;
        std::cerr << prog << ": " << name << " expects " << row.values
                  << ", got '" << text << "'\nrun '" << prog
                  << " --help' for usage\n";
        std::exit(kUsageExit);
    };
    for (const RuntimeOption& row : runtimeOptionTable()) {
        const char* env = std::getenv(row.env);
        if (env != nullptr && *env != '\0')
            take(row, row.env, env);
        if (row.flag == nullptr)
            continue;
        const auto it = flags.find(row.flag);
        if (it != flags.end())
            take(row, std::string("--") + row.flag, it->second);
    }
    return opts;
}

void
applyProcessWide(const RuntimeOptions& opts)
{
    setMaxThreads(opts.threads);
    setLogLevel(opts.logLevel);
}

} // namespace core
} // namespace cpullm
