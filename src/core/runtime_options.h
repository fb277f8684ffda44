#ifndef CPULLM_CORE_RUNTIME_OPTIONS_H
#define CPULLM_CORE_RUNTIME_OPTIONS_H

/**
 * @file
 * The runtime knobs the paper's sweeps turn (core count, weight
 * dtype, batch and KV-pool size) plus the counter backend and the log
 * level, declared once. Each row of the table names a knob's flag and
 * env var, the values it accepts and the parser that reads them into
 * one RuntimeOptions value. The CLI and the host benches resolve that
 * value at start-up and pass it on explicitly; no module keeps a
 * process-wide "requested" copy.
 *
 * The contract is the same for every row and every program:
 *  - every row's env var is read each time options are resolved, and
 *    unset and empty both leave the default;
 *  - a flag, on a program that accepts it, overrides its env var;
 *  - a malformed flag or env value prints one line naming the flag or
 *    env var and exits 2.
 */

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "gemm/packed_weights.h"
#include "obs/perf_events.h"
#include "serve/batcher.h"
#include "util/logging.h"

namespace cpullm {
namespace core {

/** Every runtime knob's value; the member defaults are the built-in ones. */
struct RuntimeOptions
{
    /** Host worker-thread cap; 0 = one per hardware thread. */
    std::size_t threads = 0;
    /** Measured-counter backend (Off: no pmu::Session). */
    obs::pmu::Mode counters = obs::pmu::Mode::Off;
    /** Weight-only quantization of the functional weight caches. */
    gemm::WeightDtype wquant = gemm::WeightDtype::Native;
    /** Continuous-batching runtime (maxBatch, numBlocks, prefixCache). */
    serve::BatcherConfig batcher;
    /** Log verbosity. */
    LogLevel logLevel = LogLevel::Info;
};

/** One knob. */
struct RuntimeOption
{
    const char* flag;   ///< flag name without "--"; nullptr: env only
    const char* env;    ///< environment variable
    const char* values; ///< accepted values, for usage and errors
    const char* help;   ///< what the knob sets
    /** Read @p text into @p opts; false, leaving @p opts alone, when
     *  @p text is not one of the accepted values. */
    bool (*parse)(const std::string& text, RuntimeOptions* opts);
    /** This knob's value in @p opts, spelled as parse() accepts it. */
    std::string (*show)(const RuntimeOptions& opts);
};

/** The table, one row per knob, in usage order. */
const std::vector<RuntimeOption>& runtimeOptionTable();

/** A program's parsed flags, keyed by name without "--". */
using FlagValues = std::map<std::string, std::string>;

/**
 * Resolve every row: @p defaults, then the row's env var when set and
 * non-empty, then its flag when @p flags holds it (entries no row
 * names are ignored). A malformed value prints "<prog>: <--flag or
 * ENV> expects <values>, got '<text>'" and exits 2.
 */
RuntimeOptions resolveRuntimeOptions(const std::string& prog,
                                     const FlagValues& flags,
                                     RuntimeOptions defaults = {});

/** Apply the process-wide knobs: the host thread cap and log level. */
void applyProcessWide(const RuntimeOptions& opts);

} // namespace core
} // namespace cpullm

#endif // CPULLM_CORE_RUNTIME_OPTIONS_H
