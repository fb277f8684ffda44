/**
 * @file
 * cpullm command-line driver; `cpullm --help` lists the commands and
 * their flags. The runtime knobs (threads, counters, weight quant,
 * batcher sizing, log level) come from the option table in
 * core/runtime_options.h: main() resolves them once per invocation,
 * from the env vars and the command's knob flags, generates the knob
 * block of --help from the same table, and passes the result to the
 * command.
 *
 * `run` simulates one request on a CPU platform; `serve` runs the
 * serving simulator (static or continuous batching, CPU or GPU
 * device) with optional Perfetto trace and JSONL run-report export.
 * With --telemetry-port, `serve` embeds an HTTP endpoint exposing
 * live /metrics (Prometheus 0.0.4), /health, /stats.json and
 * /report while the simulation runs; --prom-out writes the same
 * exposition headlessly and --slo-* targets feed the run report's
 * SLO verdict block;
 * `report` is `serve` with the machine-readable report on stdout;
 * `compare` pits the SPR CPU against both GPUs; `bench` sweeps the
 * figure experiments into BENCH_*.json baselines (see bench_diff);
 * `counters` executes the functional host path under measured
 * hardware counters and prints the measured-vs-analytical side by
 * side (IPC, LLC MPKI, GB/s) with the paper's Fig 11/12 trend
 * verdicts; `findings` validates the paper's five key findings;
 * `list` shows known models and platforms.
 *
 * `run --batching continuous` additionally executes the workload
 * through serve::ContinuousBatcher: iteration-level scheduling over a
 * paged-KV block pool, fusing the in-flight sequences into one ragged
 * decode step per iteration (bitwise equal to sequential decode). On
 * `serve`, --batching continuous selects the continuous-batching
 * simulator policy AND drives a small host session (the model must be
 * small enough for functional execution) so the live telemetry
 * exports the real scheduler's counters.
 *
 * Observability: --profile-hz samples every registered thread's
 * logical stack with the SIGPROF sampling profiler (obs/profiler.h)
 * and prints the measured top ops alongside the analytical
 * attribution tree's verdict; --flightrec-out keeps the always-on
 * flight recorder (obs/flight_recorder.h) running and dumps its event
 * ring to a JSONL file at exit, on SIGSEGV/SIGABRT/SIGTERM, on
 * CPULLM_FATAL/PANIC, and — under `serve` with --flightrec-zscore /
 * --flightrec-burn-rate — on SLO incidents. Both switches put `run`
 * in functional execution mode (real kernels on the thread pool),
 * since samples and span events need actual CPU work.
 *
 * Bad invocations — unknown command, unknown flag, missing value,
 * malformed knob — print an error pointing at --help and exit with
 * status 2.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cpullm.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "util/thread_registry.h"

using namespace cpullm;

namespace {

/** Exit status for malformed invocations (not simulation errors). */
constexpr int kUsageExit = 2;

/** Report a bad invocation and exit with status 2. */
[[noreturn]] void
usageError(const std::string& msg)
{
    std::cerr << "cpullm: " << msg
              << "\nrun 'cpullm --help' for usage\n";
    std::exit(kUsageExit);
}

using Flags = core::FlagValues;

/** Flags that take no value. */
bool
isBooleanFlag(const std::string& key)
{
    return key == "json" || key == "continuous" ||
           key == "attribution" || key == "quick" || key == "probe";
}

/**
 * Minimal --key value parser. Only flags in @p allowed are accepted;
 * anything else (including non-flag tokens and a flag without its
 * value) is a usage error, exit 2.
 */
std::map<std::string, std::string>
parseFlags(int argc, char** argv, int first,
           const std::set<std::string>& allowed)
{
    std::map<std::string, std::string> flags;
    for (int i = first; i < argc; ++i) {
        std::string key = argv[i];
        if (!startsWith(key, "--"))
            usageError("expected --flag, got '" + key + "'");
        key = key.substr(2);
        if (!allowed.count(key)) {
            usageError("unknown flag --" + key + " for '" +
                       std::string(argv[1]) + "'");
        }
        if (isBooleanFlag(key)) {
            flags[key] = "1";
            continue;
        }
        if (i + 1 >= argc)
            usageError("missing value for --" + key);
        flags[key] = argv[++i];
    }
    return flags;
}

/** Flags every workload-taking command understands. */
const std::set<std::string> kWorkloadFlags = {"batch", "prompt",
                                              "gen", "dtype"};

std::set<std::string>
withWorkloadFlags(std::set<std::string> extra)
{
    extra.insert(kWorkloadFlags.begin(), kWorkloadFlags.end());
    return extra;
}

std::string
flagOr(const std::map<std::string, std::string>& flags,
       const std::string& key, const std::string& fallback)
{
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
}

/**
 * Strictly parsed numeric flag value: the whole token must be a
 * number, otherwise it's a usage error (exit 2) — "--rate fast"
 * must not silently become 0.
 */
double
numberFlag(const std::map<std::string, std::string>& flags,
           const std::string& key, double fallback)
{
    auto it = flags.find(key);
    if (it == flags.end())
        return fallback;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (it->second.empty() || !end || *end != '\0')
        usageError("--" + key + " expects a number, got '" +
                   it->second + "'");
    return v;
}

std::int64_t
intFlag(const std::map<std::string, std::string>& flags,
        const std::string& key, std::int64_t fallback)
{
    const double v = numberFlag(flags, key,
                                static_cast<double>(fallback));
    if (v != std::floor(v))
        usageError("--" + key + " expects an integer");
    return static_cast<std::int64_t>(v);
}

/**
 * The --batching mode (strictly static|continuous, exit 2
 * otherwise); @p fallback when the flag is absent.
 */
std::string
batchingFlag(const std::map<std::string, std::string>& flags,
             const std::string& fallback)
{
    const std::string v = flagOr(flags, "batching", fallback);
    if (v != "static" && v != "continuous")
        usageError("--batching expects static|continuous, got '" + v +
                   "'");
    return v;
}

/**
 * The run-report keys that belong to one continuous-batching host
 * session, not to the process: its wall time and token rate. The
 * process-wide host.batch.* series come from the host-series table.
 */
void
addHostBatchRunMetrics(obs::RunReport& report,
                       const engine::HostBatchResult& hb)
{
    report.info["batching"] = "continuous";
    report.metrics["host.batch.wall_s"] = hb.wallSeconds;
    report.metrics["host.batch.tokens_per_s"] = hb.tokensPerSecond();
}

/**
 * RAII pmu::Session for one command: begins with @p mode (no-op when
 * Off) and ends on scope exit. Accumulated slots survive end() for
 * harvesting.
 */
class CountersSessionGuard
{
  public:
    explicit CountersSessionGuard(obs::pmu::Mode mode)
    {
        obs::pmu::Session& s = obs::pmu::Session::instance();
        if (mode != obs::pmu::Mode::Off) {
            s.clearSlots();
            backend_ = s.begin(mode);
        }
    }
    ~CountersSessionGuard() { obs::pmu::Session::instance().end(); }

    bool enabled() const
    {
        return backend_ != obs::pmu::Backend::Disabled;
    }
    obs::pmu::Backend backend() const { return backend_; }

  private:
    obs::pmu::Backend backend_ = obs::pmu::Backend::Disabled;
};

perf::Workload
workloadFromFlags(const std::map<std::string, std::string>& flags)
{
    perf::Workload w;
    w.batch = intFlag(flags, "batch", 1);
    w.promptLen = intFlag(flags, "prompt", 128);
    w.genLen = intFlag(flags, "gen", 32);
    w.dtype = dtypeFromName(flagOr(flags, "dtype", "bf16"));
    return w;
}

/**
 * Weight-only quantization narrows the analytical model's weight
 * dtype as well (bytes streamed per token shrink; activations and KV
 * stay at their own dtypes). An explicit --dtype wins.
 */
void
applyWquantToWorkload(const std::map<std::string, std::string>& flags,
                      gemm::WeightDtype wquant, perf::Workload* w)
{
    if (flags.count("dtype"))
        return;
    switch (wquant) {
      case gemm::WeightDtype::I8Grouped:
        w->dtype = DType::I8;
        break;
      case gemm::WeightDtype::I4Grouped:
        w->dtype = DType::I4;
        break;
      case gemm::WeightDtype::Native:
        break;
    }
}

/**
 * Turn on the flight recorder + crash-dump handler from the
 * --flightrec-* flags (no-op when --flightrec-out is absent). The
 * crash handler captures the dump path, so a SIGSEGV mid-run still
 * leaves the artifact the user asked for.
 */
void
setupFlightRecorder(const std::map<std::string, std::string>& flags)
{
    if (!flags.count("flightrec-out")) {
        if (flags.count("flightrec-events"))
            usageError("--flightrec-events requires --flightrec-out");
        return;
    }
    const std::int64_t events =
        intFlag(flags, "flightrec-events", 1 << 14);
    if (events < 1)
        usageError("--flightrec-events expects a positive integer");
    obs::flightrec::enable(static_cast<std::size_t>(events));
    obs::flightrec::installCrashHandler(flags.at("flightrec-out"));
}

/** Start the sampling profiler from --profile-hz; false if absent. */
bool
setupProfiler(const std::map<std::string, std::string>& flags)
{
    if (!flags.count("profile-hz")) {
        if (flags.count("profile-out") || flags.count("profile-reps"))
            usageError("--profile-out/--profile-reps require "
                       "--profile-hz");
        return false;
    }
    obs::prof::Options popt;
    popt.hz = numberFlag(flags, "profile-hz", popt.hz);
    if (popt.hz <= 0.0 || popt.hz > 10000.0)
        usageError("--profile-hz expects a frequency in (0, 10000]");
    if (!obs::prof::Profiler::instance().start(popt))
        CPULLM_FATAL("cannot start the sampling profiler (already "
                     "running, or the interval timer is unavailable)");
    return true;
}

/** Sum attributed wall time per operator kind over the whole tree. */
void
sumOpKindTimes(const obs::AttributionNode& node,
               std::map<std::string, double>& acc)
{
    if (node.kind == "op_kind")
        acc[node.name] += node.time;
    for (const auto& child : node.children)
        sumOpKindTimes(child, acc);
}

/** The op kind the analytical model spends the most time in ("" for
 *  an empty tree) — the modeled side of the profile agreement check. */
std::string
attributionTopKind(const obs::Attribution& a)
{
    std::map<std::string, double> acc;
    sumOpKindTimes(a.root, acc);
    std::string best;
    double best_t = -1.0;
    for (const auto& kv : acc) {
        if (kv.second > best_t) {
            best_t = kv.second;
            best = kv.first;
        }
    }
    return best;
}

/** Ops of @p p sorted by self samples, descending. */
std::vector<std::pair<std::string, obs::prof::OpStat>>
opsBySelf(const obs::prof::FoldedProfile& p)
{
    std::vector<std::pair<std::string, obs::prof::OpStat>> ops(
        p.ops.begin(), p.ops.end());
    std::sort(ops.begin(), ops.end(), [](const auto& a, const auto& b) {
        if (a.second.self != b.second.self)
            return a.second.self > b.second.self;
        return a.first < b.first;
    });
    return ops;
}

/**
 * Render the measured profile: top ops by self CPU time plus the
 * measured-vs-modeled top-op-kind agreement verdict (skipped when no
 * samples landed — a sub-millisecond run on an idle box).
 */
void
printProfileReport(std::ostream& os, const obs::prof::FoldedProfile& p,
                   const std::string& attr_kind, std::size_t top_ops)
{
    Table t({"op", "kind", "self s", "total s", "self %"});
    t.setCaption(strformat(
        "profile: %llu samples @ %.0f Hz (%llu dropped, %llu on "
        "unregistered threads)",
        static_cast<unsigned long long>(p.samples), p.hz,
        static_cast<unsigned long long>(p.dropped),
        static_cast<unsigned long long>(p.unregistered)));
    std::size_t shown = 0;
    for (const auto& kv : opsBySelf(p)) {
        if (shown++ >= top_ops)
            break;
        const char* kind = obs::prof::frameKind(kv.first);
        const double denom =
            p.samples > 0 ? static_cast<double>(p.samples) : 1.0;
        t.addRow({kv.first, *kind ? kind : "-",
                  formatNumber(p.selfSeconds(kv.first), 3),
                  formatNumber(p.hz > 0.0 ? static_cast<double>(
                                                kv.second.total) /
                                                p.hz
                                          : 0.0,
                               3),
                  formatNumber(100.0 * static_cast<double>(
                                           kv.second.self) /
                                   denom,
                               1)});
    }
    t.print(os);
    if (p.samples == 0) {
        os << "profile [ n/a ] no samples (run too short for "
           << formatNumber(p.hz, 0) << " Hz)\n";
        return;
    }
    const std::string measured = p.topKindBySelf();
    os << "profile [" << (measured == attr_kind ? "PASS" : "FAIL")
       << "] measured top op kind '" << measured
       << "' vs attribution '" << attr_kind << "'\n";
}

int
cmdRun(const Flags& flags, const core::RuntimeOptions& rt)
{
    const bool continuous = batchingFlag(flags, "static") ==
                            "continuous";
    // Observed runs (profiler or flight recorder) and continuous
    // batching execute the functional host path: real kernels on the
    // thread pool, so SIGPROF samples, span events and the fused
    // ragged decode steps are actual CPU work. Defaults mirror
    // `cpullm counters` (tiny model, 32+32 tokens).
    const bool observed = flags.count("profile-hz") != 0 ||
                          flags.count("flightrec-out") != 0 ||
                          continuous;
    const auto spec = model::modelByName(
        flagOr(flags, "model", observed ? "tiny" : "llama2-7b"));
    const auto platform =
        hw::platformByName(flagOr(flags, "platform", "spr"));
    perf::Workload w = workloadFromFlags(flags);
    applyWquantToWorkload(flags, rt.wquant, &w);
    if (observed) {
        if (!flags.count("prompt"))
            w.promptLen = 32;
        if (!flags.count("gen"))
            w.genLen = 32;
        if (spec.weightBytes(w.dtype) >
            engine::kMaxFunctionalWeightBytes)
            usageError("model '" + spec.name +
                       "' is too large for observed (functional) "
                       "execution; use a small model (e.g. --model "
                       "tiny)");
    }
    setupFlightRecorder(flags);
    const bool profiling = setupProfiler(flags);
    // More repetitions mean more samples; 3 gives a stable top-op
    // ranking for the tiny default workload at the default 97 Hz.
    const std::int64_t reps =
        intFlag(flags, "profile-reps", profiling ? 3 : 1);
    if (reps < 1)
        usageError("--profile-reps expects a positive integer");

    engine::CpuInferenceEngine eng(
        platform, spec,
        observed ? engine::ExecutionMode::FunctionalAndTiming
                 : engine::ExecutionMode::TimingOnly,
        engine::CpuInferenceEngine::kDefaultSeed, rt.wquant);
    obs::Tracer tracer;
    if (flags.count("trace-out"))
        eng.setTracer(&tracer);
    CountersSessionGuard pmu(rt.counters);
    obs::pmu::CounterScope pmu_scope("run");
    auto r = eng.infer(w);
    for (std::int64_t rep = 1; rep < reps; ++rep)
        r = eng.infer(w);
    // The continuous-batching host session: the same workload through
    // iteration-level scheduling on the paged-KV pool, publishing the
    // HostBatchSnapshot the telemetry layer exports.
    engine::HostBatchResult hb;
    if (continuous)
        hb = eng.runContinuousBatch(w, rt.batcher);
    pmu_scope.close();
    const obs::pmu::PmuCounts measured = pmu_scope.counts();

    obs::prof::FoldedProfile profile;
    std::string attr_kind;
    if (profiling) {
        obs::prof::Profiler::instance().stop();
        profile = obs::prof::Profiler::instance().collect();
        attr_kind = attributionTopKind(r.attribution);
        if (flags.count("profile-out")) {
            if (obs::prof::writeCollapsedFile(flags.at("profile-out"),
                                              profile))
                inform("wrote collapsed profile ",
                       flags.at("profile-out"));
            else
                warn("could not write '", flags.at("profile-out"),
                     "'");
        }
    }
    if (flags.count("flightrec-out")) {
        obs::flightrec::record(obs::flightrec::EventType::Marker,
                               "run_done");
        if (obs::flightrec::dumpToFile(flags.at("flightrec-out")))
            inform("wrote flight-recorder dump ",
                   flags.at("flightrec-out"));
        else
            warn("could not write '", flags.at("flightrec-out"),
                 "'");
    }

    if (flags.count("trace-out") &&
        tracer.writeChromeTraceFile(flags.at("trace-out")))
        inform("wrote trace ", flags.at("trace-out"));
    if (flags.count("report-out")) {
        obs::RunReport report = obs::makeInferenceReport(
            platform.label(), spec.name, w, r.timing, r.counters,
            &r.attribution);
        stats::Registry host;
        serve::recordHostStats(host);
        serve::addHostMetrics(report, host);
        if (continuous)
            addHostBatchRunMetrics(report, hb);
        if (eng.weightQuant() != gemm::WeightDtype::Native) {
            report.info["wquant"] =
                gemm::weightDtypeName(eng.weightQuant());
            if (const model::TransformerModel* fm =
                    eng.functionalModel()) {
                const auto layers = fm->layerQuantErrors();
                for (std::size_t l = 0; l < layers.size(); ++l) {
                    const std::string p = strformat(
                        "host.quant.layer%zu.", l);
                    report.metrics[p + "rms_err"] = layers[l].rmsErr;
                    report.metrics[p + "max_abs_err"] =
                        layers[l].maxAbsErr;
                }
            }
        }
        if (report.appendJsonlFile(flags.at("report-out")))
            inform("appended report to ", flags.at("report-out"));
    }
    if (flags.count("attribution"))
        obs::renderAttributionReport(std::cout, r.attribution);

    if (flags.count("json")) {
        std::string pmu_json;
        if (pmu.enabled()) {
            const obs::CounterMetrics m =
                obs::deriveCounterMetrics(measured, 0.0);
            pmu_json = strformat(
                ",\"counters_backend\":\"%s\","
                "\"measured_ipc\":%s,\"measured_llc_mpki\":%s",
                obs::pmu::backendName(pmu.backend()),
                jsonNumber(m.ipc).c_str(),
                jsonNumber(m.llcMpki).c_str());
        }
        if (profiling) {
            const std::string measured_kind = profile.topKindBySelf();
            pmu_json += strformat(
                ",\"profile\":{\"hz\":%s,\"samples\":%llu,"
                "\"dropped\":%llu,\"unregistered\":%llu,"
                "\"top_op\":\"%s\",\"top_kind\":\"%s\","
                "\"attr_kind\":\"%s\",\"kinds_agree\":%s}",
                jsonNumber(profile.hz).c_str(),
                static_cast<unsigned long long>(profile.samples),
                static_cast<unsigned long long>(profile.dropped),
                static_cast<unsigned long long>(profile.unregistered),
                profile.topOpBySelf().c_str(), measured_kind.c_str(),
                attr_kind.c_str(),
                profile.samples == 0
                    ? "null"
                    : (measured_kind == attr_kind ? "true"
                                                  : "false"));
        }
        if (continuous) {
            pmu_json += strformat(
                ",\"host_batch\":{\"steps\":%lld,"
                "\"mean_occupancy\":%.3f,\"peak_occupancy\":%lld,"
                "\"preemptions\":%lld,\"admission_rejections\":%lld,"
                "\"prefix_hits\":%lld,\"kv_blocks_peak\":%lld,"
                "\"kv_blocks_total\":%lld,\"tokens_per_s\":%.3f}",
                static_cast<long long>(hb.stats.steps),
                hb.stats.meanOccupancy(),
                static_cast<long long>(hb.stats.peakOccupancy),
                static_cast<long long>(hb.stats.preemptions),
                static_cast<long long>(hb.stats.admissionRejections),
                static_cast<long long>(hb.stats.prefixHits),
                static_cast<long long>(hb.snapshot.peakBlocksInUse),
                static_cast<long long>(hb.snapshot.blocksTotal),
                hb.tokensPerSecond());
        }
        std::cout << strformat(
            "{\"model\":\"%s\",\"platform\":\"%s\",\"batch\":%lld,"
            "\"prompt\":%lld,\"gen\":%lld,\"ttft_s\":%.6f,"
            "\"tpot_s\":%.6f,\"e2e_s\":%.6f,\"tokens_per_s\":%.3f,"
            "\"weights_hbm_fraction\":%.4f,\"llc_mpki\":%.2f,"
            "\"core_utilization\":%.4f%s}\n",
            spec.name.c_str(), platform.label().c_str(),
            static_cast<long long>(w.batch),
            static_cast<long long>(w.promptLen),
            static_cast<long long>(w.genLen), r.timing.ttft,
            r.timing.tpot, r.timing.e2eLatency,
            r.timing.totalThroughput, r.weightsHbmFraction,
            r.counters.mpki(), r.counters.coreUtilization,
            pmu_json.c_str());
        return 0;
    }

    Table t({"metric", "value"});
    t.setCaption(strformat("%s on %s (batch %lld, %lld+%lld tokens, "
                           "%s weights)",
                           spec.name.c_str(),
                           platform.label().c_str(),
                           static_cast<long long>(w.batch),
                           static_cast<long long>(w.promptLen),
                           static_cast<long long>(w.genLen),
                           dtypeName(w.dtype).c_str()));
    t.addRow({"TTFT", formatTime(r.timing.ttft)});
    t.addRow({"TPOT", formatTime(r.timing.tpot)});
    t.addRow({"E2E latency", formatTime(r.timing.e2eLatency)});
    t.addRow({"throughput",
              formatNumber(r.timing.totalThroughput, 1) + " tok/s"});
    t.addRow({"weights in HBM",
              formatNumber(100.0 * r.weightsHbmFraction, 1) + " %"});
    t.addRow({"LLC MPKI", formatNumber(r.counters.mpki(), 1)});
    if (continuous) {
        t.addRow({"batching", "continuous"});
        t.addRow({"batch steps",
                  std::to_string(hb.stats.steps)});
        t.addRow({"mean occupancy",
                  formatNumber(hb.stats.meanOccupancy(), 2)});
        t.addRow({"peak occupancy",
                  std::to_string(hb.stats.peakOccupancy)});
        t.addRow({"host throughput",
                  formatNumber(hb.tokensPerSecond(), 1) + " tok/s"});
        t.addRow({"preemptions",
                  std::to_string(hb.stats.preemptions)});
        t.addRow({"admit rejections",
                  std::to_string(hb.stats.admissionRejections)});
        t.addRow({"prefix reuse",
                  std::to_string(hb.stats.prefixTokensReused) +
                      " tokens / " +
                      std::to_string(hb.snapshot.prefixSharedBlocks) +
                      " blocks"});
        t.addRow({"KV blocks peak",
                  std::to_string(hb.snapshot.peakBlocksInUse) + " / " +
                      std::to_string(hb.snapshot.blocksTotal)});
    }
    if (eng.weightQuant() != gemm::WeightDtype::Native) {
        t.addRow({"weight quant",
                  gemm::weightDtypeName(eng.weightQuant())});
        const gemm::QuantStats qs = gemm::quantStats();
        if (qs.tensors > 0) {
            t.addRow({"quant max |err|",
                      formatNumber(qs.maxAbsErr, 4)});
            t.addRow({"quant RMS err", formatNumber(qs.rmsErr, 4)});
        }
    }
    if (pmu.enabled()) {
        const obs::CounterMetrics m =
            obs::deriveCounterMetrics(measured, 0.0);
        auto cell = [](double v, int digits) {
            return std::isfinite(v) ? formatNumber(v, digits)
                                    : std::string("n/a");
        };
        t.addRow({"counters backend",
                  obs::pmu::backendName(pmu.backend())});
        t.addRow({"measured CPU time",
                  cell(measured.taskClockNs / 1e9, 3) + " s"});
        t.addRow({"measured IPC", cell(m.ipc, 2)});
        t.addRow({"measured LLC MPKI", cell(m.llcMpki, 1)});
    }
    t.print(std::cout);
    if (profiling)
        printProfileReport(std::cout, profile, attr_kind, 10);
    return 0;
}

/**
 * Shared implementation of `serve` and `report`. `report` prints the
 * run-report JSON line on stdout; `serve` prints a summary table
 * (or, with --json, the same JSON line).
 */
/**
 * Self-check the live telemetry endpoint over a real TCP
 * round-trip: fetch every route and validate the payloads with the
 * in-process checkers (Prometheus parse-back, strict JSON). The
 * telemetry smoke ctest/CI job runs `serve --telemetry-port 0
 * --probe` so the whole socket path is exercised without curl.
 */
bool
probeTelemetry(int port)
{
    bool ok = true;
    int status = 0;

    const std::string health =
        httpGet("127.0.0.1", port, "/health", &status);
    if (status != 200 || health.find("ok") == std::string::npos) {
        warn("probe: /health failed (status ", status, ")");
        ok = false;
    }

    // Built-in liveness route (util/http_server.cc), no app handler.
    const std::string healthz =
        httpGet("127.0.0.1", port, "/healthz", &status);
    if (status != 200 || healthz.find("ok") == std::string::npos) {
        warn("probe: /healthz failed (status ", status, ")");
        ok = false;
    }

    // 200 with a parseable dump when the recorder is on, a JSON 404
    // otherwise.
    const std::string frec =
        httpGet("127.0.0.1", port, "/debug/flightrec", &status);
    if (obs::flightrec::enabled()) {
        obs::flightrec::ParsedDump dump;
        std::string err;
        if (status != 200 ||
            !obs::flightrec::parseDump(frec, &dump, &err)) {
            warn("probe: /debug/flightrec bad (status ", status, "): ",
                 err);
            ok = false;
        }
    } else if (status != 404) {
        warn("probe: expected 404 from /debug/flightrec while "
             "disabled, got ", status);
        ok = false;
    }

    const std::string metrics =
        httpGet("127.0.0.1", port, "/metrics", &status);
    std::vector<std::string> errors;
    if (status != 200 || !obs::promValid(metrics, &errors)) {
        warn("probe: /metrics invalid (status ", status, ")");
        for (const auto& e : errors)
            warn("probe:   ", e);
        ok = false;
    }

    for (const char* path : {"/stats.json", "/report"}) {
        const std::string body =
            httpGet("127.0.0.1", port, path, &status);
        if (status != 200 || !jsonValid(body)) {
            warn("probe: ", path, " is not valid JSON (status ",
                 status, ")");
            ok = false;
        }
    }

    status = 0;
    httpGet("127.0.0.1", port, "/no-such-route", &status);
    if (status != 404) {
        warn("probe: expected 404 for unknown route, got ", status);
        ok = false;
    }

    if (ok)
        inform("probe: /metrics /health /healthz /stats.json /report "
               "/debug/flightrec ok on port ", port);
    return ok;
}

int
cmdServe(const Flags& flags, const core::RuntimeOptions& rt,
         bool report_mode)
{
    setupFlightRecorder(flags);
    const bool profiling = setupProfiler(flags);
    const bool flightrec_on = flags.count("flightrec-out") != 0;
    // Live for the whole serve run: the telemetry /metrics endpoint
    // exports cpullm_host_pmu_* gauges while the session is active.
    CountersSessionGuard pmu(rt.counters);
    const auto spec =
        model::modelByName(flagOr(flags, "model", "opt-13b"));
    perf::Workload w = workloadFromFlags(flags);
    applyWquantToWorkload(flags, rt.wquant, &w);
    w.batch = 1; // per-request workload; the server forms batches

    // --batching continuous selects the continuous-batching simulator
    // policy AND a real host session (serve::ContinuousBatcher over
    // the functional model) whose counters the live telemetry
    // exports; the legacy --continuous switch keeps driving the
    // simulator alone.
    bool continuous = flags.count("continuous") != 0;
    const bool host_batch =
        flags.count("batching") != 0 &&
        batchingFlag(flags, "static") == "continuous";
    if (flags.count("batching")) {
        if (continuous && !host_batch)
            usageError("--batching static conflicts with "
                       "--continuous");
        continuous = host_batch;
    }
    if (host_batch &&
        spec.weightBytes(w.dtype) > engine::kMaxFunctionalWeightBytes)
        usageError("model '" + spec.name +
                   "' is too large for the continuous-batching host "
                   "session; use a small model (e.g. --model tiny)");

    serve::ServingConfig cfg;
    cfg.arrivalRate = numberFlag(flags, "rate", 0.5);
    cfg.maxBatch = intFlag(flags, "max-batch", 8);
    cfg.maxWait = numberFlag(flags, "max-wait", 0.0);
    cfg.numRequests = intFlag(flags, "requests", 100);
    cfg.seed =
        static_cast<std::uint64_t>(intFlag(flags, "seed", 1));

    // Live telemetry: SLO targets default to a chatbot-style
    // operating point (paper Section II-C); 0 disables a target.
    serve::ServingTelemetry::Options topt;
    topt.slo.ttft_s = numberFlag(flags, "slo-ttft-ms", 10000.0) /
                      1000.0;
    topt.slo.tpot_s = numberFlag(flags, "slo-tpot-ms", 500.0) /
                      1000.0;
    topt.slo.e2e_s = numberFlag(flags, "slo-e2e-ms", 60000.0) /
                     1000.0;
    topt.slo.budget = numberFlag(flags, "slo-budget", 0.01);
    if (topt.slo.budget <= 0.0 || topt.slo.budget > 1.0)
        usageError("--slo-budget must be in (0, 1]");
    topt.genLen = w.genLen;
    // Incident triggers: a latency z-score outlier or an SLO burn-
    // rate breach dumps the flight recorder to the --flightrec-out
    // path the moment it fires, while the ring still holds the
    // events leading up to the anomaly.
    topt.incidentZscore = numberFlag(flags, "flightrec-zscore", 0.0);
    topt.incidentBurnRate =
        numberFlag(flags, "flightrec-burn-rate", 0.0);
    if (topt.incidentZscore < 0.0)
        usageError("--flightrec-zscore must be >= 0");
    if (topt.incidentBurnRate < 0.0)
        usageError("--flightrec-burn-rate must be >= 0");
    if ((topt.incidentZscore > 0.0 || topt.incidentBurnRate > 0.0) &&
        !flightrec_on)
        usageError("--flightrec-zscore/--flightrec-burn-rate require "
                   "--flightrec-out");
    if (flightrec_on) {
        const std::string dump_path = flags.at("flightrec-out");
        topt.onIncident = [dump_path](const std::string& reason) {
            if (obs::flightrec::dumpToFile(dump_path))
                warn("incident '", reason,
                     "': dumped flight recorder to ", dump_path);
        };
    }
    serve::ServingTelemetry telemetry(topt);

    const int telemetry_port = static_cast<int>(
        intFlag(flags, "telemetry-port", -1));
    const bool probe = flags.count("probe") != 0;
    if (probe && telemetry_port < 0)
        usageError("--probe requires --telemetry-port");
    HttpServer http;
    if (telemetry_port >= 0) {
        http.route("/metrics", [&telemetry] {
            std::ostringstream os;
            telemetry.writePrometheus(os);
            obs::prof::Profiler& prof =
                obs::prof::Profiler::instance();
            if (prof.running())
                obs::prof::writePromGauges(os, prof.collect());
            return HttpResponse{200, obs::kPromContentType,
                                os.str()};
        });
        http.route("/debug/flightrec", [] {
            if (!obs::flightrec::enabled())
                return HttpResponse{
                    404, "application/json",
                    "{\"error\":\"flight recorder disabled; rerun "
                    "with --flightrec-out\"}\n"};
            return HttpResponse{200, "application/x-ndjson",
                                obs::flightrec::dumpToString()};
        });
        http.route("/health", [] {
            return HttpResponse{200, "application/json",
                                "{\"status\":\"ok\"}\n"};
        });
        http.route("/stats.json", [&telemetry] {
            std::ostringstream os;
            telemetry.writeStatsJson(os);
            return HttpResponse{200, "application/json", os.str()};
        });
        http.route("/report", [&telemetry] {
            const std::string report =
                telemetry.latestReportJson();
            return HttpResponse{
                200, "application/json",
                report.empty() ? "{\"status\":\"pending\"}\n"
                               : report + "\n"};
        });
        if (!http.start(telemetry_port))
            CPULLM_FATAL("cannot bind telemetry port ",
                         telemetry_port);
        const std::string url = strformat(
            "http://127.0.0.1:%d", http.port());
        // The startup line scripts grep for; keep stdout clean for
        // the machine-readable modes.
        if (!report_mode && !flags.count("json"))
            std::cout << "telemetry listening on " << url
                      << " (/metrics /health /stats.json /report)"
                      << std::endl;
        else
            inform("telemetry listening on ", url);
    }

    obs::Tracer tracer;
    obs::Tracer* tp =
        flags.count("trace-out") ? &tracer : nullptr;
    const std::string device = flagOr(flags, "device", "cpu");

    serve::ServingResult res;
    std::optional<engine::HostBatchResult> hostres;
    std::string platform_label;
    std::string policy;
    if (device == "cpu") {
        const auto platform =
            hw::platformByName(flagOr(flags, "platform", "spr"));
        platform_label = platform.label();
        if (host_batch) {
            // Run the real scheduler first so its
            // cpullm_host_batch_* gauges are live for /metrics
            // scrapes during the (much longer) simulation.
            engine::CpuInferenceEngine heng(
                platform, spec,
                engine::ExecutionMode::FunctionalAndTiming,
                engine::CpuInferenceEngine::kDefaultSeed, rt.wquant);
            perf::Workload hw_w = w;
            hw_w.batch = std::max<std::int64_t>(
                1, std::min(cfg.numRequests, 2 * rt.batcher.maxBatch));
            hostres = heng.runContinuousBatch(hw_w, rt.batcher);
        }
        if (continuous) {
            policy = "continuous batching";
            res = serve::simulateContinuousBatching(
                cfg, serve::cpuStepCosts(platform, spec, w), tp,
                &telemetry);
        } else {
            policy = "static batching";
            res = serve::simulateServing(
                cfg, serve::cpuLatencyFn(platform, spec, w), tp,
                &telemetry);
        }
    } else if (device == "gpu") {
        if (continuous)
            CPULLM_FATAL("--continuous requires --device cpu");
        const hw::GpuConfig gpu_config =
            flagOr(flags, "gpu", "a100") == "h100"
                ? hw::nvidiaH100()
                : hw::nvidiaA100();
        platform_label = gpu_config.name;
        policy = "static batching";
        res = serve::simulateServing(
            cfg, serve::gpuLatencyFn(gpu_config, spec, w), tp,
            &telemetry);
        if (tp) {
            // Device-execution timeline (compute vs. PCIe vs. host
            // attention) at the served mean batch size — the Fig 18
            // breakdown alongside the request lifecycle view.
            perf::Workload bw = w;
            bw.batch = std::max<std::int64_t>(
                1, std::llround(res.meanBatchSize));
            gpu::GpuPerfModel(gpu_config).run(spec, bw, tp);
        }
    } else {
        CPULLM_FATAL("unknown --device '", device,
                     "' (expected cpu or gpu)");
    }

    stats::Registry reg;
    obs::RunReport report = serve::buildRunReport(
        res, cfg, platform_label, spec.name, w, policy, reg);
    telemetry.annotateReport(report);
    if (hostres)
        addHostBatchRunMetrics(report, *hostres);
    telemetry.setLatestReportJson(report.toJson());

    if (tp && tracer.writeChromeTraceFile(flags.at("trace-out")))
        inform("wrote trace ", flags.at("trace-out"));
    if (flags.count("report-out") &&
        report.appendJsonlFile(flags.at("report-out")))
        inform("appended report to ", flags.at("report-out"));
    if (flags.count("prom-out")) {
        std::ofstream ofs(flags.at("prom-out"));
        if (ofs) {
            telemetry.writePrometheus(ofs);
            inform("wrote exposition ", flags.at("prom-out"));
        } else {
            warn("could not open '", flags.at("prom-out"),
                 "' for writing");
        }
    }

    bool probe_ok = true;
    if (telemetry_port >= 0) {
        if (probe)
            probe_ok = probeTelemetry(http.port());
        const double linger = numberFlag(flags, "linger", 0.0);
        if (linger > 0.0) {
            inform("telemetry lingering for ", linger, " s");
            std::this_thread::sleep_for(
                std::chrono::duration<double>(linger));
        }
        http.stop();
    }
    if (profiling) {
        obs::prof::Profiler& prof = obs::prof::Profiler::instance();
        prof.stop();
        const obs::prof::FoldedProfile p = prof.collect();
        if (flags.count("profile-out")) {
            if (obs::prof::writeCollapsedFile(flags.at("profile-out"),
                                              p))
                inform("wrote collapsed profile ",
                       flags.at("profile-out"));
            else
                warn("could not write '", flags.at("profile-out"),
                     "'");
        }
        inform("profile: ", p.samples, " samples @ ", p.hz, " Hz (",
               p.dropped, " dropped)");
    }
    if (flightrec_on) {
        obs::flightrec::record(obs::flightrec::EventType::Marker,
                               "serve_done");
        if (obs::flightrec::dumpToFile(flags.at("flightrec-out")))
            inform("wrote flight-recorder dump ",
                   flags.at("flightrec-out"));
        else
            warn("could not write '", flags.at("flightrec-out"),
                 "'");
    }
    if (!probe_ok)
        return 1;

    if (report_mode || flags.count("json")) {
        std::cout << report.toJson() << "\n";
        return 0;
    }

    Table t({"metric", "value"});
    t.setCaption(strformat(
        "%s on %s: %lld reqs @ %.2f req/s, %s (max batch %lld)",
        spec.name.c_str(), platform_label.c_str(),
        static_cast<long long>(cfg.numRequests), cfg.arrivalRate,
        policy.c_str(), static_cast<long long>(cfg.maxBatch)));
    auto metric = [&](const char* label, const char* key) {
        auto it = report.metrics.find(key);
        if (it != report.metrics.end())
            t.addRow({label, formatTime(it->second)});
    };
    metric("TTFT p50", "ttft_p50_s");
    metric("TTFT p95", "ttft_p95_s");
    metric("TTFT p99", "ttft_p99_s");
    metric("E2E p50", "e2e_p50_s");
    metric("E2E p95", "e2e_p95_s");
    metric("E2E p99", "e2e_p99_s");
    metric("TPOT p50", "tpot_p50_s");
    t.addRow({"throughput",
              formatNumber(res.tokenThroughput(w.genLen), 1) +
                  " tok/s"});
    t.addRow({"utilization",
              formatNumber(100.0 * res.utilization(), 1) + " %"});
    t.addRow({"mean batch",
              formatNumber(res.meanBatchSize, 2)});
    if (hostres) {
        t.addRow({"host batch occupancy",
                  formatNumber(hostres->stats.meanOccupancy(), 2) +
                      " mean / " +
                      std::to_string(hostres->stats.peakOccupancy) +
                      " peak"});
        t.addRow({"host throughput",
                  formatNumber(hostres->tokensPerSecond(), 1) +
                      " tok/s"});
    }
    t.print(std::cout);
    return 0;
}

/**
 * `cpullm profile`: offline report over profiling artifacts — a
 * collapsed-stack file (--collapsed) and/or a flight-recorder JSONL
 * dump (--flightrec). Prints the top ops and the dump composition,
 * re-exports the dump as a Perfetto/Chrome trace with --perfetto-out,
 * and emits a machine-readable summary with --json. A malformed
 * artifact is a data error (exit 1), not a usage error.
 */
int
cmdProfile(const Flags& flags, const core::RuntimeOptions&)
{
    const bool have_collapsed = flags.count("collapsed") != 0;
    const bool have_dump = flags.count("flightrec") != 0;
    if (!have_collapsed && !have_dump)
        usageError("profile needs --collapsed F and/or "
                   "--flightrec F");
    if (flags.count("perfetto-out") && !have_dump)
        usageError("--perfetto-out requires --flightrec");
    const std::int64_t top = intFlag(flags, "top", 10);
    if (top < 1)
        usageError("--top expects a positive integer");

    obs::prof::FoldedProfile prof;
    obs::flightrec::ParsedDump dump;
    std::string err;
    if (have_collapsed &&
        !obs::prof::parseCollapsedFile(flags.at("collapsed"), &prof,
                                       &err)) {
        warn("bad collapsed profile '", flags.at("collapsed"),
             "': ", err);
        return 1;
    }
    if (have_dump &&
        !obs::flightrec::parseDumpFile(flags.at("flightrec"), &dump,
                                       &err)) {
        warn("bad flight-recorder dump '", flags.at("flightrec"),
             "': ", err);
        return 1;
    }
    if (flags.count("perfetto-out")) {
        if (!obs::flightrec::writePerfettoFile(
                flags.at("perfetto-out"), dump)) {
            warn("could not write '", flags.at("perfetto-out"), "'");
            return 1;
        }
        inform("wrote perfetto trace ", flags.at("perfetto-out"));
    }

    std::map<std::string, std::uint64_t> by_type;
    for (const auto& rec : dump.records) {
        by_type[obs::flightrec::eventTypeName(
            static_cast<obs::flightrec::EventType>(rec.type))] += 1;
    }

    if (flags.count("json")) {
        std::string doc = "{";
        if (have_collapsed) {
            doc += strformat(
                "\"collapsed\":{\"samples\":%llu,\"stacks\":%llu,"
                "\"ops\":%llu,\"top_op\":\"%s\","
                "\"top_kind\":\"%s\"}",
                static_cast<unsigned long long>(prof.samples),
                static_cast<unsigned long long>(prof.stacks.size()),
                static_cast<unsigned long long>(prof.ops.size()),
                prof.topOpBySelf().c_str(),
                prof.topKindBySelf().c_str());
        }
        if (have_dump) {
            if (have_collapsed)
                doc += ",";
            doc += strformat(
                "\"flightrec\":{\"version\":%d,\"pushed\":%llu,"
                "\"overwritten\":%llu,\"capacity\":%llu,"
                "\"threads\":%llu,\"records\":%llu,\"events\":{",
                dump.version,
                static_cast<unsigned long long>(dump.pushed),
                static_cast<unsigned long long>(dump.overwritten),
                static_cast<unsigned long long>(dump.capacity),
                static_cast<unsigned long long>(dump.threads.size()),
                static_cast<unsigned long long>(dump.records.size()));
            bool first = true;
            for (const auto& kv : by_type) {
                doc += strformat(
                    "%s\"%s\":%llu", first ? "" : ",",
                    kv.first.c_str(),
                    static_cast<unsigned long long>(kv.second));
                first = false;
            }
            doc += "}}";
        }
        doc += "}";
        std::cout << doc << "\n";
        return 0;
    }

    if (have_collapsed) {
        Table t({"op", "kind", "self", "total", "self %"});
        t.setCaption(strformat(
            "%s: %llu samples, %llu stacks, %llu ops",
            flags.at("collapsed").c_str(),
            static_cast<unsigned long long>(prof.samples),
            static_cast<unsigned long long>(prof.stacks.size()),
            static_cast<unsigned long long>(prof.ops.size())));
        std::int64_t shown = 0;
        for (const auto& kv : opsBySelf(prof)) {
            if (shown++ >= top)
                break;
            const char* kind = obs::prof::frameKind(kv.first);
            const double denom = prof.samples > 0
                                     ? static_cast<double>(
                                           prof.samples)
                                     : 1.0;
            t.addRow({kv.first, *kind ? kind : "-",
                      formatNumber(
                          static_cast<double>(kv.second.self), 0),
                      formatNumber(
                          static_cast<double>(kv.second.total), 0),
                      formatNumber(100.0 * static_cast<double>(
                                               kv.second.self) /
                                       denom,
                                   1)});
        }
        t.print(std::cout);
    }
    if (have_dump) {
        Table t({"event", "records"});
        t.setCaption(strformat(
            "%s: v%d, %llu pushed (%llu overwritten), capacity %llu, "
            "%llu threads",
            flags.at("flightrec").c_str(), dump.version,
            static_cast<unsigned long long>(dump.pushed),
            static_cast<unsigned long long>(dump.overwritten),
            static_cast<unsigned long long>(dump.capacity),
            static_cast<unsigned long long>(dump.threads.size())));
        for (const auto& kv : by_type) {
            t.addRow({kv.first,
                      formatNumber(static_cast<double>(kv.second),
                                   0)});
        }
        t.print(std::cout);
    }
    return 0;
}

int
cmdCompare(const Flags& flags, const core::RuntimeOptions&)
{
    const auto spec =
        model::modelByName(flagOr(flags, "model", "opt-30b"));
    const perf::Workload w = workloadFromFlags(flags);

    const perf::CpuPerfModel spr(hw::sprDefaultPlatform());
    const gpu::GpuPerfModel a100(hw::nvidiaA100());
    const gpu::GpuPerfModel h100(hw::nvidiaH100());

    const auto tc = spr.run(spec, w);
    const auto ra = a100.run(spec, w);
    const auto rh = h100.run(spec, w);

    Table t({"device", "mode", "TTFT", "TPOT", "E2E", "tok/s",
             "vs CPU"});
    t.setCaption(strformat("%s, batch %lld", spec.name.c_str(),
                           static_cast<long long>(w.batch)));
    t.addRow({"SPR Max9468", "native", formatTime(tc.ttft),
              formatTime(tc.tpot), formatTime(tc.e2eLatency),
              formatNumber(tc.totalThroughput, 1), "1.00x"});
    auto gpu_row = [&](const char* name, const gpu::GpuRunResult& r) {
        t.addRow({name,
                  r.placement == gpu::GpuPlacement::Offloaded
                      ? "offload"
                      : "resident",
                  formatTime(r.timing.ttft), formatTime(r.timing.tpot),
                  formatTime(r.timing.e2eLatency),
                  formatNumber(r.timing.totalThroughput, 1),
                  formatNumber(tc.e2eLatency / r.timing.e2eLatency,
                               2) +
                      "x"});
    };
    gpu_row("A100", ra);
    gpu_row("H100", rh);
    t.print(std::cout);
    return 0;
}

/**
 * Sweep the figure experiments into BENCH_*.json baseline files (see
 * core/bench_suite.h and tools/bench_diff).
 */
int
cmdBench(const Flags& flags, const core::RuntimeOptions& rt)
{
    CountersSessionGuard pmu(rt.counters);
    core::BenchSuiteOptions opt;
    opt.quick = flags.count("quick") != 0;
    const std::string dir = flagOr(flags, "out", "bench_results");

    stats::Registry reg;
    const auto baselines = core::runBenchSuite(opt, &reg);
    serve::recordHostStats(reg);
    int written = 0;
    for (const auto& b : baselines) {
        if (core::writeBaseline(b, dir))
            ++written;
    }
    reg.dump(std::cout);
    inform("wrote ", written, " of ", baselines.size(),
           " baselines to ", dir, "/");
    return written == static_cast<int>(baselines.size()) ? 0 : 1;
}

/** Signed relative error (measured - modeled) / modeled; NaN when
 *  either side is unavailable or the modeled value is zero. */
double
relativeError(double measured, double modeled)
{
    if (!std::isfinite(measured) || !std::isfinite(modeled) ||
        modeled == 0.0)
        return std::numeric_limits<double>::quiet_NaN();
    return (measured - modeled) / modeled;
}

/** JSON object for one derived-metric set (nulls for NaN). */
std::string
counterMetricsJson(const obs::CounterMetrics& m)
{
    return strformat(
        "{\"ipc\":%s,\"llc_mpki\":%s,\"gbps\":%s,"
        "\"instructions_per_token\":%s,\"bytes_per_token\":%s}",
        jsonNumber(m.ipc).c_str(), jsonNumber(m.llcMpki).c_str(),
        jsonNumber(m.gbps).c_str(),
        jsonNumber(m.instructionsPerToken).c_str(),
        jsonNumber(m.bytesPerToken).c_str());
}

/** "true"/"false", or "null" when the inputs were unmeasurable. */
std::string
jsonTrend(double lhs, double rhs)
{
    if (!std::isfinite(lhs) || !std::isfinite(rhs))
        return "null";
    return lhs > rhs ? "true" : "false";
}

/**
 * `cpullm counters`: execute the functional host path (real kernels
 * on the thread pool) under measured hardware counters and print the
 * measured-vs-analytical side-by-side the paper's methodology is
 * built on — IPC, LLC MPKI and achieved GB/s per phase with signed
 * relative errors, plus the Fig 11/12 trend verdicts (decode MPKI >
 * prefill MPKI; prefill IPC > decode IPC) evaluated on the measured
 * numbers. Defaults to --counters auto; under the software fallback
 * (or a PMU-less VM) the hardware-derived fields print n/a and emit
 * JSON null, and the command still exits 0.
 */
int
cmdCounters(const Flags& flags, const core::RuntimeOptions& rt)
{
    if (rt.counters == obs::pmu::Mode::Off)
        usageError("'counters' needs a live backend; use --counters "
                   "auto|perf|soft");

    const auto spec =
        model::modelByName(flagOr(flags, "model", "tiny"));
    const auto platform =
        hw::platformByName(flagOr(flags, "platform", "spr"));
    perf::Workload w = workloadFromFlags(flags);
    // Defaults sized for the tiny functional model (maxSeqLen 64)
    // with enough decode steps for stable counters.
    if (!flags.count("prompt"))
        w.promptLen = 32;
    if (!flags.count("gen"))
        w.genLen = 32;
    // The modeled side streams the weight format the kernels measure.
    applyWquantToWorkload(flags, rt.wquant, &w);
    if (spec.weightBytes(w.dtype) > engine::kMaxFunctionalWeightBytes)
        usageError("model '" + spec.name +
                   "' is too large for functional execution; "
                   "use a small model (e.g. --model tiny)");

    engine::CpuInferenceEngine eng(
        platform, spec, engine::ExecutionMode::FunctionalAndTiming,
        engine::CpuInferenceEngine::kDefaultSeed, rt.wquant);

    obs::pmu::Session& session = obs::pmu::Session::instance();
    session.clearSlots();
    const obs::pmu::Backend backend = session.begin(rt.counters);
    const auto r = eng.infer(w);
    const obs::pmu::PerfProbe probe = session.probe();
    const int hw_events = session.hardwareEventsOpen();
    const std::size_t groups = session.threadGroups();
    const bool imc = session.imcOpen();
    session.end();
    const auto slots = session.takeSlots();

    auto slotCounts = [&](const char* name) {
        auto it = slots.find(name);
        return it == slots.end() ? obs::pmu::PmuCounts::unavailable()
                                 : it->second;
    };
    const obs::pmu::PmuCounts c_pre = slotCounts("prefill");
    const obs::pmu::PmuCounts c_dec = slotCounts("decode");
    const double prefill_tokens = static_cast<double>(w.batch);
    const double decode_tokens =
        static_cast<double>(w.batch) *
        static_cast<double>(std::max<std::int64_t>(0, w.genLen - 1));
    const obs::CounterMetrics meas_pre =
        obs::deriveCounterMetrics(c_pre, prefill_tokens);
    const obs::CounterMetrics meas_dec =
        obs::deriveCounterMetrics(c_dec, decode_tokens);

    // The analytical twin of the same workload on the chosen
    // platform. Modeled cycles assume the used cores are unhalted
    // for the whole phase (utilization 1), because that is what the
    // cycles PMU measures: memory-stalled cores still burn cycles,
    // which is exactly why decode IPC collapses in the paper. DRAM
    // bytes use the LLC-miss-line estimate on both sides so the
    // comparison is like-for-like.
    auto modeled = [&](const perf::Counters& pc, double seconds,
                       double tokens) {
        const double cycles = obs::modeledCycles(
            1.0, static_cast<double>(platform.coresUsed),
            platform.cpu.coreFrequency, seconds);
        return obs::deriveCounterMetrics(
            pc.instructions, cycles, pc.llcMisses, pc.llcAccesses,
            pc.llcMisses * obs::kCacheLineBytes, seconds, tokens);
    };
    const obs::CounterMetrics mod_pre =
        modeled(r.timing.prefill.counters, r.timing.prefill.totalTime,
                prefill_tokens);
    const obs::CounterMetrics mod_dec = modeled(
        r.timing.decodeStep.counters, r.timing.decodeTime,
        decode_tokens);

    const std::string backend_name = obs::pmu::backendName(backend);
    if (flags.count("json") || flags.count("out")) {
        const std::string doc = strformat(
            "{\"model\":\"%s\",\"platform\":\"%s\",\"batch\":%lld,"
            "\"prompt\":%lld,\"gen\":%lld,\"wquant\":\"%s\","
            "\"counters\":{\"requested\":\"%s\",\"backend\":\"%s\","
            "\"paranoid\":%d,\"hw_events\":%d,"
            "\"thread_groups\":%llu,\"imc\":%s},"
            "\"phases\":{"
            "\"prefill\":{\"measured\":%s,\"modeled\":%s,"
            "\"rel_err\":{\"ipc\":%s,\"llc_mpki\":%s,\"gbps\":%s}},"
            "\"decode\":{\"measured\":%s,\"modeled\":%s,"
            "\"rel_err\":{\"ipc\":%s,\"llc_mpki\":%s,\"gbps\":%s}}},"
            "\"trends\":{\"decode_mpki_gt_prefill\":%s,"
            "\"prefill_ipc_gt_decode\":%s,"
            "\"modeled_decode_mpki_gt_prefill\":%s}}",
            spec.name.c_str(), platform.label().c_str(),
            static_cast<long long>(w.batch),
            static_cast<long long>(w.promptLen),
            static_cast<long long>(w.genLen), dtypeName(w.dtype).c_str(),
            obs::pmu::modeName(rt.counters),
            backend_name.c_str(), probe.paranoid, hw_events,
            static_cast<unsigned long long>(groups),
            imc ? "true" : "false",
            counterMetricsJson(meas_pre).c_str(),
            counterMetricsJson(mod_pre).c_str(),
            jsonNumber(relativeError(meas_pre.ipc, mod_pre.ipc))
                .c_str(),
            jsonNumber(
                relativeError(meas_pre.llcMpki, mod_pre.llcMpki))
                .c_str(),
            jsonNumber(relativeError(meas_pre.gbps, mod_pre.gbps))
                .c_str(),
            counterMetricsJson(meas_dec).c_str(),
            counterMetricsJson(mod_dec).c_str(),
            jsonNumber(relativeError(meas_dec.ipc, mod_dec.ipc))
                .c_str(),
            jsonNumber(
                relativeError(meas_dec.llcMpki, mod_dec.llcMpki))
                .c_str(),
            jsonNumber(relativeError(meas_dec.gbps, mod_dec.gbps))
                .c_str(),
            jsonTrend(meas_dec.llcMpki, meas_pre.llcMpki).c_str(),
            jsonTrend(meas_pre.ipc, meas_dec.ipc).c_str(),
            jsonTrend(mod_dec.llcMpki, mod_pre.llcMpki).c_str());
        if (flags.count("out")) {
            std::ofstream ofs(flags.at("out"));
            if (!ofs) {
                warn("could not open '", flags.at("out"),
                     "' for writing");
                return 1;
            }
            ofs << doc << "\n";
            inform("wrote ", flags.at("out"));
        }
        if (flags.count("json"))
            std::cout << doc << "\n";
        return 0;
    }

    auto cell = [](double v) {
        return std::isfinite(v) ? formatNumber(v, 2)
                                : std::string("n/a");
    };
    auto errCell = [&](double m, double a) {
        const double e = relativeError(m, a);
        return std::isfinite(e)
                   ? formatNumber(100.0 * e, 1) + " %"
                   : std::string("n/a");
    };
    Table t({"metric", "phase", "measured", "modeled", "rel err"});
    t.setCaption(strformat(
        "%s on %s (batch %lld, %lld+%lld tokens) -- backend %s, "
        "%d hw events, %llu thread groups, paranoid %d",
        spec.name.c_str(), platform.label().c_str(),
        static_cast<long long>(w.batch),
        static_cast<long long>(w.promptLen),
        static_cast<long long>(w.genLen), backend_name.c_str(),
        hw_events, static_cast<unsigned long long>(groups),
        probe.paranoid));
    auto metricRows = [&](const char* name, double mp, double ap,
                          double md, double ad) {
        t.addRow({name, "prefill", cell(mp), cell(ap),
                  errCell(mp, ap)});
        t.addRow({name, "decode", cell(md), cell(ad),
                  errCell(md, ad)});
    };
    metricRows("IPC", meas_pre.ipc, mod_pre.ipc, meas_dec.ipc,
               mod_dec.ipc);
    metricRows("LLC MPKI", meas_pre.llcMpki, mod_pre.llcMpki,
               meas_dec.llcMpki, mod_dec.llcMpki);
    metricRows("GB/s", meas_pre.gbps, mod_pre.gbps, meas_dec.gbps,
               mod_dec.gbps);
    metricRows("Minstr/token", meas_pre.instructionsPerToken / 1e6,
               mod_pre.instructionsPerToken / 1e6,
               meas_dec.instructionsPerToken / 1e6,
               mod_dec.instructionsPerToken / 1e6);
    metricRows("KB/token", meas_pre.bytesPerToken / 1e3,
               mod_pre.bytesPerToken / 1e3,
               meas_dec.bytesPerToken / 1e3,
               mod_dec.bytesPerToken / 1e3);
    t.print(std::cout);

    auto verdict = [](const char* what, double lhs, double rhs) {
        if (!std::isfinite(lhs) || !std::isfinite(rhs))
            std::cout << "trend [ n/a ] " << what
                      << " (needs hardware events)\n";
        else
            std::cout << "trend ["
                      << (lhs > rhs ? "PASS" : "FAIL") << " ] "
                      << what << "\n";
    };
    verdict("measured decode MPKI > prefill MPKI (Fig 11/12)",
            meas_dec.llcMpki, meas_pre.llcMpki);
    verdict("measured prefill IPC > decode IPC", meas_pre.ipc,
            meas_dec.ipc);
    verdict("modeled decode MPKI > prefill MPKI", mod_dec.llcMpki,
            mod_pre.llcMpki);
    return 0;
}

int
cmdFindings(const Flags&, const core::RuntimeOptions&)
{
    bool all = true;
    for (const auto& c : core::checkAllKeyFindings()) {
        std::cout << "KF" << c.number << " ["
                  << (c.passed ? "PASS" : "FAIL") << "] " << c.detail
                  << "\n";
        all = all && c.passed;
    }
    return all ? 0 : 1;
}

int
cmdList(const Flags&, const core::RuntimeOptions&)
{
    std::cout << "models:\n";
    for (const auto& m : model::evaluatedModels()) {
        std::cout << strformat(
            "  %-11s %3lldL d=%lld heads=%lld  %s (BF16)\n",
            m.name.c_str(), static_cast<long long>(m.numLayers),
            static_cast<long long>(m.dModel),
            static_cast<long long>(m.numHeads),
            formatBytes(m.weightBytes(DType::BF16)).c_str());
    }
    std::cout << "  (also: opt-175b, tiny)\n\nplatforms:\n"
              << "  icl                 Xeon 8352Y, 32c, DDR4\n"
              << "  spr                 Xeon Max 9468, quad_flat, 48c\n"
              << "  <cpu>/<clu>_<mem>/<N>c   e.g. spr/snc_cache/24c\n";
    return 0;
}

/** One subcommand: the flags it accepts (knob flags included). */
struct Command
{
    const char* name;
    std::set<std::string> flags;
    int (*run)(const Flags&, const core::RuntimeOptions&);
};

/** Flags of `serve` and `report`. */
std::set<std::string>
serveFlags()
{
    return withWorkloadFlags(
        {"model", "device", "gpu", "platform", "rate", "requests",
         "max-batch", "max-wait", "seed", "continuous", "batching",
         "batch-max", "kv-blocks", "prefix-cache", "json", "trace-out",
         "report-out", "telemetry-port", "prom-out", "linger", "probe",
         "slo-ttft-ms", "slo-tpot-ms", "slo-e2e-ms", "slo-budget",
         "threads", "counters", "wquant", "profile-hz", "profile-out",
         "flightrec-out", "flightrec-events", "flightrec-zscore",
         "flightrec-burn-rate"});
}

const std::vector<Command>&
commands()
{
    static const std::vector<Command> kCommands = {
        {"run",
         withWorkloadFlags({"model", "platform", "json", "attribution",
                            "trace-out", "report-out", "counters",
                            "wquant", "profile-hz", "profile-out",
                            "profile-reps", "flightrec-out",
                            "flightrec-events", "batching",
                            "batch-max", "kv-blocks", "prefix-cache"}),
         cmdRun},
        {"serve", serveFlags(),
         [](const Flags& f, const core::RuntimeOptions& rt) {
             return cmdServe(f, rt, /*report_mode=*/false);
         }},
        {"report", serveFlags(),
         [](const Flags& f, const core::RuntimeOptions& rt) {
             return cmdServe(f, rt, /*report_mode=*/true);
         }},
        {"profile",
         {"collapsed", "flightrec", "perfetto-out", "top", "json"},
         cmdProfile},
        {"compare", withWorkloadFlags({"model"}), cmdCompare},
        {"bench", {"out", "quick", "threads", "counters"}, cmdBench},
        {"counters",
         withWorkloadFlags({"model", "platform", "counters", "json",
                            "out", "threads"}),
         cmdCounters},
        {"findings", {}, cmdFindings},
        {"list", {}, cmdList},
    };
    return kCommands;
}

void
usage()
{
    std::cout
        << "usage: cpullm <command> [flags]\n"
           "  run      --model M --platform P --batch N [--prompt N]\n"
           "           [--gen N] [--dtype bf16|i8] [--json]\n"
           "           [--trace-out F] [--report-out F]\n"
           "           [--profile-hz HZ] [--profile-out F]\n"
           "           [--profile-reps N] [--flightrec-out F]\n"
           "           [--flightrec-events N]\n"
           "           [--batching static|continuous]\n"
           "  serve    --model M [--device cpu|gpu] [--gpu a100|h100]\n"
           "           [--platform P] [--rate R] [--requests N]\n"
           "           [--max-batch B] [--max-wait S] [--seed N]\n"
           "           [--continuous] [--json]\n"
           "           [--batching static|continuous]\n"
           "           [--trace-out F] [--report-out F]\n"
           "           [--telemetry-port P] [--prom-out F]\n"
           "           [--linger S] [--probe] [--slo-ttft-ms X]\n"
           "           [--slo-tpot-ms X] [--slo-e2e-ms X]\n"
           "           [--slo-budget R]\n"
           "           [--profile-hz HZ] [--profile-out F]\n"
           "           [--flightrec-out F] [--flightrec-events N]\n"
           "           [--flightrec-zscore Z] [--flightrec-burn-rate R]\n"
           "  report   serve, printing the JSON run report on stdout\n"
           "  profile  [--collapsed F] [--flightrec F] [--top N]\n"
           "           [--perfetto-out F] [--json]\n"
           "           report over profiling artifacts\n"
           "  compare  --model M --batch N [--prompt N] [--gen N]\n"
           "  bench    [--out DIR] [--quick]\n"
           "           write BENCH_*.json baselines (bench_diff)\n"
           "  counters [--model tiny] [--platform P] [--batch N]\n"
           "           [--prompt N] [--gen N] [--json] [--out F]\n"
           "           measured vs modeled hardware counters on the\n"
           "           functional host path\n"
           "  findings validate the paper's five key findings\n"
           "  list     known models and platforms\n"
           "\n"
           "runtime knobs: flag / env var: values (default). Every\n"
           "command reads every env var; a flag, on the commands listed\n"
           "for it, overrides its env var; a malformed value exits 2.\n";
    for (const core::RuntimeOption& row : core::runtimeOptionTable()) {
        std::string on;
        for (const Command& c : commands()) {
            if (row.flag != nullptr && c.flags.count(row.flag))
                on += std::string(" ") + c.name;
        }
        std::cout << "  "
                  << (row.flag ? "--" + std::string(row.flag) + " / "
                               : std::string())
                  << row.env << ": " << row.values << " ("
                  << row.show(core::RuntimeOptions{}) << ")\n      "
                  << row.help << "\n";
        if (!on.empty())
            std::cout << "      flag on:" << on << "\n";
    }
    std::cout
        << "`counters` defaults --counters to auto. The perf backend\n"
           "needs perf_event_paranoid <= 2 and degrades to the\n"
           "rusage-based soft backend otherwise.\n"
           "--batching continuous runs the continuous-batching host\n"
           "runtime (iteration-level scheduling, paged-KV pool,\n"
           "shared-prefix reuse) on the functional model; results\n"
           "surface as host.batch.* report metrics and\n"
           "cpullm_host_batch_* /metrics series (README \"Host\n"
           "series\" lists every host.* key).\n"
           "--profile-hz samples logical stacks with SIGPROF;\n"
           "--flightrec-out records the last N events and dumps them\n"
           "at exit, on crash, and (serve) on SLO incidents.\n";
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        usage();
        return kUsageExit;
    }
    const std::string name = argv[1];
    if (name == "--help" || name == "-h" || name == "help") {
        usage();
        return 0;
    }
    const auto& cmds = commands();
    const auto cmd =
        std::find_if(cmds.begin(), cmds.end(),
                     [&](const Command& c) { return name == c.name; });
    if (cmd == cmds.end())
        usageError("unknown command '" + name + "'");
    const Flags flags = parseFlags(argc, argv, 2, cmd->flags);
    // Every command reads every knob's env var, so a malformed one
    // fails even `cpullm list`. `counters` measures, so its counter
    // backend defaults to auto.
    core::RuntimeOptions defaults;
    if (name == "counters")
        defaults.counters = obs::pmu::Mode::Auto;
    const core::RuntimeOptions rt =
        core::resolveRuntimeOptions("cpullm", flags, defaults);
    core::applyProcessWide(rt);
    // The main thread's registry slot: profiler samples and flight-
    // recorder events on this thread attribute to "main".
    threadreg::registerCurrentThread("main");
    return cmd->run(flags, rt);
}
