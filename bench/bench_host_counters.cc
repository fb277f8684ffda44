/**
 * @file
 * Measured-hardware-counter micro-bench: runs the tiny functional
 * model (prefill + decode on the real host kernels) under a
 * pmu::Session and emits BENCH_host_counters.json for bench_diff.
 *
 * Raw counts are machine-bound, so the committed baseline keeps only
 * machine-relative facts — completion/availability flags and the
 * paper's trend booleans (decode MPKI > prefill MPKI, decode MPKI
 * falling with batch, prefill IPC > decode IPC) — evaluated as 0/1
 * metrics. Hardware trends are emitted only when hardware events
 * actually opened; on PMU-less machines and under --counters soft
 * they are simply absent, which bench_diff reports as notes, not
 * failures. The CI counters-smoke job runs with --counters soft so
 * the committed baseline is reproducible in unprivileged containers.
 *
 *  - --out DIR:          every metric, incl. machine-bound measured
 *                        IPC/MPKI/GB/s per batch.
 *  - --baseline-out DIR: only the ok/, avail/ and trend/ metrics,
 *                        which is what bench/baselines/host commits.
 *
 * Exit codes: 0 ok, 1 on I/O failure, 2 on usage errors.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/bench_suite.h"
#include "core/runtime_options.h"
#include "engine/inference_engine.h"
#include "hw/platform.h"
#include "model/spec.h"
#include "obs/counters.h"
#include "obs/perf_events.h"
#include "util/table.h"

namespace {

using namespace cpullm;

constexpr int kUsageExit = 2;

void
usage(std::ostream& os)
{
    os << "usage: bench_host_counters [--quick] [--out DIR]\n"
          "                           [--baseline-out DIR]\n"
          "                           [--threads N]\n"
          "                           [--counters auto|perf|soft]\n"
          "\n"
          "Measured hardware counters of the functional host path\n"
          "(tiny model, batches 1 and 8), with the paper's Fig 11/12\n"
          "trend booleans evaluated on the measured numbers.\n"
          "\n"
          "  --quick           shorter run (the CI smoke settings)\n"
          "  --out DIR         write BENCH_host_counters.json (all\n"
          "                    metrics, incl. machine-bound counts)\n"
          "  --baseline-out DIR  write only machine-relative metrics\n"
          "                    (ok/*, avail/*, trend/*)\n"
          "  --threads N       cap host threads (also CPULLM_THREADS)\n"
          "  --counters MODE   backend: auto (default), perf, soft\n"
          "                    (also CPULLM_COUNTERS; off is a usage\n"
          "                    error here — this bench measures)\n";
}

[[noreturn]] void
usageError(const std::string& msg)
{
    std::cerr << "bench_host_counters: " << msg << "\n\n";
    usage(std::cerr);
    std::exit(kUsageExit);
}

/** 1.0 / 0.0 for the boolean trend metrics. */
double
asMetric(bool b)
{
    return b ? 1.0 : 0.0;
}

std::string
fmt(double v)
{
    if (!std::isfinite(v))
        return "n/a";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3g", v);
    return buf;
}

struct PhaseMeasurement
{
    obs::pmu::PmuCounts counts;
    obs::CounterMetrics metrics;
};

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_dir;
    std::string baseline_dir;

    core::FlagValues knobs;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> std::string {
            if (i + 1 >= argc)
                usageError(std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--out") {
            out_dir = value("--out");
        } else if (arg == "--baseline-out") {
            baseline_dir = value("--baseline-out");
        } else if (arg == "--threads" || arg == "--counters") {
            knobs[arg.substr(2)] = value(arg.c_str());
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            usageError("unknown flag: " + arg);
        }
    }
    core::RuntimeOptions defaults;
    defaults.counters = obs::pmu::Mode::Auto; // this bench measures
    const core::RuntimeOptions rt =
        core::resolveRuntimeOptions("bench_host_counters", knobs, defaults);
    core::applyProcessWide(rt);
    if (rt.counters == obs::pmu::Mode::Off)
        usageError("this bench measures counters; --counters off "
                   "leaves nothing to do");

    const auto run_started = std::chrono::steady_clock::now();
    core::BenchBaseline full;
    full.id = "host_counters";
    full.title = "Measured hardware counters of the functional host "
                 "path: availability and Fig 11/12 trend booleans";

    const model::ModelSpec spec = model::modelByName("tiny");
    perf::Workload w;
    w.promptLen = quick ? 16 : 32;
    w.genLen = quick ? 16 : 32;
    // Keep each batch's decode window long enough that even the
    // coarse rusage clock of the soft backend sees nonzero CPU time.
    const double min_decode_wall_ns = quick ? 10e6 : 40e6;
    const int max_reps = quick ? 3 : 6;

    obs::pmu::Session& session = obs::pmu::Session::instance();
    const obs::pmu::Backend backend = session.begin(rt.counters);
    const obs::pmu::PerfProbe probe = session.probe();
    const int hw_events = session.hardwareEventsOpen();
    const bool imc = session.imcOpen();

    const std::vector<std::int64_t> batches = {1, 8};
    std::vector<PhaseMeasurement> prefills, decodes;
    for (const std::int64_t b : batches) {
        w.batch = b;
        engine::CpuInferenceEngine eng(
            hw::sprDefaultPlatform(), spec,
            engine::ExecutionMode::FunctionalAndTiming);
        session.clearSlots();
        for (int rep = 0; rep < max_reps; ++rep) {
            (void)eng.infer(w);
            if (session.slot("decode").wallNs >= min_decode_wall_ns)
                break;
        }
        PhaseMeasurement pre, dec;
        pre.counts = session.slot("prefill");
        dec.counts = session.slot("decode");
        // Tokens per engine rep cancel out of the ratio metrics the
        // trends use; per-token numbers use the accumulated totals
        // and so describe "per generated token" exactly.
        pre.metrics = obs::deriveCounterMetrics(
            pre.counts, static_cast<double>(b));
        dec.metrics = obs::deriveCounterMetrics(
            dec.counts,
            static_cast<double>(b) *
                static_cast<double>(w.genLen - 1));
        prefills.push_back(pre);
        decodes.push_back(dec);

        const std::string tag = "b" + std::to_string(b);
        auto finiteMetric = [&](const std::string& key, double v) {
            // BenchBaseline JSON has no null; unavailable metrics
            // are omitted rather than faked.
            if (std::isfinite(v))
                full.metrics[key] = v;
        };
        finiteMetric("measured/" + tag + "_prefill_ipc",
                     pre.metrics.ipc);
        finiteMetric("measured/" + tag + "_decode_ipc",
                     dec.metrics.ipc);
        finiteMetric("measured/" + tag + "_prefill_llc_mpki",
                     pre.metrics.llcMpki);
        finiteMetric("measured/" + tag + "_decode_llc_mpki",
                     dec.metrics.llcMpki);
        finiteMetric("measured/" + tag + "_decode_gbps",
                     dec.metrics.gbps);
        finiteMetric("wall/" + tag + "_decode_ms",
                     dec.counts.wallNs / 1e6);
        finiteMetric("wall/" + tag + "_decode_task_clock_ms",
                     dec.counts.taskClockNs / 1e6);
    }
    session.end();

    // Machine-relative facts: did the run complete, what opened, and
    // the paper's trends on the measured numbers. Hardware trends
    // need hardware events; when none opened (soft backend, PMU-less
    // VM) they are omitted entirely.
    full.metrics["ok/completed"] = 1.0;
    full.metrics["ok/backend_selected"] =
        asMetric(backend != obs::pmu::Backend::Disabled);
    full.metrics["avail/hw_events"] = static_cast<double>(hw_events);
    full.metrics["avail/imc"] = asMetric(imc);
    full.metrics["trend/task_clock_positive"] =
        asMetric(decodes[0].counts.taskClockNs > 0.0);
    full.metrics["trend/decode_wall_positive"] =
        asMetric(decodes[0].counts.wallNs > 0.0);
    const double pre_mpki = prefills[0].metrics.llcMpki;
    const double dec_mpki_b1 = decodes[0].metrics.llcMpki;
    const double dec_mpki_b8 = decodes[1].metrics.llcMpki;
    if (std::isfinite(pre_mpki) && std::isfinite(dec_mpki_b1))
        full.metrics["trend/decode_mpki_gt_prefill"] =
            asMetric(dec_mpki_b1 > pre_mpki);
    if (std::isfinite(dec_mpki_b1) && std::isfinite(dec_mpki_b8))
        full.metrics["trend/mpki_falls_with_batch"] =
            asMetric(dec_mpki_b8 < dec_mpki_b1);
    if (std::isfinite(prefills[0].metrics.ipc) &&
        std::isfinite(decodes[0].metrics.ipc))
        full.metrics["trend/prefill_ipc_gt_decode"] =
            asMetric(prefills[0].metrics.ipc >
                     decodes[0].metrics.ipc);

    full.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - run_started)
            .count();

    Table t({"batch", "phase", "IPC", "LLC MPKI", "GB/s",
             "task clock ms"});
    t.setCaption("measured host counters (backend " +
                 std::string(obs::pmu::backendName(backend)) + ", " +
                 std::to_string(hw_events) + " hw events, paranoid " +
                 std::to_string(probe.paranoid) + ")");
    for (std::size_t i = 0; i < batches.size(); ++i) {
        const std::string b = std::to_string(batches[i]);
        t.addRow({b, "prefill", fmt(prefills[i].metrics.ipc),
                  fmt(prefills[i].metrics.llcMpki),
                  fmt(prefills[i].metrics.gbps),
                  fmt(prefills[i].counts.taskClockNs / 1e6)});
        t.addRow({b, "decode", fmt(decodes[i].metrics.ipc),
                  fmt(decodes[i].metrics.llcMpki),
                  fmt(decodes[i].metrics.gbps),
                  fmt(decodes[i].counts.taskClockNs / 1e6)});
    }
    t.print(std::cout);

    if (!out_dir.empty()) {
        if (!core::writeBaseline(full, out_dir)) {
            std::cerr << "bench_host_counters: cannot write "
                      << out_dir << "\n";
            return 1;
        }
        std::cout << "wrote " << out_dir << "/" << full.filename()
                  << "\n";
    }
    if (!baseline_dir.empty()) {
        // Machine-relative subset only: raw counts and rates do not
        // transfer between machines, flags and trend booleans do.
        core::BenchBaseline portable = full;
        for (auto it = portable.metrics.begin();
             it != portable.metrics.end();) {
            if (it->first.rfind("ok/", 0) == 0 ||
                it->first.rfind("avail/", 0) == 0 ||
                it->first.rfind("trend/", 0) == 0)
                ++it;
            else
                it = portable.metrics.erase(it);
        }
        if (!core::writeBaseline(portable, baseline_dir)) {
            std::cerr << "bench_host_counters: cannot write "
                      << baseline_dir << "\n";
            return 1;
        }
        std::cout << "wrote " << baseline_dir << "/"
                  << portable.filename() << " (machine-relative "
                  << portable.metrics.size() << " metrics)\n";
    }
    return 0;
}
