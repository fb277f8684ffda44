#ifndef CPULLM_OBS_PERF_EVENTS_H
#define CPULLM_OBS_PERF_EVENTS_H

/**
 * @file
 * Measured hardware performance counters for the *host* execution
 * path (the functional kernels the thread pool actually runs), built
 * on Linux `perf_event_open`. This is the measured twin of the
 * analytical counter model in perf/cpu_model: the paper reads LLC
 * MPKI, IPC and bandwidth off real PMUs, and this subsystem lets the
 * repo do the same on the machine it runs on, so the modeled trends
 * (decode MPKI >> prefill MPKI, MPKI falling with batch) can be
 * checked against real kernels via `cpullm counters`.
 *
 * Design:
 *
 *  - One *counter group* per thread of the process (leader: the
 *    software task-clock event, which opens wherever perf_event_open
 *    is permitted at all; members: cycles, instructions, LLC
 *    misses/references, branch misses, page faults, context
 *    switches). Groups are opened for every tid in /proc/self/task
 *    when a Session begins — the persistent thread pool is spun up
 *    first so its workers are enumerated. Hardware members that the
 *    machine cannot provide (VMs without a vPMU return ENOENT) are
 *    skipped individually; their fields read as NaN.
 *
 *  - Group reads use PERF_FORMAT_GROUP with TOTAL_TIME_ENABLED /
 *    TOTAL_TIME_RUNNING, and every raw value is multiplex-corrected
 *    by enabled/running (see multiplexScale). time_running == 0
 *    means the event never got PMU time: the count is unknown (NaN),
 *    not zero.
 *
 *  - Fallback chain, keyed off /proc/sys/kernel/perf_event_paranoid
 *    probing plus an actual syscall probe: perf events -> software
 *    backend (getrusage: task-clock, faults, context switches) ->
 *    disabled. Forcing Mode::Perf on a machine without perf access
 *    degrades to the software backend with a warning instead of
 *    failing the run, so every build works in unprivileged CI
 *    containers. Fields a backend cannot measure are quiet NaN and
 *    surface as JSON null downstream (obs::writeRegistryJson,
 *    RunReport, `cpullm counters --json`).
 *
 *  - Optional uncore/IMC bandwidth: when the kernel exposes
 *    uncore_imc devices and the process is privileged enough to open
 *    system-wide events, DRAM CAS read/write counters are added and
 *    imcReadBytes/imcWriteBytes become real; otherwise they stay
 *    NaN and achieved GB/s falls back to the LLC-miss-line estimate.
 *
 * Scopes: CounterScope is an RAII window over the whole process
 * (sum of all per-thread groups). It nests inside obs::Span tracing —
 * pass the span and the measured deltas are attached as pmu.* span
 * args — and accumulates its delta into a named Session slot
 * ("prefill", "decode"), which is how run reports and the
 * `host.pmu.*` registry keys are fed. When no Session is active a
 * CounterScope is inert (no syscalls), so instrumented code paths
 * cost nothing by default.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cpullm {
namespace obs {

class Span;

namespace pmu {

/** Requested counter mode (CLI --counters / CPULLM_COUNTERS). */
enum class Mode {
    Auto, ///< perf events when available, else software fallback
    Perf, ///< prefer perf events; degrade to soft with a warning
    Soft, ///< rusage-based software backend only
    Off,  ///< measurement disabled
};

/** Parse "auto"/"perf"/"soft"/"off"; false on anything else. */
bool modeFromString(const std::string& s, Mode* out);
const char* modeName(Mode m);

/** Backend a Session actually selected. */
enum class Backend {
    Perf,     ///< perf_event_open counter groups
    Soft,     ///< getrusage/procfs software counters
    Disabled, ///< no measurement
};

const char* backendName(Backend b);

/**
 * Counts over one measurement interval, summed across all thread
 * groups. NaN means "not measurable on the active backend" (e.g.
 * cycles under the software fallback, IMC bytes unprivileged) and is
 * emitted as JSON null downstream — never as 0, which would fake a
 * perfect IPC or MPKI.
 */
struct PmuCounts
{
    double wallNs = 0.0;         ///< wall-clock interval
    double taskClockNs = 0.0;    ///< CPU time across threads
    double cycles = 0.0;         ///< core cycles (user space)
    double instructions = 0.0;   ///< retired instructions
    double llcMisses = 0.0;      ///< last-level cache misses
    double llcReferences = 0.0;  ///< last-level cache references
    double branchMisses = 0.0;   ///< mispredicted branches
    double pageFaults = 0.0;     ///< minor + major faults
    double contextSwitches = 0.0;
    double imcReadBytes = 0.0;   ///< uncore DRAM read traffic
    double imcWriteBytes = 0.0;  ///< uncore DRAM write traffic

    /** All-NaN counts (the "nothing measured" identity). */
    static PmuCounts unavailable();

    /**
     * NaN-absorbing accumulate: a field stays NaN only when it is
     * NaN on *both* sides, so partial availability (hardware events
     * on some reads) still sums what was measured.
     */
    PmuCounts& operator+=(const PmuCounts& o);

    /** Per-field delta (this - start); NaN where either side is. */
    PmuCounts minus(const PmuCounts& start) const;
};

/**
 * Multiplex-scaling correction: the kernel time-shares PMU slots
 * between groups, so a raw count covers only time_running of
 * time_enabled. Returns value * enabled / running — the standard
 * linear extrapolation — or NaN when running == 0 (the event never
 * counted; the value is unknown, not zero). running == enabled (no
 * multiplexing) returns the value unchanged.
 */
double multiplexScale(std::uint64_t value, std::uint64_t time_enabled,
                      std::uint64_t time_running);

/**
 * One PERF_FORMAT_GROUP read, decoded. Layout on the wire (u64
 * words): nr, time_enabled, time_running, then {value, id} per
 * event.
 */
struct GroupReading
{
    std::uint64_t timeEnabled = 0;
    std::uint64_t timeRunning = 0;
    /** (event id, raw value) in group order. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> values;
};

/**
 * Decode a group read buffer of @p n_words u64 words. False when the
 * buffer is truncated or inconsistent (nr does not match the size) —
 * callers treat that read as unavailable rather than trusting
 * garbage.
 */
bool parseGroupReadBuffer(const std::uint64_t* words,
                          std::size_t n_words, GroupReading* out);

/** Default path probed for the kernel's perf restriction level. */
extern const char* const kParanoidPath;

/** What probing the host for perf support found. */
struct PerfProbe
{
    /** perf_event_paranoid level; 3 (most restrictive) when the file
     *  is unreadable, matching kernels that lock perf down. */
    int paranoid = 3;
    /** Level permits unprivileged per-thread counting (<= 2). */
    bool paranoidOk = false;
    /** A software counter group actually opened via the syscall. */
    bool syscallOk = false;
};

/**
 * Probe perf availability: read @p paranoid_path (injectable so the
 * fallback chain is testable against a faked level) and, when the
 * level permits it, try opening a disposable software counter group.
 * seccomp filters and missing kernel support are caught by the
 * syscall probe even when the paranoid level looks fine.
 */
PerfProbe probePerf(const std::string& paranoid_path = kParanoidPath);

/**
 * The fallback chain: requested mode + probe -> backend.
 * Off -> Disabled; Soft -> Soft; Auto/Perf -> Perf when the probe
 * succeeded, else Soft (Perf additionally warns: the user asked for
 * hardware counters the machine cannot deliver, but the run must
 * still complete).
 */
Backend chooseBackend(Mode mode, const PerfProbe& probe);

/**
 * Process-wide measurement session. begin() selects a backend via
 * the fallback chain, spins up the host thread pool (so its workers
 * are enumerable) and opens one counter group per thread; end()
 * closes everything. Named slots accumulate CounterScope deltas
 * ("prefill", "decode") for reports. Thread-safe; begin/end are
 * idempotent in the obvious way (re-begin of an active session is a
 * no-op returning the current backend).
 */
class Session
{
  public:
    /** The process-wide session. */
    static Session& instance();

    /** Activate with @p mode (probing the real host). */
    Backend begin(Mode mode);

    /** Activate against an explicit probe result (tests). */
    Backend begin(Mode mode, const PerfProbe& probe);

    /** Deactivate: close all groups, keep accumulated slots. */
    void end();

    bool active() const;
    Backend backend() const;

    /** Probe result begin() acted on (meaningful while active or
     *  after the first begin). */
    PerfProbe probe() const;

    /** Distinct hardware events that opened per thread group (0 on
     *  the software backend and in PMU-less VMs). */
    int hardwareEventsOpen() const;

    /** Per-thread counter groups currently open. */
    std::size_t threadGroups() const;

    /** True when uncore IMC bandwidth counters opened. */
    bool imcOpen() const;

    /**
     * Instantaneous totals since begin(): the wall time since
     * begin(), and the sum of every thread group's
     * multiplex-corrected counts (Perf) or process rusage (Soft).
     * All-NaN when Disabled/inactive.
     */
    PmuCounts readAll() const;

    /** Fold @p delta into slot @p name (creates it). */
    void add(const std::string& name, const PmuCounts& delta);

    /** Copy of one slot; all-NaN counts when absent. */
    PmuCounts slot(const std::string& name) const;

    /** Slot names in sorted order. */
    std::vector<std::string> slotNames() const;

    /** Return all slots and clear them (per-run harvesting). */
    std::map<std::string, PmuCounts> takeSlots();

    /** Drop all accumulated slots. */
    void clearSlots();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

  private:
    Session() = default;
    friend struct SessionTestAccess;

    struct Impl;

    mutable std::mutex mu_;
    bool active_ = false;
    Backend backend_ = Backend::Disabled;
    PerfProbe probe_;
    std::unique_ptr<Impl> impl_;
    std::map<std::string, PmuCounts> slots_;
};

/**
 * RAII measurement window over the whole process. Construction
 * snapshots Session::readAll(); close() (or the destructor) takes
 * the delta, folds it into the named Session slot, and — when a span
 * was attached — annotates the span with the finite fields as
 * "pmu.<field>" args, putting measured counters next to the modeled
 * ones on the same attribution node. Inert (no syscalls at all) when
 * no Session is active.
 */
class CounterScope
{
  public:
    explicit CounterScope(std::string slot, Span* span = nullptr);
    ~CounterScope();

    CounterScope(const CounterScope&) = delete;
    CounterScope& operator=(const CounterScope&) = delete;

    /** Take the delta and record it; further closes are no-ops. */
    void close();

    /** True until closed (and only when a session was active). */
    bool active() const { return active_; }

    /** The measured delta; valid after close(). */
    const PmuCounts& counts() const { return delta_; }

  private:
    std::string slot_;
    Span* span_ = nullptr;
    bool active_ = false;
    PmuCounts start_;
    PmuCounts delta_;
    std::int64_t startNs_ = 0;
};

} // namespace pmu
} // namespace obs
} // namespace cpullm

#endif // CPULLM_OBS_PERF_EVENTS_H
