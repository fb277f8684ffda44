#include "obs/perf_events.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

#if defined(__linux__)
#include <dirent.h>
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#define CPULLM_HAVE_PERF_EVENTS 1
#else
#define CPULLM_HAVE_PERF_EVENTS 0
#endif

namespace cpullm {
namespace obs {
namespace pmu {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double
addField(double a, double b)
{
    if (std::isnan(a))
        return b;
    if (std::isnan(b))
        return a;
    return a + b;
}

double
subField(double end, double start)
{
    if (std::isnan(end) || std::isnan(start))
        return kNaN;
    return end - start;
}

std::int64_t
monotonicNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

const char* const kParanoidPath =
    "/proc/sys/kernel/perf_event_paranoid";

bool
modeFromString(const std::string& s, Mode* out)
{
    if (s == "auto")
        *out = Mode::Auto;
    else if (s == "perf")
        *out = Mode::Perf;
    else if (s == "soft")
        *out = Mode::Soft;
    else if (s == "off")
        *out = Mode::Off;
    else
        return false;
    return true;
}

const char*
modeName(Mode m)
{
    switch (m) {
      case Mode::Auto: return "auto";
      case Mode::Perf: return "perf";
      case Mode::Soft: return "soft";
      case Mode::Off: return "off";
    }
    return "off";
}

const char*
backendName(Backend b)
{
    switch (b) {
      case Backend::Perf: return "perf";
      case Backend::Soft: return "soft";
      case Backend::Disabled: return "disabled";
    }
    return "disabled";
}

PmuCounts
PmuCounts::unavailable()
{
    PmuCounts c;
    c.wallNs = kNaN;
    c.taskClockNs = kNaN;
    c.cycles = kNaN;
    c.instructions = kNaN;
    c.llcMisses = kNaN;
    c.llcReferences = kNaN;
    c.branchMisses = kNaN;
    c.pageFaults = kNaN;
    c.contextSwitches = kNaN;
    c.imcReadBytes = kNaN;
    c.imcWriteBytes = kNaN;
    return c;
}

PmuCounts&
PmuCounts::operator+=(const PmuCounts& o)
{
    wallNs = addField(wallNs, o.wallNs);
    taskClockNs = addField(taskClockNs, o.taskClockNs);
    cycles = addField(cycles, o.cycles);
    instructions = addField(instructions, o.instructions);
    llcMisses = addField(llcMisses, o.llcMisses);
    llcReferences = addField(llcReferences, o.llcReferences);
    branchMisses = addField(branchMisses, o.branchMisses);
    pageFaults = addField(pageFaults, o.pageFaults);
    contextSwitches = addField(contextSwitches, o.contextSwitches);
    imcReadBytes = addField(imcReadBytes, o.imcReadBytes);
    imcWriteBytes = addField(imcWriteBytes, o.imcWriteBytes);
    return *this;
}

PmuCounts
PmuCounts::minus(const PmuCounts& start) const
{
    PmuCounts d;
    d.wallNs = subField(wallNs, start.wallNs);
    d.taskClockNs = subField(taskClockNs, start.taskClockNs);
    d.cycles = subField(cycles, start.cycles);
    d.instructions = subField(instructions, start.instructions);
    d.llcMisses = subField(llcMisses, start.llcMisses);
    d.llcReferences = subField(llcReferences, start.llcReferences);
    d.branchMisses = subField(branchMisses, start.branchMisses);
    d.pageFaults = subField(pageFaults, start.pageFaults);
    d.contextSwitches =
        subField(contextSwitches, start.contextSwitches);
    d.imcReadBytes = subField(imcReadBytes, start.imcReadBytes);
    d.imcWriteBytes = subField(imcWriteBytes, start.imcWriteBytes);
    return d;
}

double
multiplexScale(std::uint64_t value, std::uint64_t time_enabled,
               std::uint64_t time_running)
{
    if (time_running == 0)
        return kNaN;
    if (time_running >= time_enabled)
        return static_cast<double>(value);
    return static_cast<double>(value) *
           (static_cast<double>(time_enabled) /
            static_cast<double>(time_running));
}

bool
parseGroupReadBuffer(const std::uint64_t* words, std::size_t n_words,
                     GroupReading* out)
{
    *out = GroupReading{};
    if (!words || n_words < 3)
        return false;
    const std::uint64_t nr = words[0];
    // Each event contributes {value, id}, so a well-formed read is
    // exactly 3 + 2*nr words. A mismatch either way means a corrupt
    // or foreign buffer, not a counter group we opened.
    if (nr > 1024 || n_words != 3 + 2 * nr)
        return false;
    out->timeEnabled = words[1];
    out->timeRunning = words[2];
    out->values.reserve(nr);
    for (std::uint64_t i = 0; i < nr; ++i)
        out->values.emplace_back(words[3 + 2 * i + 1],
                                 words[3 + 2 * i]);
    return true;
}

// ---------------------------------------------------------------------------
// Probing and backend selection
// ---------------------------------------------------------------------------

namespace {

#if CPULLM_HAVE_PERF_EVENTS

/** perf_event_open wrapper (no glibc stub exists). */
int
perfEventOpen(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
              unsigned long flags)
{
    return static_cast<int>(
        syscall(__NR_perf_event_open, attr, pid, cpu, group_fd,
                flags));
}

perf_event_attr
baseAttr(std::uint32_t type, std::uint64_t config)
{
    perf_event_attr a;
    std::memset(&a, 0, sizeof a);
    a.type = type;
    a.size = sizeof a;
    a.config = config;
    a.exclude_kernel = 1;
    a.exclude_hv = 1;
    a.read_format = PERF_FORMAT_GROUP |
                    PERF_FORMAT_TOTAL_TIME_ENABLED |
                    PERF_FORMAT_TOTAL_TIME_RUNNING | PERF_FORMAT_ID;
    return a;
}

/** True when a throwaway software counter group opens on this
 *  thread: catches seccomp EPERM and CONFIG_PERF_EVENTS=n kernels
 *  that a fine-looking paranoid level would hide. */
bool
trySyscallProbe()
{
    perf_event_attr a =
        baseAttr(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK);
    a.disabled = 1;
    const int fd = perfEventOpen(&a, 0, -1, -1, 0);
    if (fd < 0)
        return false;
    close(fd);
    return true;
}

#else // !CPULLM_HAVE_PERF_EVENTS

bool
trySyscallProbe()
{
    return false;
}

#endif

} // namespace

PerfProbe
probePerf(const std::string& paranoid_path)
{
    PerfProbe p;
    std::ifstream ifs(paranoid_path);
    int level = 3;
    if (ifs && (ifs >> level))
        p.paranoid = level;
    else
        p.paranoid = 3;
    p.paranoidOk = p.paranoid <= 2;
    p.syscallOk = p.paranoidOk && trySyscallProbe();
    return p;
}

Backend
chooseBackend(Mode mode, const PerfProbe& probe)
{
    switch (mode) {
      case Mode::Off:
        return Backend::Disabled;
      case Mode::Soft:
        return Backend::Soft;
      case Mode::Auto:
        return probe.syscallOk ? Backend::Perf : Backend::Soft;
      case Mode::Perf:
        if (probe.syscallOk)
            return Backend::Perf;
        warn("perf events unavailable (perf_event_paranoid=",
             probe.paranoid,
             "); degrading to the software counter backend");
        return Backend::Soft;
    }
    return Backend::Disabled;
}

// ---------------------------------------------------------------------------
// Counter groups
// ---------------------------------------------------------------------------

/** Which PmuCounts field a group member feeds. */
enum class EventSlot {
    TaskClock,
    Cycles,
    Instructions,
    LlcMisses,
    LlcReferences,
    BranchMisses,
    PageFaults,
    ContextSwitches,
};

struct Session::Impl
{
    /** When begin() activated the session: readAll()'s wall time. */
    std::int64_t beginNs = monotonicNs();

#if CPULLM_HAVE_PERF_EVENTS
    /** One per-thread counter group: leader fd + member slots. */
    struct Group
    {
        int leaderFd = -1;
        /** Group order -> PmuCounts field. */
        std::vector<EventSlot> slots;
    };

    std::vector<Group> groups;
    int hardwareEvents = 0;

    /** Uncore IMC CAS counters (system-wide; usually privileged). */
    struct ImcEvent
    {
        int fd = -1;
        double bytesPerCount = 64.0;
        bool write = false;
    };
    std::vector<ImcEvent> imc;

    /** rusage baseline for the soft backend. */
    double softBaseTaskClockNs = 0.0;
    double softBaseFaults = 0.0;
    double softBaseCtxSw = 0.0;

    ~Impl() { closeAll(); }

    void
    closeAll()
    {
        for (Group& g : groups)
            if (g.leaderFd >= 0)
                close(g.leaderFd);
        groups.clear();
        for (ImcEvent& e : imc)
            if (e.fd >= 0)
                close(e.fd);
        imc.clear();
    }

    /**
     * Open one counter group for @p tid. The software task-clock
     * leads (it opens wherever the syscall is allowed); hardware
     * members that fail individually (ENOENT without a vPMU) are
     * skipped. Member fds are owned by the leader group: the kernel
     * keeps them alive until the leader closes, and we close every
     * fd through the group list below.
     */
    bool
    openGroup(pid_t tid)
    {
        Group g;
        perf_event_attr lead =
            baseAttr(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK);
        lead.disabled = 1;
        g.leaderFd = perfEventOpen(&lead, tid, -1, -1, 0);
        if (g.leaderFd < 0)
            return false;
        g.slots.push_back(EventSlot::TaskClock);
        memberFds.clear();

        struct Want
        {
            std::uint32_t type;
            std::uint64_t config;
            EventSlot slot;
            bool hardware;
        };
        const Want wants[] = {
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES,
             EventSlot::Cycles, true},
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS,
             EventSlot::Instructions, true},
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES,
             EventSlot::LlcMisses, true},
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES,
             EventSlot::LlcReferences, true},
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES,
             EventSlot::BranchMisses, true},
            {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS,
             EventSlot::PageFaults, false},
            {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES,
             EventSlot::ContextSwitches, false},
        };
        int hw = 0;
        for (const Want& w : wants) {
            perf_event_attr a = baseAttr(w.type, w.config);
            const int fd =
                perfEventOpen(&a, tid, -1, g.leaderFd, 0);
            if (fd < 0)
                continue;
            memberFds.push_back(fd);
            g.slots.push_back(w.slot);
            if (w.hardware)
                ++hw;
        }
        if (groups.empty())
            hardwareEvents = hw;
        ioctl(g.leaderFd, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
        ioctl(g.leaderFd, PERF_EVENT_IOC_ENABLE,
              PERF_IOC_FLAG_GROUP);
        groups.push_back(std::move(g));
        return true;
    }

    /** Member fds of the group being opened; closed when the session
     *  ends via leader close + these explicit closes. */
    std::vector<int> memberFds;
    std::vector<int> allMemberFds;

    void
    openAllThreadGroups()
    {
        DIR* dir = opendir("/proc/self/task");
        if (!dir) {
            openGroup(0);
            allMemberFds.insert(allMemberFds.end(),
                                memberFds.begin(), memberFds.end());
            return;
        }
        while (dirent* de = readdir(dir)) {
            if (de->d_name[0] == '.')
                continue;
            const pid_t tid =
                static_cast<pid_t>(std::atol(de->d_name));
            if (tid <= 0)
                continue;
            if (openGroup(tid))
                allMemberFds.insert(allMemberFds.end(),
                                    memberFds.begin(),
                                    memberFds.end());
        }
        closedir(dir);
    }

    /**
     * Best-effort uncore IMC CAS read/write counters: scan
     * /sys/bus/event_source/devices/uncore_imc*, parse the event and
     * scale descriptors, and open system-wide per-device counters.
     * Requires CAP_PERFMON or paranoid <= 0; silently absent
     * otherwise.
     */
    void
    openImc()
    {
        DIR* dir = opendir("/sys/bus/event_source/devices");
        if (!dir)
            return;
        while (dirent* de = readdir(dir)) {
            const std::string name = de->d_name;
            if (name.rfind("uncore_imc", 0) != 0)
                continue;
            const std::string base =
                "/sys/bus/event_source/devices/" + name;
            std::uint32_t type = 0;
            {
                std::ifstream ifs(base + "/type");
                if (!(ifs >> type))
                    continue;
            }
            for (const bool is_write : {false, true}) {
                const std::string ev =
                    is_write ? "cas_count_write" : "cas_count_read";
                std::uint64_t config = 0;
                if (!parseSysfsEventConfig(base + "/events/" + ev,
                                           &config))
                    continue;
                double scale_mib = 0.0;
                {
                    std::ifstream ifs(base + "/events/" + ev +
                                      ".scale");
                    ifs >> scale_mib;
                }
                perf_event_attr a = baseAttr(type, config);
                a.exclude_kernel = 0; // uncore has no cpl filter
                a.exclude_hv = 0;
                // System-wide on cpu 0 (CAS counts are per-IMC, not
                // per-cpu; one cpu per device is the convention).
                const int fd = perfEventOpen(&a, -1, 0, -1, 0);
                if (fd < 0)
                    continue;
                ImcEvent e;
                e.fd = fd;
                e.write = is_write;
                e.bytesPerCount = scale_mib > 0.0
                                      ? scale_mib * 1048576.0
                                      : 64.0;
                ioctl(fd, PERF_EVENT_IOC_RESET, 0);
                ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);
                imc.push_back(e);
            }
        }
        closedir(dir);
    }

    /** Parse "event=0x04,umask=0x03" sysfs descriptors. */
    static bool
    parseSysfsEventConfig(const std::string& path,
                          std::uint64_t* config)
    {
        std::ifstream ifs(path);
        if (!ifs)
            return false;
        std::string text;
        std::getline(ifs, text);
        std::uint64_t cfg = 0;
        std::stringstream ss(text);
        std::string term;
        bool any = false;
        while (std::getline(ss, term, ',')) {
            const auto eq = term.find('=');
            if (eq == std::string::npos)
                continue;
            const std::string key = term.substr(0, eq);
            const std::uint64_t val =
                std::strtoull(term.substr(eq + 1).c_str(), nullptr,
                              0);
            if (key == "event") {
                cfg |= val;
                any = true;
            } else if (key == "umask") {
                cfg |= val << 8;
            }
        }
        *config = cfg;
        return any;
    }

    PmuCounts
    readPerf() const
    {
        PmuCounts total = PmuCounts::unavailable();
        for (const Group& g : groups) {
            std::uint64_t buf[3 + 2 * 16];
            const ssize_t n = read(g.leaderFd, buf, sizeof buf);
            if (n < 0)
                continue;
            GroupReading r;
            if (!parseGroupReadBuffer(
                    buf, static_cast<std::size_t>(n) / 8, &r))
                continue;
            if (r.values.size() != g.slots.size())
                continue;
            for (std::size_t i = 0; i < g.slots.size(); ++i) {
                const double v = multiplexScale(r.values[i].second,
                                                r.timeEnabled,
                                                r.timeRunning);
                double* field = nullptr;
                switch (g.slots[i]) {
                  case EventSlot::TaskClock:
                    field = &total.taskClockNs; break;
                  case EventSlot::Cycles:
                    field = &total.cycles; break;
                  case EventSlot::Instructions:
                    field = &total.instructions; break;
                  case EventSlot::LlcMisses:
                    field = &total.llcMisses; break;
                  case EventSlot::LlcReferences:
                    field = &total.llcReferences; break;
                  case EventSlot::BranchMisses:
                    field = &total.branchMisses; break;
                  case EventSlot::PageFaults:
                    field = &total.pageFaults; break;
                  case EventSlot::ContextSwitches:
                    field = &total.contextSwitches; break;
                }
                if (field)
                    *field = addField(*field, v);
            }
        }
        for (const ImcEvent& e : imc) {
            std::uint64_t buf[3 + 2];
            const ssize_t n = read(e.fd, buf, sizeof buf);
            if (n < 0)
                continue;
            GroupReading r;
            if (!parseGroupReadBuffer(
                    buf, static_cast<std::size_t>(n) / 8, &r) ||
                r.values.empty())
                continue;
            const double v = multiplexScale(r.values[0].second,
                                            r.timeEnabled,
                                            r.timeRunning);
            double* field =
                e.write ? &total.imcWriteBytes : &total.imcReadBytes;
            *field = addField(*field,
                              std::isnan(v) ? v
                                            : v * e.bytesPerCount);
        }
        return total;
    }

    static PmuCounts
    readSoft(double base_task_clock_ns, double base_faults,
             double base_ctxsw)
    {
        PmuCounts c = PmuCounts::unavailable();
        rusage ru;
        if (getrusage(RUSAGE_SELF, &ru) != 0)
            return c;
        const double task_ns =
            (static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_stime.tv_sec)) *
                1e9 +
            (static_cast<double>(ru.ru_utime.tv_usec) +
             static_cast<double>(ru.ru_stime.tv_usec)) *
                1e3;
        c.taskClockNs = task_ns - base_task_clock_ns;
        c.pageFaults = static_cast<double>(ru.ru_minflt + ru.ru_majflt) -
                       base_faults;
        c.contextSwitches =
            static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw) -
            base_ctxsw;
        return c;
    }
#else
    int hardwareEvents = 0;
    double softBaseTaskClockNs = 0.0;
    double softBaseFaults = 0.0;
    double softBaseCtxSw = 0.0;
    void closeAll() {}
#endif
};

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session&
Session::instance()
{
    static Session* session = new Session();
    return *session;
}

Backend
Session::begin(Mode mode)
{
    return begin(mode, probePerf());
}

Backend
Session::begin(Mode mode, const PerfProbe& probe)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (active_)
        return backend_;
    probe_ = probe;
    backend_ = chooseBackend(mode, probe);
    if (backend_ == Backend::Disabled)
        return backend_;
    impl_ = std::make_unique<Impl>();
#if CPULLM_HAVE_PERF_EVENTS
    if (backend_ == Backend::Perf) {
        // The persistent pool's workers must exist before the
        // per-thread enumeration, or the lanes doing the real kernel
        // work would go unmeasured.
        ThreadPool::instance();
        impl_->openAllThreadGroups();
        impl_->openImc();
        if (impl_->groups.empty()) {
            // Probe said yes but every group failed (e.g. the
            // paranoid level changed underneath us): fall through to
            // the software backend rather than report zeros.
            warn("perf counter groups failed to open; degrading to "
                 "the software counter backend");
            backend_ = Backend::Soft;
        }
    }
    if (backend_ == Backend::Soft) {
        rusage ru;
        if (getrusage(RUSAGE_SELF, &ru) == 0) {
            impl_->softBaseTaskClockNs =
                (static_cast<double>(ru.ru_utime.tv_sec) +
                 static_cast<double>(ru.ru_stime.tv_sec)) *
                    1e9 +
                (static_cast<double>(ru.ru_utime.tv_usec) +
                 static_cast<double>(ru.ru_stime.tv_usec)) *
                    1e3;
            impl_->softBaseFaults =
                static_cast<double>(ru.ru_minflt + ru.ru_majflt);
            impl_->softBaseCtxSw =
                static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
        }
    }
#else
    backend_ = Backend::Disabled;
    impl_.reset();
    if (mode != Mode::Off)
        warn("hardware counters are only supported on Linux");
    if (backend_ == Backend::Disabled)
        return backend_;
#endif
    active_ = true;
    return backend_;
}

void
Session::end()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!active_)
        return;
    impl_.reset();
    active_ = false;
    backend_ = Backend::Disabled;
}

bool
Session::active() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return active_;
}

Backend
Session::backend() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return backend_;
}

PerfProbe
Session::probe() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return probe_;
}

int
Session::hardwareEventsOpen() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return impl_ ? impl_->hardwareEvents : 0;
}

std::size_t
Session::threadGroups() const
{
    std::lock_guard<std::mutex> lock(mu_);
#if CPULLM_HAVE_PERF_EVENTS
    return impl_ ? impl_->groups.size() : 0;
#else
    return 0;
#endif
}

bool
Session::imcOpen() const
{
    std::lock_guard<std::mutex> lock(mu_);
#if CPULLM_HAVE_PERF_EVENTS
    return impl_ && !impl_->imc.empty();
#else
    return false;
#endif
}

PmuCounts
Session::readAll() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!active_ || !impl_)
        return PmuCounts::unavailable();
    PmuCounts c = PmuCounts::unavailable();
#if CPULLM_HAVE_PERF_EVENTS
    if (backend_ == Backend::Perf)
        c = impl_->readPerf();
    else if (backend_ == Backend::Soft)
        c = Impl::readSoft(impl_->softBaseTaskClockNs,
                           impl_->softBaseFaults,
                           impl_->softBaseCtxSw);
#endif
    c.wallNs = static_cast<double>(monotonicNs() - impl_->beginNs);
    return c;
}

void
Session::add(const std::string& name, const PmuCounts& delta)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(name);
    if (it == slots_.end())
        slots_.emplace(name, delta);
    else
        it->second += delta;
}

PmuCounts
Session::slot(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(name);
    return it == slots_.end() ? PmuCounts::unavailable()
                              : it->second;
}

std::vector<std::string>
Session::slotNames() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names;
    names.reserve(slots_.size());
    for (const auto& [name, counts] : slots_)
        names.push_back(name);
    return names;
}

std::map<std::string, PmuCounts>
Session::takeSlots()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, PmuCounts> out;
    out.swap(slots_);
    return out;
}

void
Session::clearSlots()
{
    std::lock_guard<std::mutex> lock(mu_);
    slots_.clear();
}

// ---------------------------------------------------------------------------
// CounterScope
// ---------------------------------------------------------------------------

CounterScope::CounterScope(std::string slot, Span* span)
    : slot_(std::move(slot)), span_(span)
{
    Session& s = Session::instance();
    if (!s.active())
        return;
    active_ = true;
    start_ = s.readAll();
    startNs_ = monotonicNs();
}

CounterScope::~CounterScope()
{
    close();
}

void
CounterScope::close()
{
    if (!active_)
        return;
    active_ = false;
    Session& s = Session::instance();
    delta_ = s.readAll().minus(start_);
    delta_.wallNs = static_cast<double>(monotonicNs() - startNs_);
    s.add(slot_, delta_);
    flightrec::record(flightrec::EventType::Pmu, slot_.c_str(),
                      static_cast<std::int64_t>(delta_.cycles),
                      static_cast<std::int64_t>(delta_.instructions));
    if (span_ && span_->active()) {
        auto annotate = [this](const char* key, double v) {
            if (std::isfinite(v))
                span_->annotate(key, v);
        };
        annotate("pmu.task_clock_ms", delta_.taskClockNs / 1e6);
        annotate("pmu.cycles", delta_.cycles);
        annotate("pmu.instructions", delta_.instructions);
        annotate("pmu.llc_misses", delta_.llcMisses);
        annotate("pmu.llc_references", delta_.llcReferences);
        annotate("pmu.branch_misses", delta_.branchMisses);
        annotate("pmu.page_faults", delta_.pageFaults);
        annotate("pmu.context_switches", delta_.contextSwitches);
    }
}

} // namespace pmu
} // namespace obs
} // namespace cpullm
