/**
 * @file
 * Flight-recorder unit + stress tests: seqlock ring semantics
 * (ordering, wraparound, torn-slot skipping), the JSONL dump/parse
 * round trip with its strict schema, the Perfetto re-export, and an
 * MPSC stress with a signal-triggered dump mid-stream — the
 * properties the post-mortem path depends on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "obs/flight_recorder.h"
#include "util/thread_registry.h"

using namespace cpullm;
using namespace cpullm::obs::flightrec;

namespace {

Record
makeRecord(std::uint32_t tid, std::uint64_t seq, const char* name,
           std::int64_t a = 0)
{
    Record r;
    r.type = static_cast<std::uint32_t>(EventType::Marker);
    r.tid = tid;
    r.seq = seq;
    r.t_ns = 1000 + seq;
    std::snprintf(r.name, sizeof(r.name), "%s", name);
    r.a = a;
    return r;
}

/** Asserts monotonically increasing seq per tid and no duplicates. */
void
checkSeqDiscipline(const std::vector<Record>& records)
{
    std::map<std::uint32_t, std::uint64_t> last;
    std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
    for (const auto& r : records) {
        EXPECT_TRUE(seen.insert({r.tid, r.seq}).second)
            << "duplicate tid=" << r.tid << " seq=" << r.seq;
        auto it = last.find(r.tid);
        if (it != last.end()) {
            EXPECT_GT(r.seq, it->second) << "tid=" << r.tid;
        }
        last[r.tid] = r.seq;
    }
}

} // namespace

TEST(FlightRecRing, RoundTripKeepsOrder)
{
    Ring ring(16);
    EXPECT_EQ(ring.capacity(), 16u);
    for (int i = 0; i < 10; ++i)
        ring.push(makeRecord(1, static_cast<std::uint64_t>(i), "m", i));
    EXPECT_EQ(ring.pushed(), 10u);
    EXPECT_EQ(ring.overwritten(), 0u);

    std::vector<Record> out;
    EXPECT_EQ(ring.snapshot(&out), 10u);
    ASSERT_EQ(out.size(), 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(out[static_cast<std::size_t>(i)].seq,
                  static_cast<std::uint64_t>(i));
        EXPECT_EQ(out[static_cast<std::size_t>(i)].a, i);
        EXPECT_STREQ(out[static_cast<std::size_t>(i)].name, "m");
    }
}

TEST(FlightRecRing, CapacityRoundsUpToPowerOfTwo)
{
    Ring ring(9);
    EXPECT_EQ(ring.capacity(), 16u);
}

TEST(FlightRecRing, WraparoundKeepsLastCapacityRecords)
{
    Ring ring(8);
    for (int i = 0; i < 20; ++i)
        ring.push(makeRecord(7, static_cast<std::uint64_t>(i), "w", i));
    EXPECT_EQ(ring.pushed(), 20u);
    EXPECT_EQ(ring.overwritten(), 12u);

    std::vector<Record> out;
    ring.snapshot(&out);
    ASSERT_EQ(out.size(), 8u);
    // Oldest-first order, holding exactly records 12..19.
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)].a, 12 + i);
}

TEST(FlightRecEventType, NameRoundTrip)
{
    for (EventType t :
         {EventType::Marker, EventType::SpanBegin, EventType::SpanEnd,
          EventType::Pmu, EventType::Telemetry, EventType::Crash}) {
        EventType back;
        ASSERT_TRUE(eventTypeFromName(eventTypeName(t), &back));
        EXPECT_EQ(back, t);
    }
    EventType dummy;
    EXPECT_FALSE(eventTypeFromName("bogus", &dummy));
    EXPECT_FALSE(eventTypeFromName("", &dummy));
}

TEST(FlightRecDump, EnableRecordDumpParseRoundTrip)
{
    threadreg::registerCurrentThread("frec-test");
    enable(64);
    ASSERT_TRUE(enabled());
    record(EventType::Marker, "alpha", 11, 22);
    record(EventType::Telemetry, "beta", 33);

    const std::string text = dumpToString();
    disable();

    ParsedDump dump;
    std::string err;
    ASSERT_TRUE(parseDump(text, &dump, &err)) << err;
    EXPECT_EQ(dump.version, kDumpVersion);
    EXPECT_GE(dump.capacity, 64u);
    EXPECT_GE(dump.records.size(), 2u);
    EXPECT_FALSE(dump.threads.empty());

    bool alpha = false, beta = false;
    for (const auto& r : dump.records) {
        if (std::string(r.name) == "alpha") {
            alpha = true;
            EXPECT_EQ(r.a, 11);
            EXPECT_EQ(r.b, 22);
            EXPECT_EQ(static_cast<EventType>(r.type),
                      EventType::Marker);
        }
        if (std::string(r.name) == "beta")
            beta = true;
    }
    EXPECT_TRUE(alpha);
    EXPECT_TRUE(beta);
    checkSeqDiscipline(dump.records);
}

TEST(FlightRecDump, RecordIsNoOpWhileDisabled)
{
    disable();
    const std::uint64_t before = pushedCount();
    record(EventType::Marker, "ignored");
    EXPECT_EQ(pushedCount(), before);
}

TEST(FlightRecDump, ParserRejectsGarbage)
{
    ParsedDump dump;
    std::string err;
    EXPECT_FALSE(parseDump("", &dump, &err));
    EXPECT_FALSE(parseDump("not json\n", &dump, &err));
    // Wrong version.
    EXPECT_FALSE(parseDump(
        "{\"flightrec_version\":99,\"pushed\":0,\"overwritten\":0,"
        "\"capacity\":8,\"threads\":[]}\n",
        &dump, &err));
    // Unknown event type.
    EXPECT_FALSE(parseDump(
        "{\"flightrec_version\":1,\"pushed\":1,\"overwritten\":0,"
        "\"capacity\":8,\"threads\":[]}\n"
        "{\"type\":\"teleport\",\"tid\":0,\"seq\":0,\"t_ns\":1,"
        "\"name\":\"x\",\"a\":0,\"b\":0}\n",
        &dump, &err));
    // Record line missing a required field.
    EXPECT_FALSE(parseDump(
        "{\"flightrec_version\":1,\"pushed\":1,\"overwritten\":0,"
        "\"capacity\":8,\"threads\":[]}\n"
        "{\"type\":\"marker\",\"tid\":0,\"name\":\"x\"}\n",
        &dump, &err));
}

TEST(FlightRecDump, PerfettoExportWritesLoadableJson)
{
    threadreg::registerCurrentThread("frec-test");
    enable(64);
    record(EventType::SpanBegin, "phase", 1);
    record(EventType::Marker, "note");
    record(EventType::SpanEnd, "phase", 1);
    ParsedDump dump;
    std::string err;
    ASSERT_TRUE(parseDump(dumpToString(), &dump, &err)) << err;
    disable();

    const std::string path =
        ::testing::TempDir() + "flightrec_perfetto.json";
    ASSERT_TRUE(writePerfettoFile(path, dump));
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string body;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        body.append(buf, n);
    std::fclose(f);
    EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(body.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(body.find("\"ph\":\"E\""), std::string::npos);
    std::remove(path.c_str());
}

namespace {

int g_dump_fd = -1;

void
onUsr1(int)
{
    signalSafeDump(g_dump_fd);
}

} // namespace

/**
 * The headline stress: N producers hammer the ring while the main
 * thread snapshots repeatedly and, mid-stream, triggers the
 * async-signal-safe dump from an actual signal handler. Every
 * observation — concurrent snapshots, the signal dump, the final
 * drain — must be free of torn records and duplicates, with strictly
 * increasing per-thread sequence numbers.
 */
TEST(FlightRecStress, MpscWithSignalDumpMidStream)
{
    threadreg::registerCurrentThread("frec-test");
    enable(1 << 10);
    const int kProducers = 4;
    const int kPerThread = 5000;

    const std::string sig_path =
        ::testing::TempDir() + "flightrec_signal_dump.jsonl";
    g_dump_fd = ::open(sig_path.c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(g_dump_fd, 0);
    struct sigaction sa = {};
    sa.sa_handler = onUsr1;
    sigemptyset(&sa.sa_mask);
    ASSERT_EQ(sigaction(SIGUSR1, &sa, nullptr), 0);

    std::atomic<bool> go{false};
    std::atomic<int> done{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            char name[16];
            std::snprintf(name, sizeof(name), "prod%d", p);
            threadreg::registerCurrentThread(name);
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < kPerThread; ++i)
                record(EventType::Marker, "stress", i, p);
            done.fetch_add(1, std::memory_order_release);
        });
    }
    go.store(true, std::memory_order_release);

    // Concurrent reads while writers are live, plus one dump driven
    // from a real signal handler mid-stream.
    bool raised = false;
    while (done.load(std::memory_order_acquire) < kProducers) {
        ParsedDump dump;
        std::string err;
        ASSERT_TRUE(parseDump(dumpToString(), &dump, &err)) << err;
        checkSeqDiscipline(dump.records);
        for (const auto& r : dump.records)
            EXPECT_STRNE(r.name, "");
        if (!raised && pushedCount() > 1000) {
            std::raise(SIGUSR1);
            raised = true;
        }
    }
    for (auto& t : producers)
        t.join();
    EXPECT_TRUE(raised);
    ::close(g_dump_fd);
    g_dump_fd = -1;

    // The signal-handler dump parses under the same strict schema.
    ParsedDump sig_dump;
    std::string err;
    ASSERT_TRUE(parseDumpFile(sig_path, &sig_dump, &err)) << err;
    checkSeqDiscipline(sig_dump.records);
    EXPECT_GT(sig_dump.records.size(), 0u);
    std::remove(sig_path.c_str());

    // Final drain: every surviving record intact, counts coherent.
    ParsedDump final_dump;
    ASSERT_TRUE(parseDump(dumpToString(), &final_dump, &err)) << err;
    checkSeqDiscipline(final_dump.records);
    EXPECT_GE(final_dump.pushed,
              static_cast<std::uint64_t>(kProducers) * kPerThread);
    EXPECT_EQ(final_dump.records.size(),
              std::min<std::size_t>(final_dump.capacity,
                                    final_dump.pushed));
    disable();
}
