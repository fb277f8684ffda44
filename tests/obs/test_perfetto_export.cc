#include "obs/span.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.h"

namespace cpullm {
namespace obs {
namespace {

/** Every value of a numeric field like "ts": in document order. */
std::vector<double>
numericField(const std::string& json, const std::string& field)
{
    const std::string key = "\"" + field + "\":";
    std::vector<double> out;
    for (std::size_t pos = json.find(key); pos != std::string::npos;
         pos = json.find(key, pos + 1))
        out.push_back(std::atof(json.c_str() + pos + key.size()));
    return out;
}

std::string
exportTrace(const Tracer& tr)
{
    std::ostringstream os;
    tr.writeChromeTrace(os);
    return os.str();
}

Tracer&
populate(Tracer& tr)
{
    const TrackId ops = tr.track("engine", "operators");
    const TrackId req = tr.track("serving", "req 0");
    Span request = tr.begin("request", "", req, 0.0);
    tr.complete("gemm qkv", "gemm", ops, 0.0, 0.25);
    tr.complete("attention", "attention", ops, 0.25, 0.5);
    tr.instant("arrival", req, 0.0);
    tr.counter("queue_depth", req.pid, 0.0, 2.0);
    tr.counter("bandwidth_GBps", ops.pid, 0.25,
               {{"dram", 123.5}, {"upi", 8.0}});
    request.close(1.0);
    return tr;
}

TEST(ChromeTrace, IsValidJson)
{
    Tracer tr;
    const std::string json = exportTrace(populate(tr));
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_TRUE(jsonValid(json)) << json;
}

TEST(ChromeTrace, EmitsProcessAndThreadMetadata)
{
    Tracer tr;
    const std::string json = exportTrace(populate(tr));
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_sort_index\""), std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"engine\"}"), std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"req 0\"}"), std::string::npos);
}

TEST(ChromeTrace, TimestampsNonNegativeAndSorted)
{
    Tracer tr;
    const std::string json = exportTrace(populate(tr));
    const auto ts = numericField(json, "ts");
    ASSERT_GE(ts.size(), 5u);
    for (std::size_t i = 0; i < ts.size(); ++i) {
        EXPECT_GE(ts[i], 0.0);
        if (i > 0) {
            EXPECT_GE(ts[i], ts[i - 1]);
        }
    }
    for (double d : numericField(json, "dur"))
        EXPECT_GE(d, 0.0);
}

TEST(ChromeTrace, ParentsPrecedeChildrenAtEqualTimestamp)
{
    Tracer tr;
    const TrackId t = tr.track("p", "t");
    // Child recorded before the parent; the export must still order
    // the longer (parent) event first at the shared start time.
    tr.complete("child", "", t, 0.0, 0.5);
    tr.complete("parent", "", t, 0.0, 2.0);
    const std::string json = exportTrace(tr);
    EXPECT_LT(json.find("\"parent\""), json.find("\"child\""));
}

TEST(ChromeTrace, CounterEventsCarrySeriesArgs)
{
    Tracer tr;
    const std::string json = exportTrace(populate(tr));
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"bandwidth_GBps\""),
              std::string::npos);
    EXPECT_NE(json.find("\"dram\":123.5"), std::string::npos);
    EXPECT_NE(json.find("\"upi\":8.0"), std::string::npos);
}

TEST(ChromeTrace, InstantEventsPresent)
{
    Tracer tr;
    const std::string json = exportTrace(populate(tr));
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"arrival\""), std::string::npos);
}

TEST(ChromeTrace, OpenSpansExportAtClock)
{
    Tracer tr;
    const TrackId t = tr.track("p", "t");
    Span s = tr.begin("open", "", t, 1.0);
    tr.setTime(3.0);
    const std::string json = exportTrace(tr);
    EXPECT_TRUE(jsonValid(json));
    // 2 s open interval -> 2e6 us duration.
    EXPECT_NE(json.find("\"dur\":2000000.000"), std::string::npos);
    s.close(3.0);
}

TEST(ChromeTrace, EscapesAwkwardNames)
{
    Tracer tr;
    const TrackId t = tr.track("proc \"x\"", "tab\there");
    tr.complete("name\nnewline", "cat\\slash", t, 0.0, 1.0);
    const std::string json = exportTrace(tr);
    EXPECT_TRUE(jsonValid(json)) << json;
}

TEST(ChromeTrace, EmptyTracerStillValid)
{
    Tracer tr;
    const std::string json = exportTrace(tr);
    EXPECT_TRUE(jsonValid(json));
    EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(ChromeTrace, FileRoundTrip)
{
    Tracer tr;
    populate(tr);
    const std::string path =
        testing::TempDir() + "cpullm_trace_test.json";
    ASSERT_TRUE(tr.writeChromeTraceFile(path));
    std::ifstream ifs(path);
    std::stringstream buf;
    buf << ifs.rdbuf();
    EXPECT_TRUE(jsonValid(buf.str()));
    std::remove(path.c_str());
}

} // namespace
} // namespace obs
} // namespace cpullm
