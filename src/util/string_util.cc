#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "util/units.h"

namespace cpullm {

std::string
strformat(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<size_t>(needed) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, args_copy);
        out.resize(static_cast<size_t>(needed));
    }
    va_end(args_copy);
    return out;
}

std::vector<std::string>
split(const std::string& s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

std::string
join(const std::vector<std::string>& parts, const std::string& sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i) out += sep;
        out += parts[i];
    }
    return out;
}

std::string
toLower(std::string s)
{
    for (char& c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

bool
startsWith(const std::string& s, const std::string& prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
formatNumber(double v, int digits)
{
    std::string s = strformat("%.*f", digits, v);
    // Trim trailing zeros but keep at least one decimal digit removed
    // cleanly (e.g. "3.00" -> "3", "3.20" -> "3.2").
    if (s.find('.') != std::string::npos) {
        while (!s.empty() && s.back() == '0')
            s.pop_back();
        if (!s.empty() && s.back() == '.')
            s.pop_back();
    }
    return s;
}

bool
parseInt(const std::string& s, std::int64_t* out)
{
    std::int64_t v = 0;
    const char* end = s.data() + s.size();
    const auto r = std::from_chars(s.data(), end, v);
    if (s.empty() || r.ec != std::errc() || r.ptr != end)
        return false;
    *out = v;
    return true;
}

bool
parseFinite(const std::string& s, double* out)
{
    double v = 0.0;
    const char* end = s.data() + s.size();
    const auto r = std::from_chars(s.data(), end, v);
    if (s.empty() || r.ec != std::errc() || r.ptr != end ||
        !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

std::string
formatBytes(std::uint64_t bytes)
{
    const double b = static_cast<double>(bytes);
    if (bytes >= TiB)
        return strformat("%.2f TiB", b / static_cast<double>(TiB));
    if (bytes >= GiB)
        return strformat("%.2f GiB", b / static_cast<double>(GiB));
    if (bytes >= MiB)
        return strformat("%.2f MiB", b / static_cast<double>(MiB));
    if (bytes >= KiB)
        return strformat("%.2f KiB", b / static_cast<double>(KiB));
    return strformat("%llu B", static_cast<unsigned long long>(bytes));
}

std::string
formatBandwidth(double bytes_per_sec)
{
    if (bytes_per_sec >= TB)
        return strformat("%.1f TB/s", bytes_per_sec / TB);
    if (bytes_per_sec >= GB)
        return strformat("%.1f GB/s", bytes_per_sec / GB);
    if (bytes_per_sec >= MB)
        return strformat("%.1f MB/s", bytes_per_sec / MB);
    return strformat("%.1f B/s", bytes_per_sec);
}

std::string
formatTime(double seconds)
{
    if (seconds >= 1.0)
        return strformat("%.3f s", seconds);
    if (seconds >= MSEC)
        return strformat("%.3f ms", seconds / MSEC);
    if (seconds >= USEC)
        return strformat("%.3f us", seconds / USEC);
    return strformat("%.1f ns", seconds * 1e9);
}

std::string
formatFlops(double flops_per_sec)
{
    if (flops_per_sec >= TFLOPS)
        return strformat("%.1f TFLOPS", flops_per_sec / TFLOPS);
    if (flops_per_sec >= GFLOPS)
        return strformat("%.1f GFLOPS", flops_per_sec / GFLOPS);
    return strformat("%.1f MFLOPS", flops_per_sec / MFLOPS);
}

} // namespace cpullm
