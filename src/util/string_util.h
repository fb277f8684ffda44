#ifndef CPULLM_UTIL_STRING_UTIL_H
#define CPULLM_UTIL_STRING_UTIL_H

/**
 * @file
 * Small string helpers shared across the framework.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace cpullm {

/** printf-style formatting into a std::string. */
std::string strformat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Split @p s on @p sep (single char), keeping empty fields. */
std::vector<std::string> split(const std::string& s, char sep);

/** Join @p parts with @p sep. */
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/** Lower-case ASCII copy. */
std::string toLower(std::string s);

/** True if @p s starts with @p prefix. */
bool startsWith(const std::string& s, const std::string& prefix);

/** Format a double with @p digits significant decimals, trimming zeros. */
std::string formatNumber(double v, int digits = 3);

/**
 * Parse all of @p s as a decimal integer ("12", "-3"; not "1e1",
 * "2.0", " 4" or "4cores"). False, leaving @p out alone, otherwise.
 */
bool parseInt(const std::string& s, std::int64_t* out);

/**
 * Parse all of @p s as a finite number ("1.03", "5e-2"; not "nan",
 * "inf" or "3x"). False, leaving @p out alone, otherwise.
 */
bool parseFinite(const std::string& s, double* out);

} // namespace cpullm

#endif // CPULLM_UTIL_STRING_UTIL_H
