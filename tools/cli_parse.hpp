// All-of-text numeric flag parsing shared by the command-line tools: a flag
// value either parses completely into its range or the tool rejects it with
// an `error:` line and exit code 2 (std::stoul and friends would accept
// "12abc", wrap "-3" and throw on "abc").
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace aa::cli {

/// Parse all of `text` as a decimal integer in [lo, hi]. A sign, blank or
/// trailing character fails, as does an out-of-range value.
inline bool parse_integer(const std::string& text, std::uint64_t lo, std::uint64_t hi,
                          std::uint64_t& out) {
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
        return false;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || *end != '\0' || value < lo || value > hi) {
        return false;
    }
    out = value;
    return true;
}

/// Parse all of `text` as a number in [lo, hi]; NaN is never in range.
inline bool parse_number(const std::string& text, double lo, double hi, double& out) {
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || errno != 0 || *end != '\0' || !(value >= lo && value <= hi)) {
        return false;
    }
    out = value;
    return true;
}

}  // namespace aa::cli
