// Small string formatting helpers used across the library.
#pragma once

#include <sstream>
#include <string>
#include <vector>

namespace islhls {

// Concatenates all arguments through an ostringstream.
// Example: cat("cone w=", 4, " d=", 2) == "cone w=4 d=2".
template <typename... Args>
std::string cat(const Args&... args) {
    std::ostringstream os;
    ((os << args), ...);
    return os.str();
}

// Fixed-precision decimal rendering, e.g. format_fixed(3.14159, 2) == "3.14".
std::string format_fixed(double value, int decimals);

// Formats `value` with thousands separators: 1234567 -> "1,234,567".
std::string format_grouped(long long value);

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> split(const std::string& s, char sep);

// Joins `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

// Strips ASCII whitespace from both ends.
std::string trim(const std::string& s);

// True if `s` starts with `prefix` / ends with `suffix`.
bool starts_with(const std::string& s, const std::string& prefix);
bool ends_with(const std::string& s, const std::string& suffix);

// Returns `s` left-padded (right-aligned) to `width` with spaces.
std::string pad_left(const std::string& s, std::size_t width);

// Returns `s` right-padded (left-aligned) to `width` with spaces.
std::string pad_right(const std::string& s, std::size_t width);

}  // namespace islhls
