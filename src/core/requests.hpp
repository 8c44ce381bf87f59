// Sweep requests as text: the option table the `islhls sweep` flags and the
// `islhls serve` request files share, and the request-file parser.
//
// Request files are untrusted input. The parser only builds Sweep_configs;
// it never runs them, and every way a file can be malformed is a User_error
// whose message starts with `name:line:`. Whether a parsed config is
// runnable is validate_config's call (core/sweep.hpp), made per request by
// the service, so one invalid request fails alone instead of the batch.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "backend/fixed_point.hpp"
#include "core/sweep.hpp"

namespace islhls {

// std::stoi with parse errors turned into a named User_error:
// "bad <what> '<text>', expected an integer".
int parse_int(const std::string& text, const std::string& what);

// "Q10.6" -> {10, 6}; User_error for anything else or a format outside
// m >= 1, f >= 0 and 2..62 bits.
Fixed_format parse_format(const std::string& text);

// Comma-separated names, blanks trimmed and empty parts dropped; User_error
// when nothing is left.
std::vector<std::string> parse_name_list(const std::string& value);

// One sweep option applied to a config. `name` is the bare option name (no
// leading --); `value` produces its argument on demand and may throw a named
// user error when none is available. Returns false for unknown names, so the
// CLI and the request-file parser share one option table.
bool apply_sweep_option(Sweep_config& config, const std::string& name,
                        const std::function<std::string()>& value);

// The config a sweep starts from before its options apply.
Sweep_config default_sweep_config();

// Parses a request file's `text`: `request` ... `end` blocks of bare sweep
// options, one per line; blank lines and # comments anywhere. Every error
// is a User_error prefixed `name:line:`, so a bad batch pinpoints itself.
std::vector<Sweep_config> parse_requests(const std::string& text,
                                         const std::string& name);

}  // namespace islhls
