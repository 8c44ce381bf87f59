// Error hierarchy for the ISL-HLS flow.
//
// Every failure in the flow is reported by throwing one of these exception
// types; they all derive from islhls::Error so callers can catch the whole
// family at the API boundary. Each concrete type additionally carries an
// Error_kind — the structured taxonomy the long-lived sweep service routes
// on: `user` mistakes report and stop, a `timeout` is transient and is
// retried, `io` faults are reported (the result cache absorbs its own),
// `corrupt` records are quarantined and recomputed, `internal` is a bug in
// the library itself. Constructors take a human-readable
// message; frontend errors additionally carry a source location.
#pragma once

#include <exception>
#include <stdexcept>
#include <string>

#include "support/text.hpp"

namespace islhls {

// The failure taxonomy. Every user-reachable failure maps to exactly one
// kind, so front-ends (CLI exit codes, the batch service's per-request
// outcomes) can report and route errors without string matching.
enum class Error_kind {
    user,      // bad input: options, source, request files, unknown names
    io,        // filesystem / stream failure (possibly transient: ENOSPC, ...)
    corrupt,   // on-disk record failed validation (quarantined, recomputed)
    timeout,   // a batch request exceeded its deadline
    internal,  // invariant violation: a bug in the library
};

constexpr const char* to_string(Error_kind kind) {
    switch (kind) {
        case Error_kind::user: return "user";
        case Error_kind::io: return "io";
        case Error_kind::corrupt: return "corrupt";
        case Error_kind::timeout: return "timeout";
        case Error_kind::internal: return "internal";
    }
    return "internal";
}

// Root of all exceptions thrown by this library.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// An Error with a structured kind. All concrete error types derive from
// this, so `catch (const Islhls_error& e)` plus `e.kind()` classifies any
// library failure.
class Islhls_error : public Error {
public:
    Islhls_error(Error_kind kind, const std::string& what)
        : Error(what), kind_(kind) {}

    Error_kind kind() const { return kind_; }

private:
    Error_kind kind_;
};

// Bad user input outside the frontend: malformed options, unknown names,
// invalid request files.
class User_error : public Islhls_error {
public:
    explicit User_error(const std::string& what)
        : Islhls_error(Error_kind::user, what) {}
};

// Lexer/parser failure; carries a 1-based line/column into the C source.
class Parse_error : public Islhls_error {
public:
    Parse_error(const std::string& what, int line, int column)
        : Islhls_error(Error_kind::user,
                       "parse error at " + std::to_string(line) + ":" +
                           std::to_string(column) + ": " + what),
          line_(line),
          column_(column) {}

    int line() const { return line_; }
    int column() const { return column_; }

private:
    int line_ = 0;
    int column_ = 0;
};

// Semantic analysis failure: the input is valid C but not a recognizable /
// synthesizable iterative stencil loop (e.g. non-affine subscripts).
class Sema_error : public Islhls_error {
public:
    explicit Sema_error(const std::string& what)
        : Islhls_error(Error_kind::user, what) {}
};

// Symbolic execution failure (unsupported construct reached at run time).
class Symexec_error : public Islhls_error {
public:
    explicit Symexec_error(const std::string& what)
        : Islhls_error(Error_kind::user, what) {}
};

// Design space exploration failure (e.g. empty feasible set).
class Dse_error : public Islhls_error {
public:
    explicit Dse_error(const std::string& what)
        : Islhls_error(Error_kind::user, what) {}
};

// File / stream I/O failure.
class Io_error : public Islhls_error {
public:
    explicit Io_error(const std::string& what)
        : Islhls_error(Error_kind::io, what) {}
};

// A batch request's attempt ran past its deadline (checked between sweep
// combinations); the only failure the sweep service retries.
class Timeout_error : public Islhls_error {
public:
    explicit Timeout_error(const std::string& what)
        : Islhls_error(Error_kind::timeout, what) {}
};

// Internal invariant violation: indicates a bug in the library itself.
class Internal_error : public Islhls_error {
public:
    explicit Internal_error(const std::string& what)
        : Islhls_error(Error_kind::internal, what) {}
};

// Maps any in-flight exception to its taxonomy kind: Islhls_errors carry
// their own, a plain Error is treated as bad user input (every in-tree
// `throw Error(...)` reports on user-supplied names or options), anything
// else is an internal bug.
inline Error_kind classify_error(const std::exception& e) {
    if (auto* classified = dynamic_cast<const Islhls_error*>(&e)) {
        return classified->kind();
    }
    if (dynamic_cast<const Error*>(&e) != nullptr) return Error_kind::user;
    return Error_kind::internal;
}

// Throws Internal_error when `condition` is false. Used for internal
// invariants that should hold regardless of user input. The message parts
// are concatenated only on failure, so a passing check on a hot path (node
// interning, frame access) costs just the comparison.
template <typename... Parts>
void check_internal(bool condition, const Parts&... what) {
    if (!condition) [[unlikely]] {
        throw Internal_error(cat("internal invariant violated: ", what...));
    }
}

}  // namespace islhls
