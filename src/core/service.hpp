// Long-lived, fault-tolerant sweep service.
//
// Sweep_service is the process-resident owner of everything a sweep needs
// more than once: per-kernel Cone_libraries, per-configuration format-search
// grids, and — when a cache directory is given — a crash-safe,
// content-addressed result cache persisting sweep entries, format grids and
// virtual-synthesis reports across processes, plus the sweep entries it has
// read from or written to that cache. A warm cache serves a repeated
// request without running a single synthesis or format search, and the
// report's counters prove it; a warm batch reads each distinct entry record
// once. Memory grows with the distinct grids and entries of the service's
// lifetime.
//
// Robustness contract:
//   - The cache is advisory: every load either returns a record that was
//     written atomically and passes checksum + schema validation, or the
//     service recomputes. Corrupt records are quarantined, never trusted,
//     and never abort a request.
//   - Batch mode (run_requests) runs its requests serially, in request
//     order: identical requests (by content key) execute once, each attempt
//     gets a deadline on the injected clock, checked between combinations,
//     and a timed-out request retries after a 100, 200, 400 ... ms backoff.
//     Timeouts are the only transient failure: the cache degrades to
//     recompute instead of throwing, and user, corrupt and internal
//     failures never retry. Every outcome is structured — one bad request
//     cannot take down the batch.
//   - All filesystem and clock traffic goes through Env_hooks, so the fault
//     harness (tests/test_fault_injection.cpp) can exercise torn writes,
//     ENOSPC and stuck requests deterministically.
//
// Execution of one request: a serial front runs every kernel's frontend and
// symbolic execution and serves every combination the cache holds; then the
// kernels with work left fan out, one task per kernel, over the request's
// Thread_pool (workers spawn only on an entry miss; at one thread the tasks
// run inline, in order, on the same path). Kernels share nothing but the
// result cache and the format-grid and entry maps (behind one narrow lock):
// each task has its own Cone_library, counters, validation frames and
// goldens.
// Every combination then runs one exploration routine: a backend-specific
// step yields the fit and neutral data (candidate points, covering format
// cells, a re-pricing call, the simulatable fit), and the front fill, format
// covering, re-pricing and golden validation run once for any backend.
// Nested pool use has a single owner — the Explorer and frame-engine
// fan-outs inside a kernel task run inline on the task's thread, and a lone
// task takes the pool for them instead. Entries merge in config order, so
// the report is byte-identical at any thread count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "support/env_hooks.hpp"
#include "support/error.hpp"
#include "support/result_cache.hpp"

namespace islhls {

struct Service_options {
    // Directory of the persistent result cache; empty = in-memory only.
    // Created on first use; a path that exists but is not a usable
    // directory fails construction with a named Io_error.
    std::string cache_dir;
    const Env_hooks* hooks = nullptr;  // filesystem + clock seam
    // Batch mode: per-attempt deadline in ms (0 = none) and total attempts
    // per timed-out request (1..max_request_attempts).
    std::int64_t deadline_ms = 0;
    int max_attempts = 3;
};

// The most attempts a request may be given: the backoff before attempt k
// is 100 << (k - 2) ms, so the cap also bounds the longest sleep.
constexpr int max_request_attempts = 10;

// One batch request's result: either a report or a structured failure.
struct Request_outcome {
    std::string key;      // content key — equal keys shared one execution
    bool ok = false;
    Error_kind kind = Error_kind::internal;  // meaningful when !ok
    std::string message;                     // meaningful when !ok
    int attempts = 0;
    bool deduplicated = false;
    Sweep_report report;  // valid when ok
};

class Sweep_service {
public:
    // Throws User_error for a negative deadline or max_attempts outside
    // 1..max_request_attempts, and Io_error when cache_dir exists but
    // cannot be used.
    explicit Sweep_service(Service_options options = {});
    ~Sweep_service();

    // Runs one validated request, consulting and filling the result cache.
    // Throws Islhls_error (kind user) for invalid configs; cache trouble
    // degrades to recompute instead of throwing.
    Sweep_report run(const Sweep_config& config);

    // Batch front: dedup identical requests (the first occurrence runs),
    // then run attempts in rounds, in request order, retrying timeouts.
    // Never throws for per-request failures — each outcome carries its own
    // taxonomy kind. Outcomes are request-ordered.
    std::vector<Request_outcome> run_requests(
        const std::vector<Sweep_config>& requests);

    // Registers a kernel given as C source and returns its function's name,
    // the name Sweep_config::kernels lists it by. The frontend and symbolic
    // execution run here, once; their errors propagate (Parse_error,
    // Sema_error, Symexec_error). Adding the same text again is a no-op.
    // Throws User_error when the name is a registry key or is already bound
    // to different text. A source kernel has no initial-state recipe, so a
    // request that validates or searches formats on it is a User_error.
    std::string add_kernel(const std::string& c_source);

    // The resident per-kernel cache: frontend + symbolic execution happen on
    // first use of a registry kernel (at add_kernel for a source kernel);
    // cones and syntheses memoize for the service's lifetime.
    Cone_library& library(const std::string& kernel);

    // The persistent cache, or nullptr when running in-memory only.
    Result_cache* cache() { return cache_ ? cache_.get() : nullptr; }
    const Env_hooks& hooks() const { return *hooks_; }
    const Service_options& options() const { return options_; }

private:
    struct Combination;
    struct Kernel_task;

    // The actual sweep. A batch attempt passes its absolute `deadline` on
    // the hooks clock (0 = none), checked between combinations so a
    // deadline interrupts a long request at a clean boundary with a
    // Timeout_error naming the request (fnv1a64_hex of its key) and its
    // `attempt`.
    Sweep_report run_impl(const Sweep_config& config, std::int64_t deadline = 0,
                          int attempt = 1);

    // Makes `step` the resident library of `kernel`, keyed by its IR
    // identity and bound to the result cache's synthesis records.
    Cone_library& install(const std::string& kernel, Boundary boundary,
                          Stencil_step step);

    // Serves one combination from the remembered entries or the cache,
    // counting the hit or miss in `counts`; false when it must be computed.
    bool load_entry(Combination& c, Sweep_report& counts);

    // Fills one combination's entry (identity fields already set) inside
    // its kernel's task.
    Sweep_entry explore(const Sweep_config& config, Sweep_entry entry,
                        Thread_pool& pool, Kernel_task& task);

    // The combination's per-(window, depth) format grid. It is
    // N-independent but carries device-priced per-format evaluations, so it
    // is searched once per (content, device) and shared across iteration
    // counts, backends and requests.
    const Format_grid& format_grid(const Sweep_config& config, const Sweep_entry& entry,
                                   const Evaluator_options& evaluator_options,
                                   const Space_options& space, Thread_pool& pool,
                                   Kernel_task& task);

    Service_options options_;
    const Env_hooks* hooks_;
    std::unique_ptr<Result_cache> cache_;
    std::map<std::string, std::unique_ptr<Cone_library>> libraries_;
    std::map<std::string, std::string> ir_keys_;  // kernel content identities
    std::map<std::string, std::string> sources_;  // source kernels' C text
    // Format grids keyed by their full content key (kernel identity plus
    // every grid-affecting option), so requests with different search
    // settings never share a grid.
    std::map<std::string, Format_grid> format_grids_;
    // Sweep entries keyed by their entry key, each inserted only after a
    // successful cache load or store, so the map mirrors records on disk.
    // Keys are content addresses: a remembered entry is never stale.
    std::map<std::string, Sweep_entry> entries_;
    std::mutex memo_mutex_;  // kernel tasks share format_grids_ and entries_
};

}  // namespace islhls
