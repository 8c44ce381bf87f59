// Injectable environment seam: filesystem, clock and sleep.
//
// The crash-safe result cache (support/result_cache.hpp) and the job queue
// (support/job_queue.hpp) never touch the OS directly — every mutation and
// every time read goes through an Env_hooks instance. Production code uses
// real_env_hooks() (POSIX whole-file I/O with an fsync before the atomic
// rename, steady-clock milliseconds); the fault-injection harness wraps the
// real hooks to inject torn writes, ENOSPC, rename failures, frozen or
// fast-forwarded clocks, and records backoff sleeps instead of sleeping.
//
// The seam deliberately covers only *mutating* filesystem operations plus
// whole-file reads: directory listing (cache verify/gc) stays on
// std::filesystem, because corrupting a listing is not a failure mode the
// cache needs to survive differently from an absent file.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace islhls {

struct Env_hooks {
    enum class Read_result { ok, missing, error };

    // Creates/truncates `path` and writes `data`, flushing to disk before
    // returning. False on failure with `*error` describing it (errno text).
    std::function<bool(const std::string& path, const std::string& data,
                       std::string* error)>
        write_file;

    // Atomically renames `from` to `to` (same filesystem). False on failure.
    std::function<bool(const std::string& from, const std::string& to,
                       std::string* error)>
        rename_file;

    // Reads the whole file into `*out`. `missing` is distinguished from
    // `error` so a cache miss never looks like an I/O fault.
    std::function<Read_result(const std::string& path, std::string* out,
                              std::string* error)>
        read_file;

    // Removes `path`; false when it could not be removed (absent is fine).
    std::function<bool(const std::string& path)> remove_file;

    // Creates `path` exclusively (O_CREAT|O_EXCL) and writes `data`, without
    // flushing: the stamp needs no durability, because a lock that outlives
    // a crash is stale by definition and an empty or torn stamp parses as
    // stale. False when the file already exists or on I/O failure: the
    // existence race is the point — this backs the advisory multi-process
    // cache lock, where exactly one contender's create wins.
    std::function<bool(const std::string& path, const std::string& data,
                       std::string* error)>
        create_exclusive;

    // True when a process with this id is alive (kill(pid, 0), with EPERM
    // counting as alive). Used to detect a crashed lock holder.
    std::function<bool(std::int64_t pid)> process_alive;

    // Monotonic milliseconds (steady clock). Job deadlines and retry
    // backoff are computed against this, never against wall time.
    std::function<std::int64_t()> now_ms;

    // Blocks the calling thread for `ms` milliseconds (retry backoff).
    std::function<void(std::int64_t ms)> sleep_ms;
};

// The process-wide real implementation (POSIX I/O, steady clock).
const Env_hooks& real_env_hooks();

}  // namespace islhls
