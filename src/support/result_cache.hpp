// Crash-safe content-addressed on-disk result cache.
//
// Records are keyed by an arbitrary key string (the sweep service builds
// keys from the kernel IR dump plus every result-affecting option); the
// record file name is the FNV-1a 64 hash of the key in hex. Each record is
// self-validating:
//
//   magic "ISLHLSC1" (8) | version u32 | key_len u32 | payload_len u64 |
//   checksum u64 (FNV-1a over key + payload) | key bytes | payload bytes
//
// all little-endian. Stores are atomic: the record is written to a
// same-directory temp file, flushed, then renamed over the final name — a
// crash at any point leaves either the old record, no record, or an orphan
// temp file, never a reachable half-written record. Loads validate
// everything (magic, version, sizes against the file size, checksum, stored
// key against the requested key); any mismatch quarantines the file
// (renames it to <name>.quarantined) and reports a miss, so callers always
// fall back to recompute — corruption never aborts a sweep. Store failures
// (ENOSPC, read-only media) are soft: counted and skipped, the sweep
// continues uncached.
//
// verify()/gc() back the `islhls cache` subcommand: verify re-validates
// every record's checksum; gc additionally prunes quarantined records and
// orphaned temp files.
//
// Multi-process safety: concurrent sweeps sharing one cache directory are
// coordinated by an advisory lock file (.islhls.lock, created exclusively,
// holding "pid timestamp"). Mutating passes — store, quarantine, verify/gc —
// take it so a gc never sweeps away another process's in-flight temp file
// or a record mid-rename. The lock is best-effort by design: a holder that
// died or went silent past the staleness bound is taken over (its pid is
// probed), and a contender that cannot get the lock within the bounded wait
// proceeds unlocked rather than wedging a sweep — the store path stays
// crash-safe without the lock (pid-unique temp names + atomic rename), the
// lock only protects gc from racing it. Plain loads never take the lock.
// Inside one process every holder first takes a mutex shared by all caches
// open on the same directory, so a stamp carrying this process's own pid can
// only be an orphan (an unlink that failed) and is taken over at once.
//
// The benchmark harness depends on that store order. Its cache meter
// (perfbench/workloads.cpp, Cache_meter) wraps these Env_hooks: it opens a
// `cache.store` span when `.islhls.lock` is created and closes it when the
// file is removed. So every store must keep the order lock create -> record
// write -> lock remove, all through the hooks. A store path that skips the
// stamp records no span, and a traced `dse_cold` benchmark run then exits 1
// with "percentile of no samples". A rewrite of the lock must therefore land
// together with a change to that meter.
//
// All OS mutation goes through the injectable Env_hooks seam, which is how
// the fault-injection tests exercise torn writes, ENOSPC and rename
// failures deterministically.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/env_hooks.hpp"

namespace islhls {

// FNV-1a 64-bit content hash (also the record file-name hash).
std::uint64_t fnv1a64(std::string_view data);

// fnv1a64(data) as 16 lowercase hex digits: a record's file stem, and the
// short name of a request in messages.
std::string fnv1a64_hex(std::string_view data);

class Result_cache {
public:
    struct Stats {
        long long hits = 0;
        long long misses = 0;
        long long stores = 0;
        long long store_failures = 0;       // soft: sweep continues uncached
        long long corrupt_quarantined = 0;  // bad records moved aside on load
        long long lock_takeovers = 0;       // stale locks broken (dead holder)
        long long lock_timeouts = 0;        // waits that gave up -> unlocked op
    };

    struct Verify_report {
        int records_ok = 0;
        int records_corrupt = 0;   // failed validation during this pass
        int quarantined_files = 0; // *.quarantined seen (pre-existing + new)
        int temp_files = 0;        // orphaned *.tmp* seen
        int removed_files = 0;     // deleted by gc (corrupt/quarantined/temp)
        int records_evicted = 0;   // valid records deleted by the size budget
        long long record_bytes = 0;  // valid record bytes left on disk
        std::vector<std::string> notes;  // one line per problem file
    };

    // Opens the cache at `dir`, creating the directory on first use.
    // Throws Io_error when the path exists but is not a directory, when the
    // directory cannot be created, or when it is not writable (probed by
    // creating a file, so the failure surfaces at startup, not mid-sweep).
    explicit Result_cache(std::string dir, const Env_hooks* hooks = nullptr);

    // The payload stored under `key`, or nullopt on miss. Corrupt records
    // are quarantined and report a miss; I/O errors report a miss — the
    // caller's contract is always "recompute on nullopt".
    std::optional<std::string> load(const std::string& key);

    // Stores `payload` under `key` (overwriting any previous record) via an
    // atomic temp+rename. Returns false on failure (counted, best-effort
    // temp cleanup, never throws).
    bool store(const std::string& key, const std::string& payload);

    // Validates every record in the directory. With `gc`, additionally
    // removes quarantined records, orphaned temp files and records that
    // failed validation in this pass. A non-negative `max_bytes` (gc only)
    // further evicts *valid* records, least-recently-written first (file
    // mtime; a store refreshes it, so recency tracks last write), until the
    // surviving records fit the budget — survivors keep serving warm hits
    // unchanged.
    Verify_report verify(bool gc = false, long long max_bytes = -1);

    Stats stats() const;
    const std::string& dir() const { return dir_; }

    // Final on-disk path of the record for `key`.
    std::string record_path(const std::string& key) const;

    // Path of the advisory multi-process lock file.
    std::string lock_path() const;

private:
    friend class Scoped_dir_lock;

    std::string quarantine(const std::string& path);
    // Tries to take the advisory directory lock; true when held (the caller
    // must remove lock_path() when done), false to proceed unlocked.
    bool acquire_dir_lock();

    std::string dir_;
    const Env_hooks* hooks_;
    mutable std::mutex mutex_;  // guards stats_ and temp_counter_
    // Serializes this process's own mutating passes on this directory —
    // across every Result_cache instance open on it — before the
    // cross-process file lock, so in-process holders never burn the bounded
    // wait on each other.
    std::shared_ptr<std::mutex> dir_lock_mutex_;
    Stats stats_;
    std::uint64_t temp_counter_ = 0;
};

}  // namespace islhls
