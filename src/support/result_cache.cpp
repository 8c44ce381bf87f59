#include "support/result_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <system_error>

#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

namespace {

constexpr char kMagic[8] = {'I', 'S', 'L', 'H', 'L', 'S', 'C', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;

// Advisory lock tuning: a holder silent past kLockStaleMs is presumed hung
// even if its process is alive (individual mutating passes are fast; verify
// over a large directory refreshes nothing, so the bound is generous); a
// contender gives up after kLockWaitMs and proceeds unlocked.
constexpr std::int64_t kLockStaleMs = 10'000;
constexpr std::int64_t kLockWaitMs = 2'000;
constexpr std::int64_t kLockPollMs = 10;

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t get_u32(const std::string& in, std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + i]))
             << (8 * i);
    }
    return v;
}

std::uint64_t get_u64(const std::string& in, std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[at + i]))
             << (8 * i);
    }
    return v;
}

std::string encode_record(const std::string& key, const std::string& payload) {
    std::string out;
    out.reserve(kHeaderSize + key.size() + payload.size());
    out.append(kMagic, sizeof kMagic);
    put_u32(out, kVersion);
    put_u32(out, static_cast<std::uint32_t>(key.size()));
    put_u64(out, payload.size());
    std::uint64_t checksum = fnv1a64(key);
    // Chain the payload into the key's running hash: one checksum covers
    // both sections, so a flipped bit anywhere in the record is caught.
    for (char c : payload) {
        checksum ^= static_cast<unsigned char>(c);
        checksum *= 0x100000001B3ULL;
    }
    put_u64(out, checksum);
    out += key;
    out += payload;
    return out;
}

// Validates one raw record image. Returns the payload, or nullopt with
// `*why` describing the first validation failure. When `expected_key` is
// non-null the stored key must match it exactly (a hash collision or a
// corrupted key section both count as "not this record").
std::optional<std::string> decode_record(const std::string& raw,
                                         const std::string* expected_key,
                                         std::string* why) {
    if (raw.size() < kHeaderSize) {
        *why = cat("short header (", raw.size(), " bytes)");
        return std::nullopt;
    }
    if (raw.compare(0, sizeof kMagic, kMagic, sizeof kMagic) != 0) {
        *why = "bad magic";
        return std::nullopt;
    }
    const std::uint32_t version = get_u32(raw, 8);
    if (version != kVersion) {
        *why = cat("unsupported version ", version);
        return std::nullopt;
    }
    const std::uint64_t key_len = get_u32(raw, 12);
    const std::uint64_t payload_len = get_u64(raw, 16);
    const std::uint64_t checksum = get_u64(raw, 24);
    if (raw.size() != kHeaderSize + key_len + payload_len) {
        *why = cat("size mismatch: header claims ",
                   kHeaderSize + key_len + payload_len, " bytes, file has ",
                   raw.size());
        return std::nullopt;
    }
    const std::string_view body(raw.data() + kHeaderSize, key_len + payload_len);
    if (fnv1a64(body) != checksum) {
        *why = "checksum mismatch";
        return std::nullopt;
    }
    const std::string_view key = body.substr(0, key_len);
    if (expected_key != nullptr && key != *expected_key) {
        *why = "key mismatch (hash collision)";
        return std::nullopt;
    }
    return std::string(body.substr(key_len));
}

// The in-process lock of one cache directory, shared by every Result_cache
// opened on it (keyed by canonical path, so spellings of one directory
// agree). Entries live for the process: one mutex per directory ever opened.
std::shared_ptr<std::mutex> directory_mutex(const std::string& dir) {
    static std::mutex registry_mutex;
    static std::map<std::string, std::shared_ptr<std::mutex>> registry;
    std::error_code ec;
    std::string key = std::filesystem::weakly_canonical(dir, ec).string();
    if (ec) key = dir;
    const std::lock_guard<std::mutex> lock(registry_mutex);
    std::shared_ptr<std::mutex>& mutex = registry[key];
    if (!mutex) mutex = std::make_shared<std::mutex>();
    return mutex;
}

}  // namespace

// Holds the advisory directory lock for one mutating pass: in-process
// serialization first (cheap mutex), then the cross-process lock file.
// Releases on destruction; if the lock could not be taken the pass runs
// unlocked (the operations stay individually crash-safe).
class Scoped_dir_lock {
public:
    explicit Scoped_dir_lock(Result_cache& cache)
        : cache_(cache),
          in_process_(*cache.dir_lock_mutex_),
          held_(cache.acquire_dir_lock()) {}
    ~Scoped_dir_lock() {
        if (held_) cache_.hooks_->remove_file(cache_.lock_path());
    }
    Scoped_dir_lock(const Scoped_dir_lock&) = delete;
    Scoped_dir_lock& operator=(const Scoped_dir_lock&) = delete;

private:
    Result_cache& cache_;
    std::lock_guard<std::mutex> in_process_;
    bool held_;
};

std::uint64_t fnv1a64(std::string_view data) {
    std::uint64_t hash = 0xCBF29CE484222325ULL;
    for (char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

std::string fnv1a64_hex(std::string_view data) {
    char digits[17];
    std::snprintf(digits, sizeof digits, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(data)));
    return digits;
}

Result_cache::Result_cache(std::string dir, const Env_hooks* hooks)
    : dir_(std::move(dir)), hooks_(hooks ? hooks : &real_env_hooks()) {
    namespace fs = std::filesystem;
    if (dir_.empty()) throw Io_error("cache directory path is empty");
    std::error_code ec;
    const fs::file_status status = fs::status(dir_, ec);
    if (!ec && fs::exists(status) && !fs::is_directory(status)) {
        throw Io_error(cat("cache path '", dir_,
                           "' exists and is not a directory"));
    }
    fs::create_directories(dir_, ec);
    if (ec) {
        throw Io_error(cat("cannot create cache directory '", dir_, "': ",
                           ec.message()));
    }
    dir_lock_mutex_ = directory_mutex(dir_);
    // Probe writability with a real create so an unusable directory fails
    // at startup with a clear message instead of as silent store failures.
    // The probe needs no durability, so it takes the unflushed exclusive
    // create. Its name is unique to this process and construction, and
    // holds ".tmp", so gc collects one a crash left behind.
    static std::atomic<std::uint64_t> probes{0};
    const std::string probe = cat(dir_, "/.islhls-probe.", static_cast<long long>(::getpid()),
                                  ".", probes++, ".tmp");
    std::string error;
    if (!hooks_->create_exclusive(probe, "probe", &error)) {
        throw Io_error(cat("cache directory '", dir_, "' is not writable: ",
                           error));
    }
    hooks_->remove_file(probe);
}

std::string Result_cache::record_path(const std::string& key) const {
    return cat(dir_, "/", fnv1a64_hex(key), ".rec");
}

std::string Result_cache::lock_path() const { return dir_ + "/.islhls.lock"; }

bool Result_cache::acquire_dir_lock() {
    const std::string path = lock_path();
    const std::int64_t deadline = hooks_->now_ms() + kLockWaitMs;
    for (;;) {
        const std::string content =
            cat(static_cast<long long>(::getpid()), " ", hooks_->now_ms(), "\n");
        std::string error;
        if (hooks_->create_exclusive(path, content, &error)) return true;
        // Somebody holds it. A dead holder (crashed sweep) or an unparseable
        // or ancient stamp means the lock is abandoned: break it and retry.
        std::string holder;
        const Env_hooks::Read_result read =
            hooks_->read_file(path, &holder, &error);
        if (read == Env_hooks::Read_result::ok) {
            long long pid = 0;
            long long stamp = 0;
            const bool parsed =
                std::sscanf(holder.c_str(), "%lld %lld", &pid, &stamp) == 2;
            if (parsed && pid == static_cast<long long>(::getpid())) {
                // Our own stamp, whose unlink failed: every holder in this
                // process waits on dir_lock_mutex_, which we hold, so it is
                // an orphan and already ours. Refresh it (best effort) and
                // hold it, without waiting.
                hooks_->write_file(path, content, &error);
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.lock_takeovers;
                return true;
            }
            const bool stale = !parsed || !hooks_->process_alive(pid) ||
                               hooks_->now_ms() - stamp > kLockStaleMs;
            if (stale) {
                // Break it by renaming first: of several contenders spotting
                // the same stale lock, exactly one rename succeeds, so
                // nobody can delete a lock some other winner just re-made.
                // Fall through to the bounded retry either way (no immediate
                // continue: a break that cannot succeed must not busy-loop).
                const std::string breaker =
                    cat(path, ".stale.", static_cast<long long>(::getpid()));
                if (hooks_->rename_file(path, breaker, &error)) {
                    hooks_->remove_file(breaker);
                    std::lock_guard<std::mutex> lock(mutex_);
                    ++stats_.lock_takeovers;
                }
            }
        }
        if (hooks_->now_ms() >= deadline) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.lock_timeouts;
            return false;
        }
        hooks_->sleep_ms(kLockPollMs);
    }
}

std::string Result_cache::quarantine(const std::string& path) {
    // Mutating: must not race a concurrent gc sweeping the same directory.
    Scoped_dir_lock lock_guard(*this);
    const std::string target = path + ".quarantined";
    std::string error;
    // Replacing any earlier quarantined copy is fine — one exhibit of the
    // corruption is enough, and gc prunes them either way.
    if (!hooks_->rename_file(path, target, &error)) {
        // Could not move it aside; remove it so the next store is clean.
        hooks_->remove_file(path);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.corrupt_quarantined;
    return target;
}

std::optional<std::string> Result_cache::load(const std::string& key) {
    const std::string path = record_path(key);
    std::string raw;
    std::string error;
    const Env_hooks::Read_result read = hooks_->read_file(path, &raw, &error);
    if (read != Env_hooks::Read_result::ok) {
        // Missing records and read faults both resolve to recompute.
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        return std::nullopt;
    }
    std::string why;
    std::optional<std::string> payload = decode_record(raw, &key, &why);
    if (!payload) {
        if (why == "key mismatch (hash collision)") {
            // The record is someone else's valid data, not corruption.
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.misses;
        } else {
            quarantine(path);
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.misses;
        }
        return std::nullopt;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return payload;
}

bool Result_cache::store(const std::string& key, const std::string& payload) {
    // The lock keeps a concurrent gc from collecting the temp file between
    // its write and its rename (to gc it looks orphaned).
    Scoped_dir_lock lock_guard(*this);
    const std::string path = record_path(key);
    std::uint64_t serial;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        serial = temp_counter_++;
    }
    // Pid-unique temp names: two processes storing the same key must never
    // write through one temp file, locked or not.
    const std::string temp =
        cat(path, ".tmp", static_cast<long long>(::getpid()), ".", serial);
    const std::string record = encode_record(key, payload);
    std::string error;
    if (!hooks_->write_file(temp, record, &error)) {
        hooks_->remove_file(temp);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.store_failures;
        return false;
    }
    if (!hooks_->rename_file(temp, path, &error)) {
        hooks_->remove_file(temp);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.store_failures;
        return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
    return true;
}

Result_cache::Verify_report Result_cache::verify(bool gc, long long max_bytes) {
    namespace fs = std::filesystem;
    // Whole-pass lock: gc decides what is an orphan from one consistent
    // directory snapshot, excluded from concurrent stores and quarantines.
    Scoped_dir_lock lock_guard(*this);
    Verify_report report;
    struct Survivor {
        std::string name;
        long long bytes = 0;
        fs::file_time_type mtime;
    };
    std::vector<Survivor> survivors;
    // Deterministic order for the notes regardless of directory iteration
    // order.
    std::vector<std::string> entries;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
        entries.push_back(entry.path().filename().string());
    }
    if (ec) {
        report.notes.push_back(cat("cannot list '", dir_, "': ", ec.message()));
        return report;
    }
    std::sort(entries.begin(), entries.end());
    for (const std::string& name : entries) {
        const std::string path = cat(dir_, "/", name);
        if (ends_with(name, ".quarantined")) {
            ++report.quarantined_files;
            if (gc && hooks_->remove_file(path)) ++report.removed_files;
            continue;
        }
        if (name.find(".tmp") != std::string::npos) {
            ++report.temp_files;
            if (gc && hooks_->remove_file(path)) ++report.removed_files;
            continue;
        }
        if (!ends_with(name, ".rec")) continue;  // foreign file: leave it
        std::string raw;
        std::string error;
        if (hooks_->read_file(path, &raw, &error) != Env_hooks::Read_result::ok) {
            ++report.records_corrupt;
            report.notes.push_back(cat(name, ": unreadable: ", error));
            continue;
        }
        std::string why;
        if (!decode_record(raw, nullptr, &why)) {
            ++report.records_corrupt;
            report.notes.push_back(cat(name, ": ", why));
            if (gc && hooks_->remove_file(path)) ++report.removed_files;
            continue;
        }
        ++report.records_ok;
        Survivor s;
        s.name = name;
        s.bytes = static_cast<long long>(raw.size());
        s.mtime = fs::last_write_time(path, ec);  // ec: mtime 0 = oldest
        report.record_bytes += s.bytes;
        survivors.push_back(std::move(s));
    }
    // Size-budget eviction: valid records leave least-recently-written
    // first (name breaks mtime ties deterministically) until the rest fit.
    if (gc && max_bytes >= 0 && report.record_bytes > max_bytes) {
        std::sort(survivors.begin(), survivors.end(),
                  [](const Survivor& a, const Survivor& b) {
                      return a.mtime != b.mtime ? a.mtime < b.mtime
                                                : a.name < b.name;
                  });
        for (const Survivor& victim : survivors) {
            if (report.record_bytes <= max_bytes) break;
            if (!hooks_->remove_file(cat(dir_, "/", victim.name))) continue;
            ++report.records_evicted;
            --report.records_ok;
            report.record_bytes -= victim.bytes;
            report.notes.push_back(cat(victim.name, ": evicted (size budget)"));
        }
    }
    return report;
}

Result_cache::Stats Result_cache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

}  // namespace islhls
