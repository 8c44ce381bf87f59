// Fault-injection harness for the sweep service: every fault the Env_hooks
// seam can produce — ENOSPC, torn writes, orphaned temp files, bit-flipped
// records, stuck requests on a frozen clock — is driven through a REAL sweep,
// and the contract is always the same: the run completes with a
// byte-identical report table and zero aborts; the cache degrades to
// recompute instead of failing the request.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <vector>

#include "core/service.hpp"
#include "core/sweep.hpp"
#include "support/error.hpp"
#include "support/result_cache.hpp"
#include "support/text.hpp"

namespace islhls {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
    const std::string dir =
        (fs::temp_directory_path() / cat("islhls-fault-test-", name)).string();
    fs::remove_all(dir);
    return dir;
}

Sweep_config small_config() {
    Sweep_config config;
    config.kernels = {"igf"};
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {2};
    config.frame_width = 64;
    config.frame_height = 48;
    config.space.max_window = 3;
    config.space.max_depth = 2;
    config.validate = true;
    config.search_formats = true;
    config.format_search.target_psnr_db = 45.0;
    return config;
}

std::string read_raw(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void write_raw(const std::string& path, const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
}

std::vector<std::string> record_files(const std::string& dir) {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".rec") {
            files.push_back(entry.path().string());
        }
    }
    return files;
}

// The reference table every faulted run must reproduce byte for byte.
std::string reference_table() {
    static const std::string table =
        report_table(Sweep_service().run(small_config()));
    return table;
}

TEST(Fault_injection, enospc_during_sweep_degrades_to_uncached) {
    const std::string dir = fresh_dir("enospc");
    // The directory exists and passes the construction probe; the disk
    // "fills up" before the first record is stored.
    std::atomic<bool> fail_writes{false};
    Env_hooks hooks = real_env_hooks();
    hooks.write_file = [&](const std::string& path, const std::string& data,
                           std::string* error) {
        if (fail_writes.load()) {
            *error = "No space left on device";
            return false;
        }
        return real_env_hooks().write_file(path, data, error);
    };
    Service_options options;
    options.cache_dir = dir;
    options.hooks = &hooks;
    Sweep_service service(options);
    fail_writes = true;

    const Sweep_report report = service.run(small_config());
    EXPECT_EQ(report_table(report), reference_table());
    EXPECT_EQ(report.entry_stores, 0);  // nothing could be persisted...
    EXPECT_GT(service.cache()->stats().store_failures, 0);
    EXPECT_TRUE(record_files(dir).empty());

    // ...and once space frees up, the same service stores on the next run.
    fail_writes = false;
    const Sweep_report recovered = service.run(small_config());
    EXPECT_EQ(report_table(recovered), reference_table());
    EXPECT_GT(recovered.entry_stores, 0);
    EXPECT_FALSE(record_files(dir).empty());
    fs::remove_all(dir);
}

TEST(Fault_injection, torn_writes_are_quarantined_not_trusted) {
    const std::string dir = fresh_dir("torn");
    // Every write persists only the first half of its data — the classic
    // power-cut-mid-write image. The rename still happens, so the cache
    // directory fills with plausible-looking torn records.
    std::atomic<bool> tear{false};
    Env_hooks hooks = real_env_hooks();
    hooks.write_file = [&](const std::string& path, const std::string& data,
                           std::string* error) {
        const std::string written =
            tear.load() ? data.substr(0, data.size() / 2) : data;
        return real_env_hooks().write_file(path, written, error);
    };
    {
        Service_options options;
        options.cache_dir = dir;
        options.hooks = &hooks;
        Sweep_service service(options);
        tear = true;
        const Sweep_report report = service.run(small_config());
        EXPECT_EQ(report_table(report), reference_table());
        ASSERT_FALSE(record_files(dir).empty());
    }
    // The "next process" reads the torn directory with healthy hooks: every
    // record fails validation, is quarantined, and the sweep recomputes —
    // byte-identically, without a single abort.
    Service_options options;
    options.cache_dir = dir;
    Sweep_service service(options);
    const Sweep_report report = service.run(small_config());
    EXPECT_EQ(report_table(report), reference_table());
    EXPECT_EQ(report.entry_hits, 0);
    EXPECT_EQ(report.entry_misses, 1);
    EXPECT_GT(service.cache()->stats().corrupt_quarantined, 0);
    // The recomputed records replaced the torn ones: a third run is warm.
    Sweep_service warm(options);
    const Sweep_report rewarmed = warm.run(small_config());
    EXPECT_EQ(report_table(rewarmed), reference_table());
    EXPECT_EQ(rewarmed.entry_hits, 1);
    EXPECT_EQ(rewarmed.synthesis_runs, 0);
    fs::remove_all(dir);
}

TEST(Fault_injection, orphaned_temps_from_failed_renames_are_collected) {
    const std::string dir = fresh_dir("orphans");
    // Renames fail and the cleanup unlink "fails" too (crash between write
    // and rename): temp files pile up as orphans.
    std::atomic<bool> fault{false};
    Env_hooks hooks = real_env_hooks();
    hooks.rename_file = [&](const std::string& from, const std::string& to,
                            std::string* error) {
        if (fault.load()) {
            *error = "Input/output error";
            return false;
        }
        return real_env_hooks().rename_file(from, to, error);
    };
    hooks.remove_file = [&](const std::string& path) {
        if (fault.load()) return false;
        return real_env_hooks().remove_file(path);
    };
    Service_options options;
    options.cache_dir = dir;
    options.hooks = &hooks;
    Sweep_service service(options);
    fault = true;
    const Sweep_report report = service.run(small_config());
    EXPECT_EQ(report_table(report), reference_table());
    EXPECT_EQ(report.entry_stores, 0);
    EXPECT_GT(service.cache()->stats().store_failures, 0);
    fault = false;

    // Only temp orphans in the directory: no record ever landed.
    Result_cache inspector(dir);
    Result_cache::Verify_report verified = inspector.verify(false);
    EXPECT_EQ(verified.records_ok, 0);
    EXPECT_GT(verified.temp_files, 0);
    // gc sweeps them; the next run stores cleanly into the emptied dir.
    EXPECT_EQ(inspector.verify(true).removed_files, verified.temp_files);
    const Sweep_report clean = service.run(small_config());
    EXPECT_EQ(report_table(clean), reference_table());
    EXPECT_GT(clean.entry_stores, 0);
    fs::remove_all(dir);
}

TEST(Fault_injection, bit_flips_in_every_record_fall_back_to_recompute) {
    const std::string dir = fresh_dir("bitflips");
    Service_options options;
    options.cache_dir = dir;
    {
        Sweep_service service(options);
        service.run(small_config());
    }
    const std::vector<std::string> files = record_files(dir);
    ASSERT_FALSE(files.empty());
    // Flip one random bit in EVERY record under a printed seed.
    const std::uint64_t seed = std::random_device{}();
    SCOPED_TRACE(cat("seed ", seed));  // printed on failure for replay
    std::mt19937_64 rng(seed);
    for (const std::string& file : files) {
        std::string raw = read_raw(file);
        ASSERT_FALSE(raw.empty());
        const std::size_t byte = rng() % raw.size();
        raw[byte] = static_cast<char>(raw[byte] ^ (1 << (rng() % 8)));
        write_raw(file, raw);
    }
    // The warm run sees only corruption — and still reproduces the report
    // byte for byte with zero aborts, quarantining as it goes.
    Sweep_service service(options);
    const Sweep_report report = service.run(small_config());
    EXPECT_EQ(report_table(report), reference_table());
    EXPECT_EQ(report.entry_hits, 0);
    EXPECT_EQ(report.synthesis_loads, 0);
    EXPECT_GT(service.cache()->stats().corrupt_quarantined, 0);
    // verify+gc clears the quarantine debris left beside the fresh records.
    Result_cache inspector(dir);
    inspector.verify(true);
    Result_cache::Verify_report clean = inspector.verify(false);
    EXPECT_GT(clean.records_ok, 0);
    EXPECT_EQ(clean.records_corrupt, 0);
    EXPECT_EQ(clean.quarantined_files, 0);
    fs::remove_all(dir);
}

TEST(Fault_injection, stuck_request_times_out_then_service_recovers) {
    // A controllable clock: each now_ms read advances `tick` ms, so a job
    // whose work loop reads the clock at checkpoints "takes" as long as we
    // say it does — no real waiting anywhere.
    struct Clock {
        std::atomic<std::int64_t> now{0};
        std::atomic<std::int64_t> tick{0};
        std::atomic<int> sleeps{0};
    } clock;
    Env_hooks hooks = real_env_hooks();
    hooks.now_ms = [&clock] {
        return clock.now.fetch_add(clock.tick.load()) + clock.tick.load();
    };
    hooks.sleep_ms = [&clock](std::int64_t ms) {
        ++clock.sleeps;
        clock.now.fetch_add(ms);
    };
    Service_options options;
    options.hooks = &hooks;
    options.deadline_ms = 10;
    options.max_attempts = 2;
    Sweep_service service(options);

    clock.tick = 50;  // every clock read blows the 10ms deadline
    std::vector<Request_outcome> outcomes =
        service.run_requests({small_config()});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].kind, Error_kind::timeout);
    EXPECT_EQ(outcomes[0].attempts, 2);  // timeouts are transient: retried
    EXPECT_GT(clock.sleeps.load(), 0);   // backoff between the attempts

    // The clock unfreezes; the SAME service serves the request fine.
    clock.tick = 0;
    outcomes = service.run_requests({small_config()});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_EQ(report_table(outcomes[0].report), reference_table());
}

TEST(Fault_injection, batch_survives_mixed_faults_and_bad_requests) {
    const std::string dir = fresh_dir("mixed");
    // Reads fail hard (not "missing" — an actual I/O error) while a batch
    // with a bad request in the middle drains: good requests recompute and
    // succeed, the bad one fails with its own taxonomy kind.
    Env_hooks hooks = real_env_hooks();
    hooks.read_file = [](const std::string&, std::string*, std::string* error) {
        *error = "Input/output error";
        return Env_hooks::Read_result::error;
    };
    Service_options options;
    options.cache_dir = dir;
    options.hooks = &hooks;
    Sweep_service service(options);

    Sweep_config bad = small_config();
    bad.iteration_counts = {-3};
    const std::vector<Request_outcome> outcomes =
        service.run_requests({small_config(), bad, small_config()});
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_EQ(report_table(outcomes[0].report), reference_table());
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_EQ(outcomes[1].kind, Error_kind::user);
    EXPECT_TRUE(outcomes[2].ok);
    EXPECT_TRUE(outcomes[2].deduplicated);
    fs::remove_all(dir);
}

}  // namespace
}  // namespace islhls
