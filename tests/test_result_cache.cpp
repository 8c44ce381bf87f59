// Result_cache unit tests: round trips, atomic overwrite, directory
// lifecycle, verify/gc — and the corruption half of the fault contract:
// truncation at EVERY byte boundary and single-bit flips at EVERY bit must
// read back as a miss (quarantined), never as wrong data and never as an
// abort.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>

#include "support/error.hpp"
#include "support/result_cache.hpp"
#include "support/text.hpp"

namespace islhls {
namespace {

namespace fs = std::filesystem;

// Fresh directory per test, removed on teardown.
class Result_cache_test : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = (fs::temp_directory_path() /
                cat("islhls-cache-test-", ::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()))
                   .string();
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

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

TEST_F(Result_cache_test, round_trip_and_stats) {
    Result_cache cache(dir_);
    const std::string key = "some key\nwith lines\n";
    const std::string payload = std::string("payload with \0 byte", 19);
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_TRUE(cache.store(key, payload));
    const auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, payload);
    const Result_cache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.stores, 1);
    EXPECT_EQ(stats.store_failures, 0);
    EXPECT_EQ(stats.corrupt_quarantined, 0);
}

TEST_F(Result_cache_test, store_overwrites_and_survives_reopen) {
    {
        Result_cache cache(dir_);
        EXPECT_TRUE(cache.store("k", "old"));
        EXPECT_TRUE(cache.store("k", "new"));
        EXPECT_EQ(cache.load("k").value(), "new");
    }
    // A second process (fresh instance over the same directory) sees it.
    Result_cache reopened(dir_);
    EXPECT_EQ(reopened.load("k").value(), "new");
}

TEST_F(Result_cache_test, empty_key_and_empty_payload) {
    Result_cache cache(dir_);
    EXPECT_TRUE(cache.store("", ""));
    ASSERT_TRUE(cache.load("").has_value());
    EXPECT_EQ(cache.load("").value(), "");
}

TEST_F(Result_cache_test, creates_nested_directory_on_first_use) {
    const std::string nested = dir_ + "/a/b/c";
    Result_cache cache(nested);
    EXPECT_TRUE(cache.store("k", "v"));
    EXPECT_TRUE(fs::is_directory(nested));
}

TEST_F(Result_cache_test, path_is_a_file_is_a_named_io_error) {
    fs::create_directories(dir_);
    write_raw(dir_ + "/blocker", "");
    try {
        Result_cache cache(dir_ + "/blocker");
        FAIL() << "expected Io_error";
    } catch (const Islhls_error& e) {
        EXPECT_EQ(e.kind(), Error_kind::io);
        EXPECT_NE(std::string(e.what()).find("blocker"), std::string::npos);
    }
}

TEST_F(Result_cache_test, unwritable_directory_fails_at_construction) {
    // Tests may run as root (where permission bits do not bind), so
    // unwritability is injected through the hooks seam instead of chmod.
    Env_hooks hooks = real_env_hooks();
    hooks.write_file = [](const std::string&, const std::string&,
                          std::string* error) {
        *error = "No space left on device";
        return false;
    };
    try {
        Result_cache cache(dir_, &hooks);
        FAIL() << "expected Io_error";
    } catch (const Islhls_error& e) {
        EXPECT_EQ(e.kind(), Error_kind::io);
        EXPECT_NE(std::string(e.what()).find("not writable"), std::string::npos);
    }
}

TEST_F(Result_cache_test, enospc_store_is_soft) {
    Env_hooks hooks = real_env_hooks();
    bool fail_writes = false;
    hooks.write_file = [&](const std::string& path, const std::string& data,
                           std::string* error) {
        if (fail_writes) {
            *error = "No space left on device";
            return false;
        }
        return real_env_hooks().write_file(path, data, error);
    };
    Result_cache cache(dir_, &hooks);
    EXPECT_TRUE(cache.store("before", "x"));
    fail_writes = true;
    EXPECT_FALSE(cache.store("during", "y"));
    EXPECT_FALSE(cache.store("during", "y"));
    fail_writes = false;
    // Earlier records are intact, later stores recover.
    EXPECT_EQ(cache.load("before").value(), "x");
    EXPECT_FALSE(cache.load("during").has_value());
    EXPECT_TRUE(cache.store("after", "z"));
    EXPECT_EQ(cache.stats().store_failures, 2);
}

TEST_F(Result_cache_test, truncation_at_every_boundary_is_a_miss) {
    Result_cache cache(dir_);
    const std::string key = "truncation victim";
    const std::string payload = "0123456789 payload body";
    ASSERT_TRUE(cache.store(key, payload));
    const std::string path = cache.record_path(key);
    const std::string intact = read_raw(path);
    ASSERT_GT(intact.size(), 32u);
    for (std::size_t len = 0; len < intact.size(); ++len) {
        write_raw(path, intact.substr(0, len));
        const auto loaded = cache.load(key);
        EXPECT_FALSE(loaded.has_value()) << "truncated to " << len << " bytes";
        // The torn record was quarantined; re-store must succeed cleanly.
        ASSERT_TRUE(cache.store(key, payload));
        EXPECT_EQ(cache.load(key).value(), payload);
    }
    EXPECT_EQ(cache.stats().corrupt_quarantined,
              static_cast<long long>(intact.size()));
}

TEST_F(Result_cache_test, every_single_bit_flip_is_a_miss) {
    Result_cache cache(dir_);
    const std::string key = "bit flip victim";
    const std::string payload = "sensitive payload";
    ASSERT_TRUE(cache.store(key, payload));
    const std::string path = cache.record_path(key);
    const std::string intact = read_raw(path);
    for (std::size_t byte = 0; byte < intact.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string flipped = intact;
            flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
            write_raw(path, flipped);
            const auto loaded = cache.load(key);
            EXPECT_FALSE(loaded.has_value())
                << "bit " << bit << " of byte " << byte;
        }
    }
    write_raw(path, intact);
    EXPECT_EQ(cache.load(key).value(), payload);
}

TEST_F(Result_cache_test, random_garbage_fuzz_never_returns_data) {
    const std::uint64_t seed = std::random_device{}();
    SCOPED_TRACE(cat("seed ", seed));  // printed on failure for replay
    std::mt19937_64 rng(seed);
    Result_cache cache(dir_);
    const std::string key = "garbage victim";
    ASSERT_TRUE(cache.store(key, "real payload"));
    const std::string path = cache.record_path(key);
    for (int round = 0; round < 200; ++round) {
        std::string garbage(rng() % 128, '\0');
        for (char& c : garbage) c = static_cast<char>(rng());
        write_raw(path, garbage);
        const auto loaded = cache.load(key);
        // Either a miss, or — astronomically unlikely — random bytes that
        // form a valid record for this exact key carrying some payload; a
        // wrong payload for a validated record is the one impossible case.
        if (loaded.has_value()) {
            ADD_FAILURE() << "random garbage decoded as a valid record (round "
                          << round << ")";
        }
        ASSERT_TRUE(cache.store(key, "real payload"));
    }
}

TEST_F(Result_cache_test, verify_and_gc) {
    Result_cache cache(dir_);
    ASSERT_TRUE(cache.store("a", "1"));
    ASSERT_TRUE(cache.store("b", "2"));
    ASSERT_TRUE(cache.store("c", "3"));
    // One corrupt record (payload bit flipped, so the checksum catches it),
    // one orphaned temp, one foreign file.
    const std::string victim = cache.record_path("b");
    std::string raw = read_raw(victim);
    raw.back() = static_cast<char>(raw.back() ^ 0x40);
    write_raw(victim, raw);
    write_raw(dir_ + "/0123456789abcdef.rec.tmp7", "torn");
    write_raw(dir_ + "/README", "not a record");

    Result_cache::Verify_report verified = cache.verify(false);
    EXPECT_EQ(verified.records_ok, 2);
    EXPECT_EQ(verified.records_corrupt, 1);
    EXPECT_EQ(verified.temp_files, 1);
    EXPECT_EQ(verified.removed_files, 0);
    ASSERT_EQ(verified.notes.size(), 1u);
    EXPECT_NE(verified.notes[0].find("checksum mismatch"), std::string::npos);

    Result_cache::Verify_report collected = cache.verify(true);
    EXPECT_EQ(collected.records_ok, 2);
    EXPECT_EQ(collected.records_corrupt, 1);
    EXPECT_EQ(collected.removed_files, 2);  // corrupt record + temp orphan

    Result_cache::Verify_report clean = cache.verify(false);
    EXPECT_EQ(clean.records_ok, 2);
    EXPECT_EQ(clean.records_corrupt, 0);
    EXPECT_EQ(clean.temp_files, 0);
    // The foreign file was left alone.
    EXPECT_TRUE(fs::exists(dir_ + "/README"));
    // The survivors still load.
    EXPECT_EQ(cache.load("a").value(), "1");
    EXPECT_EQ(cache.load("c").value(), "3");
    EXPECT_FALSE(cache.load("b").has_value());
}

TEST_F(Result_cache_test, gc_size_budget_evicts_lru_and_keeps_survivors_warm) {
    Result_cache cache(dir_);
    ASSERT_TRUE(cache.store("old", "payload-old"));
    ASSERT_TRUE(cache.store("mid", "payload-mid"));
    ASSERT_TRUE(cache.store("new", "payload-new"));
    // Controlled mtimes so the LRU order is deterministic regardless of the
    // store timestamps' granularity.
    const auto now = fs::last_write_time(cache.record_path("new"));
    using namespace std::chrono_literals;
    fs::last_write_time(cache.record_path("old"), now - 2h);
    fs::last_write_time(cache.record_path("mid"), now - 1h);
    const long long total = cache.verify(false).record_bytes;
    const long long each = total / 3;
    ASSERT_EQ(total, 3 * each);  // equal-size records

    // Without gc the budget is ignored (verify never mutates).
    EXPECT_EQ(cache.verify(false, each).records_evicted, 0);
    EXPECT_EQ(cache.verify(false).records_ok, 3);

    // A budget of two records evicts exactly the oldest.
    Result_cache::Verify_report report = cache.verify(true, 2 * each);
    EXPECT_EQ(report.records_evicted, 1);
    EXPECT_EQ(report.records_ok, 2);
    EXPECT_EQ(report.record_bytes, 2 * each);
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes[0].find("evicted"), std::string::npos);
    EXPECT_FALSE(fs::exists(cache.record_path("old")));

    // The warm-hit contract holds for the survivors: both still load, and
    // the evicted key degrades to a plain miss.
    EXPECT_EQ(cache.load("mid").value(), "payload-mid");
    EXPECT_EQ(cache.load("new").value(), "payload-new");
    EXPECT_FALSE(cache.load("old").has_value());

    // A budget the records already fit evicts nothing.
    EXPECT_EQ(cache.verify(true, 2 * each).records_evicted, 0);
    // A zero budget clears every valid record.
    EXPECT_EQ(cache.verify(true, 0).records_evicted, 2);
    EXPECT_EQ(cache.verify(false).records_ok, 0);
}

TEST_F(Result_cache_test, quarantine_prevents_rereading_corruption) {
    Result_cache cache(dir_);
    ASSERT_TRUE(cache.store("k", "v"));
    const std::string path = cache.record_path("k");
    write_raw(path, "garbage garbage garbage garbage garbage");
    EXPECT_FALSE(cache.load("k").has_value());
    // The corrupt image was moved aside, not left in place.
    EXPECT_FALSE(fs::exists(path));
    EXPECT_EQ(cache.verify(false).quarantined_files, 1);
    EXPECT_EQ(cache.verify(true).removed_files, 1);
}

TEST_F(Result_cache_test, stale_lock_from_dead_holder_is_taken_over) {
    Env_hooks hooks = real_env_hooks();
    hooks.process_alive = [](std::int64_t) { return false; };  // holder died
    Result_cache cache(dir_, &hooks);
    // A crashed writer's leftover lock file.
    write_raw(cache.lock_path(), "999999 0\n");
    EXPECT_TRUE(cache.store("k", "v"));
    EXPECT_EQ(cache.load("k").value(), "v");
    EXPECT_GE(cache.stats().lock_takeovers, 1);
    EXPECT_EQ(cache.stats().lock_timeouts, 0);
    // The taken-over lock was released after the store.
    EXPECT_FALSE(fs::exists(cache.lock_path()));
}

TEST_F(Result_cache_test, garbage_lock_content_counts_as_stale) {
    Result_cache cache(dir_);
    write_raw(cache.lock_path(), "not a pid stamp\n");
    EXPECT_TRUE(cache.store("k", "v"));
    EXPECT_GE(cache.stats().lock_takeovers, 1);
    EXPECT_FALSE(fs::exists(cache.lock_path()));
}

TEST_F(Result_cache_test, held_lock_times_out_to_an_unlocked_store) {
    // A live, fresh holder that never releases: the contender must give up
    // after the bounded wait and store unlocked rather than wedging. The
    // injected clock advances only through sleep_ms, so the test is instant.
    Env_hooks hooks = real_env_hooks();
    std::int64_t fake_now = 0;
    hooks.now_ms = [&] { return fake_now; };
    hooks.sleep_ms = [&](std::int64_t ms) { fake_now += ms; };
    hooks.process_alive = [](std::int64_t) { return true; };
    Result_cache cache(dir_, &hooks);
    write_raw(cache.lock_path(), "123456 0\n");
    EXPECT_TRUE(cache.store("k", "v"));
    EXPECT_EQ(cache.load("k").value(), "v");
    EXPECT_EQ(cache.stats().lock_timeouts, 1);
    EXPECT_EQ(cache.stats().lock_takeovers, 0);
    // The foreign holder's lock was left untouched.
    EXPECT_EQ(read_raw(cache.lock_path()), "123456 0\n");
}

TEST_F(Result_cache_test, own_orphaned_lock_is_taken_over_without_waiting) {
    // The stamp carries this process's own live pid: an earlier unlink of
    // it failed. Every in-process holder waits on the directory's shared
    // mutex first, so nobody here can hold the lock — the store takes it
    // over at once instead of sleeping through the bounded wait. The clock
    // is injected and advances only through sleep_ms.
    Env_hooks hooks = real_env_hooks();
    std::int64_t fake_now = 0;
    int sleeps = 0;
    hooks.now_ms = [&] { return fake_now; };
    hooks.sleep_ms = [&](std::int64_t ms) {
        ++sleeps;
        fake_now += ms;
    };
    Result_cache cache(dir_, &hooks);
    write_raw(cache.lock_path(), cat(static_cast<long long>(::getpid()), " 0\n"));
    EXPECT_TRUE(cache.store("k", "v"));
    EXPECT_EQ(sleeps, 0);
    EXPECT_EQ(cache.stats().lock_takeovers, 1);
    EXPECT_EQ(cache.stats().lock_timeouts, 0);
    EXPECT_FALSE(fs::exists(cache.lock_path()));
}

TEST_F(Result_cache_test, failed_lock_unlink_never_stalls_later_stores) {
    // Lock unlinks fail, so every store leaves its stamp behind. Later
    // stores — through the same cache and through a second cache open on
    // the same directory — must neither sleep nor time out.
    Env_hooks hooks = real_env_hooks();
    std::int64_t fake_now = 0;
    int sleeps = 0;
    hooks.now_ms = [&] { return fake_now; };
    hooks.sleep_ms = [&](std::int64_t ms) {
        ++sleeps;
        fake_now += ms;
    };
    hooks.remove_file = [](const std::string& path) {
        return !ends_with(path, ".islhls.lock") && real_env_hooks().remove_file(path);
    };
    Result_cache first(dir_, &hooks);
    Result_cache second(dir_ + "/.", &hooks);  // another spelling, same directory
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(first.store(cat("a", i), "v"));
        EXPECT_TRUE(second.store(cat("b", i), "v"));
    }
    EXPECT_EQ(sleeps, 0);
    EXPECT_EQ(first.stats().lock_timeouts + second.stats().lock_timeouts, 0);
    EXPECT_EQ(first.stats().lock_takeovers + second.stats().lock_takeovers, 5);
    EXPECT_EQ(second.load("a2").value(), "v");
}

TEST_F(Result_cache_test, hooks_without_lock_primitives_run_unlocked) {
    Env_hooks hooks = real_env_hooks();
    hooks.create_exclusive = nullptr;
    hooks.process_alive = nullptr;
    Result_cache cache(dir_, &hooks);
    EXPECT_TRUE(cache.store("k", "v"));
    EXPECT_EQ(cache.load("k").value(), "v");
    EXPECT_EQ(cache.verify(true).records_ok, 1);
    EXPECT_FALSE(fs::exists(cache.lock_path()));
}

TEST_F(Result_cache_test, two_processes_store_and_gc_concurrently_without_loss) {
    constexpr int kRecords = 40;
    {
        Result_cache setup(dir_);  // create the directory up front
    }
    std::vector<pid_t> children;
    for (int child = 0; child < 2; ++child) {
        const pid_t pid = ::fork();
        ASSERT_NE(pid, -1);
        if (pid == 0) {
            // Child process: no gtest assertions here — report through the
            // exit status only, and _exit so no parent state unwinds twice.
            int failures = 0;
            try {
                Result_cache cache(dir_);
                for (int i = 0; i < kRecords; ++i) {
                    const std::string key = cat("key-", i);
                    if (!cache.store(key, cat("payload-", child, "-", i))) {
                        ++failures;
                    }
                    // Interleave full gc passes with the other process's
                    // stores: without the directory lock these would sweep
                    // away its in-flight temp files.
                    if (i % 8 == child) cache.verify(true);
                    if (!cache.load(key).has_value()) ++failures;
                }
            } catch (...) {
                failures = 99;
            }
            ::_exit(failures == 0 ? 0 : 1);
        }
        children.push_back(pid);
    }
    for (pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }
    // Every key survives with one of the two writers' payloads, and the
    // directory verifies clean: nothing torn, quarantined or orphaned.
    Result_cache cache(dir_);
    for (int i = 0; i < kRecords; ++i) {
        const auto loaded = cache.load(cat("key-", i));
        ASSERT_TRUE(loaded.has_value()) << "key-" << i << " lost";
        EXPECT_TRUE(*loaded == cat("payload-0-", i) ||
                    *loaded == cat("payload-1-", i))
            << "key-" << i << " holds torn payload '" << *loaded << "'";
    }
    const Result_cache::Verify_report report = cache.verify(false);
    EXPECT_EQ(report.records_ok, kRecords);
    EXPECT_EQ(report.records_corrupt, 0);
    EXPECT_EQ(report.quarantined_files, 0);
    EXPECT_EQ(report.temp_files, 0);
}

TEST_F(Result_cache_test, fnv1a64_reference_values) {
    // Published FNV-1a test vectors.
    EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171F73967E8ULL);
}

}  // namespace
}  // namespace islhls
