// Table rendering, PRNG determinism and the logging threshold.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>

#include "support/cache_info.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"

namespace islhls {
namespace {

TEST(Table, renders_aligned_columns) {
    Table t({"a", "long_header"});
    t.add(1, "x");
    t.add(22, "yy");
    const std::string text = t.to_text();
    EXPECT_NE(text.find("a  long_header"), std::string::npos);
    EXPECT_NE(text.find("1            x"), std::string::npos);
    EXPECT_EQ(t.row_count(), 2u);
    EXPECT_EQ(t.column_count(), 2u);
}

TEST(Table, rejects_wrong_arity_rows) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only one"}), Internal_error);
    EXPECT_THROW(t.add(1, 2, 3), Internal_error);
}

TEST(Table, csv_escapes_delimiters_and_quotes) {
    Table t({"name", "value"});
    t.add("with,comma", "say \"hi\"");
    const std::string csv = t.to_csv();
    EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, csv_round_numbers_plain) {
    Table t({"v"});
    t.add(42);
    EXPECT_EQ(t.to_csv(), "v\n42\n");
}

TEST(Prng, same_seed_same_stream) {
    Prng a(7);
    Prng b(7);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Prng, different_seeds_differ) {
    Prng a(7);
    Prng b(8);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Prng, unit_range_and_mean) {
    Prng rng(123);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.next_unit();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Prng, int_range_inclusive) {
    Prng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int v = rng.next_int(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(rng.next_int(3, 2), Internal_error);
}

TEST(Prng, gaussian_moments) {
    Prng rng(77);
    double sum = 0.0;
    double sum_sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.next_gaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Cache_info, probe_is_sane_and_stable) {
    const Cache_topology& t = cache_topology();
    // Every level is filled (probe or fallback), the struct normalizes
    // llc >= l2, and the one-shot probe hands back the same object forever.
    EXPECT_GE(t.l1d_bytes, 1u * 1024);
    EXPECT_GE(t.l2_bytes, t.l1d_bytes / 8);
    EXPECT_GE(t.llc_bytes, t.l2_bytes);
    // The clamp only ever shrinks the raw probe, and records when it did.
    EXPECT_GE(t.raw_llc_bytes, t.llc_bytes);
    EXPECT_EQ(t.llc_clamped, t.llc_bytes < t.raw_llc_bytes);
    EXPECT_EQ(&t, &cache_topology());
    const std::string text = to_string(t);
    EXPECT_NE(text.find("L1d"), std::string::npos);
    EXPECT_NE(text.find("LLC"), std::string::npos);
    EXPECT_NE(text.find(t.probed ? "probed" : "fallback"), std::string::npos);
    if (t.llc_clamped) {
        EXPECT_NE(text.find("clamped from"), std::string::npos);
    }
}

TEST(Cache_info, cpu_list_counting) {
    EXPECT_EQ(count_cpu_list("0"), 1);
    EXPECT_EQ(count_cpu_list("0-3"), 4);
    EXPECT_EQ(count_cpu_list("0-3,8-11"), 8);
    EXPECT_EQ(count_cpu_list("0,2,4"), 3);
    EXPECT_EQ(count_cpu_list("0-63\n"), 64);
    // Malformed lists count as unknown, never as a partial number.
    EXPECT_EQ(count_cpu_list(""), 0);
    EXPECT_EQ(count_cpu_list("0-"), 0);
    EXPECT_EQ(count_cpu_list("3-1"), 0);
    EXPECT_EQ(count_cpu_list("0,,2"), 0);
    EXPECT_EQ(count_cpu_list("abc"), 0);
}

TEST(Cache_info, llc_clamp_arithmetic) {
    constexpr std::size_t kMiB = 1024u * 1024;
    // The CI-container bug this fixes: a 1-vCPU cgroup on a 64-core host
    // with a 260 MiB shared LLC must not budget 260 MiB of tiles.
    EXPECT_EQ(clamp_llc_bytes(260 * kMiB, 2 * kMiB, 0, 64, 1),
              260 * kMiB / 64);
    // A cgroup memory limit caps the budget at half the limit.
    EXPECT_EQ(clamp_llc_bytes(260 * kMiB, 2 * kMiB, 64 * kMiB, 64, 64),
              32 * kMiB);
    // Both clamps: the tighter one wins.
    EXPECT_EQ(clamp_llc_bytes(260 * kMiB, 2 * kMiB, 64 * kMiB, 64, 1),
              260 * kMiB / 64);
    // Unknown inputs clamp nothing.
    EXPECT_EQ(clamp_llc_bytes(32 * kMiB, 2 * kMiB, 0, 0, 0), 32 * kMiB);
    // All cpus online: no per-core cut on bare metal.
    EXPECT_EQ(clamp_llc_bytes(32 * kMiB, 2 * kMiB, 0, 16, 16), 32 * kMiB);
    // The floor: the budget never drops below L2...
    EXPECT_EQ(clamp_llc_bytes(260 * kMiB, 4 * kMiB, 0, 256, 1), 4 * kMiB);
    EXPECT_EQ(clamp_llc_bytes(260 * kMiB, 4 * kMiB, 1 * kMiB, 64, 64), 4 * kMiB);
    // ...but also never exceeds the probe, even when L2 tables are weird.
    EXPECT_EQ(clamp_llc_bytes(3 * kMiB, 4 * kMiB, 0, 256, 1), 3 * kMiB);
}

TEST(Cache_info, llc_budget_respects_the_cgroup_allowance) {
    // Sanity on the machine actually running the tests: wherever a cgroup
    // memory limit is readable, the probed budget must fit inside it (half
    // the limit, floored at L2) — the exec engine sizes tile working sets
    // from llc_bytes, and a budget above the allowance invites the OOM
    // killer on CI runners.
    std::size_t limit = 0;
    for (const char* path : {"/sys/fs/cgroup/memory.max",
                             "/sys/fs/cgroup/memory/memory.limit_in_bytes"}) {
        std::ifstream in(path);
        std::string text;
        if (!in || !std::getline(in, text) || text.empty() || text == "max") {
            continue;
        }
        const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
        if (value == 0 || value >= (1ull << 60)) continue;
        limit = static_cast<std::size_t>(value);
        break;
    }
    if (limit == 0) {
        GTEST_SKIP() << "no cgroup memory limit on this host";
    }
    const Cache_topology& t = cache_topology();
    EXPECT_LE(t.llc_bytes, std::max(limit / 2, t.l2_bytes));
}

}  // namespace
}  // namespace islhls
