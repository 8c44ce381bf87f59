#include <gtest/gtest.h>

#include <numeric>

#include "support/error.hpp"
#include "support/numeric.hpp"

namespace islhls {
namespace {

TEST(Numeric, divisors_of_known_values) {
    EXPECT_EQ(divisors(1), (std::vector<int>{1}));
    EXPECT_EQ(divisors(10), (std::vector<int>{1, 2, 5, 10}));
    EXPECT_EQ(divisors(36), (std::vector<int>{1, 2, 3, 4, 6, 9, 12, 18, 36}));
    EXPECT_EQ(divisors(97), (std::vector<int>{1, 97}));  // prime
}

// Property sweep: every listed divisor divides, count matches brute force.
class Divisors_property : public ::testing::TestWithParam<int> {};

TEST_P(Divisors_property, matches_brute_force) {
    const int n = GetParam();
    const std::vector<int> ds = divisors(n);
    int brute = 0;
    for (int d = 1; d <= n; ++d) {
        if (n % d == 0) brute += 1;
    }
    EXPECT_EQ(static_cast<int>(ds.size()), brute);
    for (int d : ds) EXPECT_EQ(n % d, 0) << "n=" << n << " d=" << d;
    EXPECT_TRUE(std::is_sorted(ds.begin(), ds.end()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, Divisors_property,
                         ::testing::Values(1, 2, 3, 4, 6, 10, 12, 16, 24, 30, 49, 60,
                                           97, 100, 144, 210));

TEST(Numeric, ceil_div_rounds_up) {
    EXPECT_EQ(ceil_div(10, 3), 4);
    EXPECT_EQ(ceil_div(9, 3), 3);
    EXPECT_EQ(ceil_div(1, 5), 1);
    EXPECT_EQ(ceil_div(0, 5), 0);
}

TEST(Numeric, partitions_are_non_increasing_and_complete) {
    const auto parts = partitions_into(10, {1, 2, 3, 4, 5});
    // p(10) with parts <= 5 is 30.
    EXPECT_EQ(parts.size(), 30u);
    for (const auto& p : parts) {
        EXPECT_EQ(std::accumulate(p.begin(), p.end(), 0), 10);
        EXPECT_TRUE(std::is_sorted(p.rbegin(), p.rend()));
        for (int v : p) {
            EXPECT_GE(v, 1);
            EXPECT_LE(v, 5);
        }
    }
    // No duplicates.
    auto sorted = parts;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Numeric, partitions_respect_part_menu) {
    const auto parts = partitions_into(4, {2});
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], (std::vector<int>{2, 2}));
    EXPECT_TRUE(partitions_into(3, {2}).empty());
}

TEST(Numeric, fit_through_origin_matches_ratio) {
    EXPECT_NEAR(fit_through_origin({2.0}, {5.0}), 2.5, 1e-12);
    // Least squares of y = 2x with noise that cancels.
    EXPECT_NEAR(fit_through_origin({1.0, 2.0}, {2.1, 3.9}), (2.1 + 7.8) / 5.0, 1e-12);
}

TEST(Numeric, relative_error_definition) {
    EXPECT_NEAR(relative_error(105.0, 100.0), 0.05, 1e-12);
    EXPECT_NEAR(relative_error(95.0, 100.0), 0.05, 1e-12);
    EXPECT_NEAR(relative_error(3.0, 0.0), 3.0, 1e-12);  // falls back to absolute
}

TEST(Numeric, hash_is_deterministic_and_spreads) {
    EXPECT_EQ(hash_mix(42), hash_mix(42));
    EXPECT_NE(hash_mix(42), hash_mix(43));
    const double u = hash_to_unit(hash_mix(123456789));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
}

TEST(Numeric, hash_to_unit_is_roughly_uniform) {
    double sum = 0.0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) sum += hash_to_unit(hash_mix(static_cast<std::uint64_t>(i)));
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Numeric, guards_throw_internal_error) {
    EXPECT_THROW(divisors(0), Internal_error);
    EXPECT_THROW(fit_through_origin({0.0}, {1.0}), Internal_error);
}

}  // namespace
}  // namespace islhls
