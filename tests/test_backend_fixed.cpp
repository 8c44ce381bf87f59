#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "backend/fixed_point.hpp"
#include "support/prng.hpp"

namespace islhls {
namespace {

TEST(Fixed_point, format_metadata) {
    const Fixed_format q10_6{10, 6};
    EXPECT_EQ(q10_6.total_bits(), 16);
    EXPECT_EQ(q10_6.scale(), 64.0);
    EXPECT_EQ(q10_6.resolution(), 1.0 / 64.0);
    EXPECT_DOUBLE_EQ(q10_6.max_value(), (32768.0 - 1.0) / 64.0);
    EXPECT_DOUBLE_EQ(q10_6.min_value(), -32768.0 / 64.0);
    EXPECT_EQ(to_string(q10_6), "Q10.6");
}

TEST(Fixed_point, exact_values_round_trip) {
    const Fixed_format fmt{8, 8};
    for (double v : {0.0, 1.0, -1.0, 0.5, -0.25, 127.99609375, -128.0}) {
        EXPECT_EQ(quantize(v, fmt), v) << v;
    }
}

TEST(Fixed_point, rounding_to_nearest) {
    const Fixed_format fmt{8, 2};  // resolution 0.25
    EXPECT_EQ(quantize(0.3, fmt), 0.25);
    EXPECT_EQ(quantize(0.4, fmt), 0.5);
    EXPECT_EQ(quantize(-0.3, fmt), -0.25);
    // Ties to even (nearbyint default rounding).
    EXPECT_EQ(quantize(0.125, fmt), 0.0);
    EXPECT_EQ(quantize(0.375, fmt), 0.5);
}

// The quantizer's inline rounding is std::nearbyint under the default
// rounding mode, bit for bit: ties to even, signed zeros, the 2^52 edge
// where every double becomes an integer, and values beyond it.
TEST(Fixed_point, quantizer_rounding_is_nearbyint) {
    std::vector<double> values = {0.0,  -0.0,  0.25,   -0.25, 0.5,     -0.5,  1.5,
                                  -1.5, 2.5,   -2.5,   0.75,  -0.75,   1e300, -1e300,
                                  1e-310, -1e-310, 0x1p52, -0x1p52, 0x1p53, -0x1p53,
                                  HUGE_VAL, -HUGE_VAL};
    for (const double base : {0x1p51, 0x1p52}) {
        for (const double d : {-1.5, -1.0, -0.5, 0.5}) {
            values.push_back(base + d);
            values.push_back(-(base + d));
        }
    }
    Prng rng(7);
    for (int i = 0; i < 1000; ++i) values.push_back(rng.next_in(-1e6, 1e6));
    for (const double v : values) {
        const double got = Raw_quantizer::round_even(v);
        const double want = std::nearbyint(v);
        EXPECT_EQ(0, std::memcmp(&got, &want, sizeof got)) << v;
    }
}

TEST(Fixed_point, saturation_at_range_ends) {
    const Fixed_format fmt{4, 4};  // range [-8, 7.9375]
    EXPECT_EQ(quantize(100.0, fmt), fmt.max_value());
    EXPECT_EQ(quantize(-100.0, fmt), fmt.min_value());
    EXPECT_EQ(to_raw(100.0, fmt), 127);
    EXPECT_EQ(to_raw(-100.0, fmt), -128);
}

TEST(Fixed_point, raw_conversion_is_scaling) {
    const Fixed_format fmt{10, 6};
    EXPECT_EQ(to_raw(1.0, fmt), 64);
    EXPECT_EQ(to_raw(-2.5, fmt), -160);
    EXPECT_EQ(from_raw(64, fmt), 1.0);
    EXPECT_EQ(from_raw(-160, fmt), -2.5);
}

// Property: quantization error is bounded by half an LSB inside the range.
class Quantize_property : public ::testing::TestWithParam<Fixed_format> {};

TEST_P(Quantize_property, error_within_half_lsb) {
    const Fixed_format fmt = GetParam();
    Prng rng(404);
    const double lo = fmt.min_value();
    const double hi = fmt.max_value();
    for (int i = 0; i < 2000; ++i) {
        const double v = rng.next_in(lo, hi);
        const double q = quantize(v, fmt);
        EXPECT_LE(std::fabs(q - v), fmt.resolution() / 2.0 + 1e-15);
        // Idempotence.
        EXPECT_EQ(quantize(q, fmt), q);
    }
}

INSTANTIATE_TEST_SUITE_P(Formats, Quantize_property,
                         ::testing::Values(Fixed_format{8, 8}, Fixed_format{10, 6},
                                           Fixed_format{4, 12}, Fixed_format{12, 4},
                                           Fixed_format{6, 2}),
                         [](const auto& info) {
                             std::string name = "Q";
                             name += std::to_string(info.param.integer_bits);
                             name += "_";
                             name += std::to_string(info.param.frac_bits);
                             return name;
                         });

}  // namespace
}  // namespace islhls
