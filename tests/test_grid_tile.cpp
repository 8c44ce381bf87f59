#include <gtest/gtest.h>

#include "grid/tile.hpp"
#include "support/error.hpp"

namespace islhls {
namespace {

TEST(Footprint, compose_is_minkowski_sum) {
    const Footprint a{1, 1, 1, 1};
    const Footprint b{0, 2, 1, 0};
    EXPECT_EQ(compose(a, b), (Footprint{1, 3, 2, 1}));
    // Composition is commutative for extents.
    EXPECT_EQ(compose(a, b), compose(b, a));
}

TEST(Footprint, repeat_scales_linearly) {
    const Footprint f{1, 2, 0, 1};
    EXPECT_EQ(repeat(f, 3), (Footprint{3, 6, 0, 3}));
    EXPECT_EQ(repeat(f, 0), (Footprint{}));
    EXPECT_THROW(repeat(f, -1), Internal_error);
}

// Property: repeat(f, a+b) == compose(repeat(f,a), repeat(f,b)).
class Repeat_property : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Repeat_property, repeat_splits_additively) {
    const auto [a, b] = GetParam();
    const Footprint f{2, 1, 1, 3};
    EXPECT_EQ(repeat(f, a + b), compose(repeat(f, a), repeat(f, b)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, Repeat_property,
                         ::testing::Values(std::pair{0, 0}, std::pair{1, 0},
                                           std::pair{1, 1}, std::pair{2, 3},
                                           std::pair{5, 5}));

TEST(Footprint, growth_helpers) {
    const Footprint f{1, 2, 3, 4};
    EXPECT_EQ(f.width_growth(), 3);
    EXPECT_EQ(f.height_growth(), 7);
    EXPECT_EQ(to_string(f), "{l:1 r:2 u:3 d:4}");
}

TEST(Window, input_window_grows_by_repeated_footprint) {
    const Window out{10, 20, 4, 4};
    const Footprint f{1, 1, 1, 1};
    const Window in = input_window_for(out, f, 3);
    EXPECT_EQ(in, (Window{7, 17, 10, 10}));
    EXPECT_EQ(in.element_count(), 100);
}

TEST(Window, asymmetric_halo) {
    const Window out{0, 0, 2, 2};
    const Footprint f{1, 0, 0, 2};  // reads left and below only
    const Window in = input_window_for(out, f, 2);
    EXPECT_EQ(in.x0, -2);
    EXPECT_EQ(in.y0, 0);
    EXPECT_EQ(in.width, 4);
    EXPECT_EQ(in.height, 6);
}

TEST(Window, depth_zero_is_identity) {
    const Window out{1, 2, 3, 4};
    EXPECT_EQ(input_window_for(out, Footprint{5, 5, 5, 5}, 0), out);
}

}  // namespace
}  // namespace islhls
