// Frame sets, generators, metrics and PGM round trips.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "grid/frame_io.hpp"
#include "grid/frame_ops.hpp"
#include "grid/frame_set.hpp"
#include "support/error.hpp"

namespace islhls {
namespace {

TEST(Frame_set, add_and_lookup) {
    Frame_set fs(4, 3);
    fs.add_field("u");
    fs.add_field("g", Frame(4, 3, 2.0));
    EXPECT_EQ(fs.field_count(), 2u);
    EXPECT_TRUE(fs.has_field("u"));
    EXPECT_FALSE(fs.has_field("v"));
    EXPECT_EQ(fs.field("g").at(0, 0), 2.0);
    EXPECT_EQ(fs.names(), (std::vector<std::string>{"u", "g"}));
    EXPECT_EQ(&fs.frame_at(1), &fs.field("g"));  // positions follow insertion
}

TEST(Frame_set, rejects_duplicates_and_size_mismatch) {
    Frame_set fs(4, 3);
    fs.add_field("u");
    const auto message = [](const auto& call) {
        try {
            call();
        } catch (const Error& e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    EXPECT_EQ(message([&] { fs.add_field("u"); }), "duplicate field 'u'");
    EXPECT_THROW(fs.add_field("w", Frame(5, 3)), Error);
    EXPECT_EQ(message([&] { fs.field("missing"); }), "unknown field 'missing'");
}

TEST(Generators, gradient_endpoints) {
    const Frame g = make_gradient(5, 2, 0.0, 100.0);
    EXPECT_EQ(g.at(0, 0), 0.0);
    EXPECT_EQ(g.at(4, 1), 100.0);
    EXPECT_EQ(g.at(2, 0), 50.0);
}

TEST(Generators, checkerboard_alternates) {
    const Frame c = make_checkerboard(4, 4, 2, 0.0, 1.0);
    EXPECT_EQ(c.at(0, 0), 0.0);
    EXPECT_EQ(c.at(2, 0), 1.0);
    EXPECT_EQ(c.at(0, 2), 1.0);
    EXPECT_EQ(c.at(2, 2), 0.0);
}

TEST(Generators, impulse_single_nonzero) {
    const Frame i = make_impulse(5, 5, 2, 3, 7.0);
    EXPECT_EQ(i.at(2, 3), 7.0);
    EXPECT_EQ(element_sum(i), 7.0);
}

TEST(Generators, noise_is_seed_deterministic) {
    const Frame a = make_noise(8, 8, 42);
    const Frame b = make_noise(8, 8, 42);
    const Frame c = make_noise(8, 8, 43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(Generators, synthetic_scene_in_8bit_range) {
    const Frame s = make_synthetic_scene(32, 24, 1);
    for (double v : s.data()) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 255.0);
    }
}

TEST(Metrics, known_values) {
    Frame a(2, 1);
    Frame b(2, 1);
    a.at(0, 0) = 1.0;
    a.at(1, 0) = 2.0;
    b.at(0, 0) = 1.0;
    b.at(1, 0) = 5.0;
    EXPECT_EQ(max_abs_diff(a, b), 3.0);
    EXPECT_NEAR(rmse(a, b), std::sqrt(4.5), 1e-12);
    EXPECT_TRUE(std::isinf(psnr(a, a)));
    EXPECT_NEAR(psnr(a, b, 255.0), 20.0 * std::log10(255.0 / std::sqrt(4.5)), 1e-9);
}

TEST(Pgm, binary_round_trip) {
    const Frame original = make_noise(17, 9, 5, 0.0, 255.0);
    std::stringstream ss;
    write_pgm(original, ss);
    const Frame loaded = read_pgm(ss);
    ASSERT_EQ(loaded.width(), 17);
    ASSERT_EQ(loaded.height(), 9);
    // Values are rounded to integers on save.
    for (int y = 0; y < 9; ++y) {
        for (int x = 0; x < 17; ++x) {
            EXPECT_NEAR(loaded.at(x, y), original.at(x, y), 0.5 + 1e-9);
        }
    }
}

TEST(Pgm, ascii_p2_parses_with_comments) {
    std::stringstream ss("P2\n# a comment\n2 2\n255\n0 128\n64 255\n");
    const Frame f = read_pgm(ss);
    EXPECT_EQ(f.at(0, 0), 0.0);
    EXPECT_EQ(f.at(1, 0), 128.0);
    EXPECT_EQ(f.at(0, 1), 64.0);
    EXPECT_EQ(f.at(1, 1), 255.0);
}

TEST(Pgm, malformed_inputs_throw) {
    std::stringstream bad_magic("P7\n1 1\n255\n");
    EXPECT_THROW(read_pgm(bad_magic), Io_error);
    std::stringstream truncated("P5\n4 4\n255\nxx");
    EXPECT_THROW(read_pgm(truncated), Io_error);
    std::stringstream nonsense("P5\nwide 4\n255\n");
    EXPECT_THROW(read_pgm(nonsense), Io_error);
    EXPECT_THROW(load_pgm("/nonexistent/path/img.pgm"), Io_error);
}

TEST(Pgm, clipping_on_save) {
    Frame f(2, 1);
    f.at(0, 0) = -10.0;
    f.at(1, 0) = 300.0;
    std::stringstream ss;
    write_pgm(f, ss);
    const Frame loaded = read_pgm(ss);
    EXPECT_EQ(loaded.at(0, 0), 0.0);
    EXPECT_EQ(loaded.at(1, 0), 255.0);
}

}  // namespace
}  // namespace islhls
