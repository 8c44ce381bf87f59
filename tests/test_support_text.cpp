#include <gtest/gtest.h>

#include "support/text.hpp"

namespace islhls {
namespace {

TEST(Text, cat_concatenates_mixed_types) {
    EXPECT_EQ(cat("w=", 4, " d=", 2.5), "w=4 d=2.5");
    EXPECT_EQ(cat(), "");
    EXPECT_EQ(cat("only"), "only");
}

TEST(Text, format_fixed_rounds) {
    EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
    EXPECT_EQ(format_fixed(2.675, 0), "3");
    EXPECT_EQ(format_fixed(-1.005, 1), "-1.0");
}

TEST(Text, format_grouped_inserts_separators) {
    EXPECT_EQ(format_grouped(0), "0");
    EXPECT_EQ(format_grouped(999), "999");
    EXPECT_EQ(format_grouped(1000), "1,000");
    EXPECT_EQ(format_grouped(1234567), "1,234,567");
    EXPECT_EQ(format_grouped(-1234567), "-1,234,567");
}

TEST(Text, split_keeps_empty_fields) {
    EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Text, join_is_inverse_of_split) {
    const std::vector<std::string> parts{"x", "y", "z"};
    EXPECT_EQ(join(parts, ","), "x,y,z");
    EXPECT_EQ(split(join(parts, ","), ','), parts);
    EXPECT_EQ(join({}, ","), "");
}

TEST(Text, trim_strips_both_ends) {
    EXPECT_EQ(trim("  hello \t\n"), "hello");
    EXPECT_EQ(trim("nothing"), "nothing");
    EXPECT_EQ(trim(" \t "), "");
}

TEST(Text, starts_ends_with) {
    EXPECT_TRUE(starts_with("islhls_cone", "islhls"));
    EXPECT_FALSE(starts_with("is", "islhls"));
    EXPECT_TRUE(ends_with("u_out", "_out"));
    EXPECT_FALSE(ends_with("out", "_out"));
}

TEST(Text, padding_aligns) {
    EXPECT_EQ(pad_left("7", 3), "  7");
    EXPECT_EQ(pad_right("7", 3), "7  ");
    EXPECT_EQ(pad_left("long", 2), "long");
}

}  // namespace
}  // namespace islhls
