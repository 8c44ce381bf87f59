// Cone-build oracle: a Cone_library shares one unrolling memo across every
// cone of a kernel, so the order its grid is built in must not leak into any
// cone. For every kernel, a reduced (window, depth) grid is built in
// ascending, descending and seeded-shuffled order, and each cone's register
// program (re-lowered through Cone::lower()) and statistics must equal those
// of a standalone Cone(step, spec) built with its own private memo on a
// fresh Stencil_step.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cone/cone.hpp"
#include "dse/cone_library.hpp"
#include "kernels/kernels.hpp"
#include "support/prng.hpp"
#include "symexec/executor.hpp"

namespace islhls {
namespace {

constexpr int kMaxWindow = 3;
constexpr int kMaxDepth = 3;

using Cell = std::pair<int, int>;  // (window, depth)

std::vector<Cell> ascending_grid() {
    std::vector<Cell> cells;
    for (int d = 1; d <= kMaxDepth; ++d) {
        for (int w = 1; w <= kMaxWindow; ++w) cells.push_back({w, d});
    }
    return cells;
}

void expect_same_instruction(const Instruction& got, const Instruction& want,
                             const std::string& where) {
    EXPECT_EQ(got.kind, want.kind) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
              std::bit_cast<std::uint64_t>(want.value))
        << where;
    EXPECT_EQ(got.field, want.field) << where;
    EXPECT_EQ(got.dx, want.dx) << where;
    EXPECT_EQ(got.dy, want.dy) << where;
    EXPECT_EQ(got.operands, want.operands) << where;
    EXPECT_EQ(got.operand_count, want.operand_count) << where;
    EXPECT_EQ(got.level, want.level) << where;
}

void expect_same_cone(const Cone& got, const Cone& want, const std::string& where) {
    const Register_program got_program = got.lower();
    const Register_program want_program = want.lower();
    const std::vector<Instruction>& gi = got_program.instructions();
    const std::vector<Instruction>& wi = want_program.instructions();
    ASSERT_EQ(gi.size(), wi.size()) << where;
    for (std::size_t i = 0; i < gi.size(); ++i) {
        expect_same_instruction(gi[i], wi[i],
                                where + " instruction " + std::to_string(i));
    }
    EXPECT_EQ(got_program.outputs(), want_program.outputs()) << where;

    const Cone_stats& g = got.stats();
    const Cone_stats& w = want.stats();
    EXPECT_EQ(g.spec, w.spec) << where;
    EXPECT_EQ(g.register_count, w.register_count) << where;
    EXPECT_EQ(g.input_count, w.input_count) << where;
    EXPECT_EQ(g.output_count, w.output_count) << where;
    EXPECT_EQ(g.pipeline_depth, w.pipeline_depth) << where;
    EXPECT_EQ(g.census.by_kind, w.census.by_kind) << where;
    EXPECT_EQ(g.census.operation_count, w.census.operation_count) << where;
    EXPECT_EQ(g.census.input_count, w.census.input_count) << where;
    EXPECT_EQ(g.census.constant_count, w.census.constant_count) << where;
    EXPECT_EQ(g.input_window, w.input_window) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.naive_operation_count),
              std::bit_cast<std::uint64_t>(w.naive_operation_count))
        << where;
}

class Cone_order : public ::testing::TestWithParam<std::string> {};

TEST_P(Cone_order, shared_memo_matches_standalone_cones_in_any_build_order) {
    const Kernel_def& kernel = kernel_by_name(GetParam());

    std::vector<Cell> descending = ascending_grid();
    std::reverse(descending.begin(), descending.end());
    std::vector<Cell> shuffled = ascending_grid();
    Prng prng(0x5eed0000u + static_cast<std::uint64_t>(GetParam().size()));
    for (int i = static_cast<int>(shuffled.size()) - 1; i > 0; --i) {
        std::swap(shuffled[static_cast<std::size_t>(i)],
                  shuffled[static_cast<std::size_t>(prng.next_int(0, i))]);
    }
    const std::vector<std::pair<std::string, std::vector<Cell>>> orders = {
        {"ascending", ascending_grid()},
        {"descending", descending},
        {"shuffled", shuffled},
    };

    for (const auto& [order_name, cells] : orders) {
        Cone_library library(extract_stencil(kernel.c_source), kernel.name);
        for (const auto& [w, d] : cells) library.cone(w, d);
        EXPECT_EQ(library.cone_builds(), kMaxWindow * kMaxDepth);

        for (const auto& [w, d] : ascending_grid()) {
            Stencil_step fresh = extract_stencil(kernel.c_source);
            const Cone standalone(fresh, Cone_spec{w, w, d});
            expect_same_cone(library.cone(w, d), standalone,
                             kernel.name + " " + order_name + " " +
                                 to_string(Cone_spec{w, w, d}));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(All_kernels, Cone_order, ::testing::ValuesIn(kernel_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             return info.param;
                         });

}  // namespace
}  // namespace islhls
