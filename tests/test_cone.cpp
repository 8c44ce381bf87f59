// Cone construction: halo geometry, register accounting, reuse, and the
// central correctness property — a depth-d cone computes exactly d native
// iterations (ghost semantics) for every built-in kernel.
#include <gtest/gtest.h>

#include "cone/cone.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "oracle/reference.hpp"
#include "sim/golden.hpp"
#include "support/error.hpp"
#include "symexec/executor.hpp"

namespace islhls {
namespace {

Stencil_step step_of(const std::string& kernel) {
    return extract_stencil(kernel_by_name(kernel).c_source);
}

TEST(Cone, input_window_grows_with_depth) {
    Stencil_step step = step_of("igf");
    for (int d = 1; d <= 4; ++d) {
        const Cone cone(step, Cone_spec{3, 3, d});
        const Window in = cone.input_window();
        EXPECT_EQ(in.width, 3 + 2 * d);
        EXPECT_EQ(in.height, 3 + 2 * d);
        EXPECT_EQ(in.x0, -d);
        EXPECT_EQ(in.y0, -d);
        // Every input the program reads lies inside the reported window.
        const std::vector<Instruction> ports = input_instructions(cone.lower());
        EXPECT_EQ(cone.stats().input_count, static_cast<int>(ports.size()));
        for (const Instruction& port : ports) {
            EXPECT_GE(port.dx, in.x0);
            EXPECT_LT(port.dx, in.x0 + in.width);
            EXPECT_GE(port.dy, in.y0);
            EXPECT_LT(port.dy, in.y0 + in.height);
        }
    }
}

TEST(Cone, asymmetric_footprint_asymmetric_halo) {
    Stencil_step step = extract_stencil(R"(
void f(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++)
        for (int x = 0; x < W; x++)
            u_out[y][x] = u[y][x-1] + u[y-1][x];
}
)");
    const Cone cone(step, Cone_spec{2, 2, 3});
    const Window in = cone.input_window();
    EXPECT_EQ(in.x0, -3);
    EXPECT_EQ(in.y0, -3);
    EXPECT_EQ(in.width, 5);   // left growth only
    EXPECT_EQ(in.height, 5);  // up growth only
}

TEST(Cone, register_count_grows_with_window_and_depth) {
    Stencil_step step = step_of("igf");
    int prev_w = 0;
    for (int w = 1; w <= 5; ++w) {
        const Cone cone(step, Cone_spec{w, w, 2});
        EXPECT_GT(cone.stats().register_count, prev_w);
        prev_w = cone.stats().register_count;
    }
    int prev_d = 0;
    for (int d = 1; d <= 5; ++d) {
        const Cone cone(step, Cone_spec{3, 3, d});
        EXPECT_GT(cone.stats().register_count, prev_d);
        prev_d = cone.stats().register_count;
    }
}

TEST(Cone, reuse_factor_exceeds_one_for_overlapping_windows) {
    Stencil_step step = step_of("igf");
    // A deep multi-element window re-reads many shared sub-results (Fig. 4
    // of the paper); naive tree expansion must be far bigger than the DAG.
    const Cone cone(step, Cone_spec{4, 4, 3});
    EXPECT_GT(cone.stats().reuse_factor(), 3.0);
    // Even a 1x1 depth-2 cone shares diagonal reads for the Gaussian.
    const Cone small(step, Cone_spec{1, 1, 2});
    EXPECT_GT(small.stats().reuse_factor(), 1.0);
}

TEST(Cone, depth1_single_element_is_the_step_itself) {
    Stencil_step step = step_of("jacobi");
    const Cone cone(step, Cone_spec{1, 1, 1});
    EXPECT_EQ(cone.outputs().size(), 1u);
    EXPECT_EQ(cone.outputs()[0], step.update(0));
}

TEST(Cone, output_index_layout) {
    Stencil_step step = step_of("chambolle");
    const Cone cone(step, Cone_spec{3, 2, 1});
    EXPECT_EQ(cone.stats().output_count, 2 * 3 * 2);
    EXPECT_EQ(cone.output_index(0, 0, 0), 0);
    EXPECT_EQ(cone.output_index(0, 2, 1), 5);
    EXPECT_EQ(cone.output_index(1, 0, 0), 6);
    EXPECT_THROW(cone.output_index(2, 0, 0), Internal_error);
    EXPECT_THROW(cone.output_index(0, 3, 0), Internal_error);
}

TEST(Cone, pipeline_depth_scales_with_cone_depth) {
    Stencil_step step = step_of("jacobi");
    const Cone d1(step, Cone_spec{2, 2, 1});
    const Cone d3(step, Cone_spec{2, 2, 3});
    EXPECT_GT(d3.stats().pipeline_depth, d1.stats().pipeline_depth);
    EXPECT_EQ(d3.stats().pipeline_depth, 3 * d1.stats().pipeline_depth);
}

TEST(Cone, rejects_degenerate_specs) {
    Stencil_step step = step_of("jacobi");
    EXPECT_THROW(Cone(step, Cone_spec{0, 1, 1}), Internal_error);
    EXPECT_THROW(Cone(step, Cone_spec{1, 1, 0}), Internal_error);
}

// The core property (paper Sec. 3.1): evaluating the cone at window origin
// (ox, oy) with inputs read from the frame equals d ghost-golden iterations.
class Cone_equivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(Cone_equivalence, cone_computes_d_iterations) {
    const auto [kernel_name, window, depth] = GetParam();
    const Kernel_def& kernel = kernel_by_name(kernel_name);
    Stencil_step step = extract_stencil(kernel.c_source);
    const Cone cone(step, Cone_spec{window, window, depth});

    const Frame content = make_synthetic_scene(20, 14, 99);
    const Frame_set initial = kernel.make_initial(content);
    const Frame_set golden = run_ghost_ir(step, initial, depth, kernel.boundary);

    const Register_program prog = cone.lower();
    const std::vector<Instruction> ports = input_instructions(prog);
    for (const auto& [ox, oy] : {std::pair{5, 4}, std::pair{0, 0}, std::pair{14, 9}}) {
        std::vector<double> inputs;
        inputs.reserve(ports.size());
        for (const Instruction& port : ports) {
            const Frame& f = initial.field(step.pool().field_name(port.field));
            inputs.push_back(f.sample(ox + port.dx, oy + port.dy, kernel.boundary));
        }
        const std::vector<double> regs = run_trace(prog, inputs);
        for (int s = 0; s < step.state_field_count(); ++s) {
            const Frame& gold =
                golden.field(step.state_fields()[static_cast<std::size_t>(s)]);
            for (int yy = 0; yy < window && oy + yy < 14; ++yy) {
                for (int xx = 0; xx < window && ox + xx < 20; ++xx) {
                    const std::int32_t out = prog.outputs()[static_cast<std::size_t>(
                        cone.output_index(s, xx, yy))];
                    EXPECT_EQ(regs[static_cast<std::size_t>(out)], gold.at(ox + xx, oy + yy))
                        << kernel_name << " w" << window << " d" << depth << " at ("
                        << ox + xx << "," << oy + yy << ")";
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Cone_equivalence,
    ::testing::Combine(::testing::Values("igf", "chambolle", "jacobi", "heat",
                                         "erosion", "shock", "perona_malik", "mean"),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
        return std::get<0>(info.param) + "_w" + std::to_string(std::get<1>(info.param)) +
               "_d" + std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace islhls
