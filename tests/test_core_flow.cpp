// End-to-end flow facade: the whole paper pipeline through the public API.
#include <gtest/gtest.h>

#include "backend/vhdl.hpp"
#include "core/flow.hpp"
#include "support/error.hpp"

namespace islhls {
namespace {

Flow_options small_options() {
    Flow_options options;
    options.iterations = 4;
    options.frame_width = 256;
    options.frame_height = 192;
    options.device = "generic_small";
    options.space.max_window = 3;
    options.space.max_depth = 2;
    return options;
}

TEST(Flow, iterations_copied_into_space_options) {
    // Flow_options::iterations is authoritative; a diverging value planted in
    // the nested Space_options must be overwritten, not silently used.
    Flow_options options = small_options();
    options.iterations = 5;
    options.space.iterations = 999;
    Hls_flow flow = Hls_flow::from_kernel(kernel_by_name("jacobi"), options);
    EXPECT_EQ(flow.options().iterations, 5);
    EXPECT_EQ(flow.options().space.iterations, 5);
    EXPECT_EQ(flow.explorer().space().iterations, 5);
    for (int d = 1; d <= 2; ++d) {
        int sum = 0;
        for (int level : canonical_partition(flow.explorer().space().iterations, d)) {
            sum += level;
        }
        EXPECT_EQ(sum, 5);
    }
}

TEST(Flow, builds_from_builtin_kernel) {
    Hls_flow flow = Hls_flow::from_kernel(kernel_by_name("jacobi"), small_options());
    EXPECT_EQ(flow.kernel_name(), "jacobi");
    EXPECT_EQ(flow.step().state_fields(), (std::vector<std::string>{"u"}));
    EXPECT_EQ(flow.device().name, "generic_small");
}

TEST(Flow, builds_from_raw_source) {
    const char* src = R"(
void my_kernel(float a_out[H][W], const float a[H][W]) {
    for (int y = 0; y < H; y++)
        for (int x = 0; x < W; x++)
            a_out[y][x] = 0.5f * (a[y][x] + a[y][x+1]);
}
)";
    Hls_flow flow = Hls_flow::from_source(src, small_options());
    EXPECT_EQ(flow.kernel_name(), "my_kernel");
    EXPECT_EQ(flow.step().footprint(), (Footprint{0, 1, 0, 0}));
}

TEST(Flow, bad_source_reports_frontend_errors) {
    EXPECT_THROW(Hls_flow::from_source("void f(", small_options()), Parse_error);
    EXPECT_THROW(Hls_flow::from_source(
                     "void f(float a[H][W]) { for(int y=0;y<H;y++) "
                     "for(int x=0;x<W;x++) a[y][x] = 0.0f; }",
                     small_options()),
                 Sema_error);
    EXPECT_THROW(Hls_flow::from_source(
                     "void f(float a_out[H][W], const float a[H][W]) "
                     "{ for(int y=0;y<H;y++) for(int x=0;x<W;x++) "
                     "a_out[y][x] = a[0][x]; }",
                     small_options()),
                 Symexec_error);
}

TEST(Flow, generates_vhdl_with_support_package) {
    Hls_flow flow = Hls_flow::from_kernel(kernel_by_name("jacobi"), small_options());
    const std::string vhdl = flow.generate_vhdl(2, 2);
    EXPECT_NE(vhdl.find("entity islhls_jacobi_w2x2_d2"), std::string::npos);
    const std::string pkg = flow.support_package();
    EXPECT_NE(pkg.find("islhls_fixed_div"), std::string::npos);
}

TEST(Flow, pareto_and_fit_produce_consistent_results) {
    Hls_flow flow = Hls_flow::from_kernel(kernel_by_name("jacobi"), small_options());
    const auto pareto = flow.pareto();
    EXPECT_GT(pareto.points.size(), 5u);
    EXPECT_FALSE(pareto.front.empty());

    const auto fit = flow.device_fit();
    ASSERT_TRUE(fit.has_best);
    // The device-fit solution obeys the budget...
    EXPECT_LE(fit.best.estimated_area_luts,
              static_cast<double>(flow.device().usable_luts()));
    // ...and no Pareto point strictly dominates it within the same budget.
    for (std::size_t i : pareto.front) {
        const auto& p = pareto.points[i];
        if (p.estimated_area_luts > flow.device().usable_luts()) continue;
        EXPECT_GE(p.throughput.seconds_per_frame * 1.0001,
                  fit.best.throughput.seconds_per_frame)
            << "Pareto point beats the device fit inside the budget";
    }
}

TEST(Flow, area_validation_through_facade) {
    Hls_flow flow = Hls_flow::from_kernel(kernel_by_name("jacobi"), small_options());
    const auto validation = flow.area_validation();
    EXPECT_FALSE(validation.points.empty());
    EXPECT_LT(validation.avg_rel_error, 0.10);
}

TEST(Flow, describe_summarizes_the_kernel) {
    Hls_flow flow = Hls_flow::from_kernel(kernel_by_name("chambolle"), small_options());
    const std::string text = flow.describe();
    EXPECT_NE(text.find("chambolle"), std::string::npos);
    EXPECT_NE(text.find("2 state field(s)"), std::string::npos);
    EXPECT_NE(text.find("reuse factor"), std::string::npos);
}

TEST(Flow, iterations_flow_into_the_space) {
    Flow_options options = small_options();
    options.iterations = 6;
    Hls_flow flow = Hls_flow::from_kernel(kernel_by_name("jacobi"), options);
    const auto fit = flow.device_fit();
    ASSERT_TRUE(fit.has_best);
    EXPECT_EQ(fit.best.instance.iterations(), 6);
}

}  // namespace
}  // namespace islhls
