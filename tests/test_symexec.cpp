// Symbolic execution: extracted expressions must agree bit-for-bit with the
// independent native implementations of every built-in kernel, and the
// executor must reject everything outside the synthesizable subset.
#include <gtest/gtest.h>

#include "grid/frame_ops.hpp"
#include "oracle/reference.hpp"
#include "ir/print.hpp"
#include "sim/golden.hpp"
#include "support/error.hpp"
#include "symexec/executor.hpp"
#include "kernels/kernels.hpp"

namespace islhls {
namespace {

TEST(Symexec, igf_footprint_and_structure) {
    const Stencil_step step = extract_stencil(kernel_by_name("igf").c_source);
    EXPECT_EQ(step.state_fields(), (std::vector<std::string>{"u"}));
    EXPECT_EQ(step.footprint(), (Footprint{1, 1, 1, 1}));
    EXPECT_EQ(step.max_reach(), 1);
    // 9 distinct reads appear in the expression.
    const std::string text = to_infix(step.pool(), step.update(0));
    EXPECT_NE(text.find("u[-1,-1]"), std::string::npos);
    EXPECT_NE(text.find("u[1,1]"), std::string::npos);
}

TEST(Symexec, chambolle_dual_field_footprints) {
    const Stencil_step step = extract_stencil(kernel_by_name("chambolle").c_source);
    EXPECT_EQ(step.state_fields(), (std::vector<std::string>{"p1", "p2"}));
    EXPECT_EQ(step.const_fields(), (std::vector<std::string>{"g"}));
    const Footprint fp = step.footprint();
    EXPECT_EQ(fp, (Footprint{1, 1, 1, 1}));
    // Both updates exist and are distinct expressions.
    EXPECT_NE(step.update("p1"), step.update("p2"));
}

TEST(Symexec, mean_kernel_unrolls_inner_loops) {
    const Stencil_step step = extract_stencil(kernel_by_name("mean").c_source);
    // After unrolling the 3x3 accumulation, 9 reads must be visible.
    EXPECT_EQ(step.footprint(), (Footprint{1, 1, 1, 1}));
}

TEST(Symexec, shock_kernel_produces_selects) {
    const Stencil_step step = extract_stencil(kernel_by_name("shock").c_source);
    const std::string text = to_infix(step.pool(), step.update(0));
    EXPECT_NE(text.find("?"), std::string::npos);
    EXPECT_NE(text.find("sqrt"), std::string::npos);
}

// The central fidelity property: for every built-in kernel, one IR step over
// a random frame equals the native step exactly (same doubles).
class Kernel_fidelity : public ::testing::TestWithParam<std::string> {};

TEST_P(Kernel_fidelity, ir_step_matches_native_bit_for_bit) {
    const Kernel_def& kernel = kernel_by_name(GetParam());
    const Stencil_step step = extract_stencil(kernel.c_source);

    const Frame content = make_noise(23, 17, 0xC0FFEE, 0.0, 255.0);
    const Frame_set initial = kernel.make_initial(content);
    Frame_set ir_state = initial;
    Frame_set native_state = initial;
    for (int iter = 0; iter < 3; ++iter) {
        ir_state = run_step_ir(step, ir_state, kernel.boundary);
        native_state = kernel.native_step(native_state, kernel.boundary);
        for (const std::string& field : kernel.state_fields) {
            SCOPED_TRACE(kernel.name + "." + field + " iter " + std::to_string(iter));
            EXPECT_EQ(max_abs_diff(ir_state.field(field), native_state.field(field)),
                      0.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, Kernel_fidelity,
                         ::testing::ValuesIn(kernel_names()),
                         [](const auto& info) { return info.param; });

TEST(Symexec, impulse_response_of_igf_is_binomial_kernel) {
    const Kernel_def& kernel = kernel_by_name("igf");
    const Stencil_step step = extract_stencil(kernel.c_source);
    Frame_set state(9, 9);
    state.add_field("u", make_impulse(9, 9, 4, 4, 16.0));
    state = run_step_ir(step, state, Boundary::clamp);
    const Frame& u = state.field("u");
    EXPECT_DOUBLE_EQ(u.at(4, 4), 4.0);  // 16 * 4/16
    EXPECT_DOUBLE_EQ(u.at(3, 4), 2.0);
    EXPECT_DOUBLE_EQ(u.at(3, 3), 1.0);
    EXPECT_DOUBLE_EQ(u.at(6, 4), 0.0);  // outside the 3x3 support
}

TEST(Symexec, column_major_subscripts_are_handled) {
    // Outer loop scans x, inner scans y; subscripts stay [row][col].
    const Stencil_step step = extract_stencil(R"(
void f(float u_out[H][W], const float u[H][W]) {
    for (int x = 0; x < W; x++) {
        for (int y = 0; y < H; y++) {
            u_out[y][x] = u[y][x-1] + u[y-1][x];
        }
    }
}
)");
    EXPECT_EQ(step.footprint(), (Footprint{1, 0, 1, 0}));
}

TEST(Symexec, static_if_on_constants_folds) {
    const Stencil_step step = extract_stencil(R"(
void f(float u_out[H][W], const float u[H][W]) {
    const float mode = 1.0f;
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float v = 0.0f;
            if (mode > 0.0f) { v = u[y][x]; } else { v = u[y][x-1]; }
            u_out[y][x] = v;
        }
    }
}
)");
    // The else branch never executes: reach must be 0, not 1.
    EXPECT_EQ(step.footprint(), (Footprint{0, 0, 0, 0}));
}

TEST(Symexec, data_dependent_if_merges_with_select) {
    const Stencil_step step = extract_stencil(R"(
void f(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float v = u[y][x];
            if (v < 0.0f) { v = -v; }
            u_out[y][x] = v;
        }
    }
}
)");
    const std::string text = to_infix(step.pool(), step.update(0));
    EXPECT_NE(text.find("?"), std::string::npos);
}

struct Reject_case {
    const char* description;
    const char* source;
};

class Symexec_rejects : public ::testing::TestWithParam<Reject_case> {};

TEST_P(Symexec_rejects, throws_symexec_error) {
    SCOPED_TRACE(GetParam().description);
    EXPECT_THROW(extract_stencil(GetParam().source), Symexec_error);
}

INSTANTIATE_TEST_SUITE_P(
    Unsupported, Symexec_rejects,
    ::testing::Values(
        Reject_case{"absolute subscript breaks invariance",
                    "void f(float u_out[H][W], const float u[H][W]) "
                    "{ for(int y=0;y<H;y++) for(int x=0;x<W;x++) "
                    "u_out[y][x]=u[0][x]; }"},
        Reject_case{"scaled subscript",
                    "void f(float u_out[H][W], const float u[H][W]) "
                    "{ for(int y=0;y<H;y++) for(int x=0;x<W;x++) "
                    "u_out[y][x]=u[y][2*x]; }"},
        Reject_case{"loop index as value",
                    "void f(float u_out[H][W], const float u[H][W]) "
                    "{ for(int y=0;y<H;y++) for(int x=0;x<W;x++) "
                    "u_out[y][x]=u[y][x]+x; }"},
        Reject_case{"offset output write",
                    "void f(float u_out[H][W], const float u[H][W]) "
                    "{ for(int y=0;y<H;y++) for(int x=0;x<W;x++) "
                    "u_out[y][x+1]=u[y][x]; }"},
        Reject_case{"compound output write",
                    "void f(float u_out[H][W], const float u[H][W]) "
                    "{ for(int y=0;y<H;y++) for(int x=0;x<W;x++) "
                    "u_out[y][x]+=u[y][x]; }"},
        Reject_case{"missing output on a field",
                    "void f(float u_out[H][W], const float u[H][W]) "
                    "{ for(int y=0;y<H;y++) for(int x=0;x<W;x++) "
                    "{ float t = u[y][x]; t = t; } }"},
        Reject_case{"inner loop with frame-dependent bound",
                    "void f(float u_out[H][W], const float u[H][W]) "
                    "{ for(int y=0;y<H;y++) for(int x=0;x<W;x++) "
                    "{ float a = 0.0f; for (int k = 0; k < x; k++) a += 1.0f; "
                    "u_out[y][x]=a; } }"},
        Reject_case{"if on spatial index",
                    "void f(float u_out[H][W], const float u[H][W]) "
                    "{ for(int y=0;y<H;y++) for(int x=0;x<W;x++) "
                    "{ float v = 0.0f; if (x == 0) { v = 1.0f; } else { v = 2.0f; } "
                    "u_out[y][x]=v; } }"},
        Reject_case{"unsupported function",
                    "void f(float u_out[H][W], const float u[H][W]) "
                    "{ for(int y=0;y<H;y++) for(int x=0;x<W;x++) "
                    "u_out[y][x]=sinf(u[y][x]); }"},
        Reject_case{"partial output on data branch",
                    "void f(float u_out[H][W], const float u[H][W]) "
                    "{ for(int y=0;y<H;y++) for(int x=0;x<W;x++) "
                    "{ if (u[y][x] > 0.0f) { u_out[y][x] = 1.0f; } } }"},
        Reject_case{"adding two loop variables",
                    "void f(float u_out[H][W], const float u[H][W]) "
                    "{ for(int y=0;y<H;y++) for(int x=0;x<W;x++) "
                    "u_out[y][x]=u[y+x][x]; }"}));

TEST(Symexec, domain_narrowness_bound_enforced) {
    Symexec_options options;
    options.max_reach = 1;
    EXPECT_THROW(extract_stencil(R"(
void f(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++)
        for (int x = 0; x < W; x++)
            u_out[y][x] = u[y][x-2];
}
)",
                                 options),
                 Symexec_error);
}

TEST(Symexec, unroll_budget_enforced) {
    Symexec_options options;
    options.max_unroll = 10;
    EXPECT_THROW(extract_stencil(R"(
void f(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++)
        for (int x = 0; x < W; x++) {
            float a = 0.0f;
            for (int k = 0; k < 100; k++) a += u[y][x];
            u_out[y][x] = a;
        }
}
)",
                                 options),
                 Symexec_error);
}

TEST(Symexec, local_const_array_lookup) {
    const Stencil_step step = extract_stencil(R"(
void f(float u_out[H][W], const float u[H][W]) {
    const float k[3] = {0.25f, 0.5f, 0.25f};
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float acc = 0.0f;
            for (int i = 0; i < 3; i++) acc += k[i] * u[y][x+i-1];
            u_out[y][x] = acc;
        }
    }
}
)");
    EXPECT_EQ(step.footprint(), (Footprint{1, 1, 0, 0}));
    // Evaluate at a point: k convolution of (1, 2, 3) = 0.25 + 1.0 + 0.75.
    const double v = evaluate(step.pool(), step.update(0), [](int, int dx, int) {
        return static_cast<double>(dx + 2);  // u[-1]=1, u[0]=2, u[1]=3
    });
    EXPECT_DOUBLE_EQ(v, 2.0);
}

}  // namespace
}  // namespace islhls
