// Simulation substrate: golden runners, ghost semantics, the bit-accurate
// fixed-point executor and the full architecture simulator.
#include <gtest/gtest.h>

#include <array>
#include <climits>
#include <cmath>
#include <numeric>

#include "grid/frame_ops.hpp"
#include "oracle/reference.hpp"
#include "sim/arch_sim.hpp"
#include "sim/fixed_exec.hpp"
#include "sim/golden.hpp"
#include "sim/tape_lanes.hpp"
#include "support/prng.hpp"
#include "symexec/executor.hpp"
#include "kernels/kernels.hpp"

namespace islhls {
namespace {

TEST(Golden, pad_and_crop_are_inverse) {
    const Frame f = make_noise(7, 5, 3);
    const Frame padded = pad_frame(f, 2, 3, 1, 4, Boundary::clamp);
    EXPECT_EQ(padded.width(), 12);
    EXPECT_EQ(padded.height(), 10);
    EXPECT_EQ(crop_frame(padded, 2, 3, 1, 4), f);
    // Apron values follow the boundary policy.
    EXPECT_EQ(padded.at(0, 1), f.at(0, 0));
}

TEST(Golden, ghost_equals_periteration_on_interior) {
    const Kernel_def& kernel = kernel_by_name("igf");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Frame content = make_synthetic_scene(24, 18, 11);
    const Frame_set initial = kernel.make_initial(content);
    const int iterations = 3;
    const Frame_set ghost = run_ghost_ir(step, initial, iterations, kernel.boundary);
    const Frame_set direct = run_ir(step, initial, iterations, kernel.boundary);
    // Interior elements (further than N*reach from the border) agree exactly.
    const int margin = iterations * step.max_reach();
    const Frame& a = ghost.field("u");
    const Frame& b = direct.field("u");
    for (int y = margin; y < 18 - margin; ++y) {
        for (int x = margin; x < 24 - margin; ++x) {
            EXPECT_EQ(a.at(x, y), b.at(x, y)) << x << "," << y;
        }
    }
}

TEST(Golden, ghost_native_matches_ghost_ir) {
    const Kernel_def& kernel = kernel_by_name("chambolle");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Frame content = make_noise(16, 12, 21, 0.0, 255.0);
    const Frame_set initial = kernel.make_initial(content);
    const Frame_set a = run_ghost_ir(step, initial, 2, kernel.boundary);
    const Frame_set b = run_ghost_native(kernel, initial, 2);
    for (const std::string& field : kernel.state_fields) {
        EXPECT_EQ(max_abs_diff(a.field(field), b.field(field)), 0.0) << field;
    }
}

// --- fixed-point executor ----------------------------------------------------------

TEST(Fixed_raw, wrap_matches_vhdl_resize) {
    EXPECT_EQ(wrap_to_bits(5, 8), 5);
    EXPECT_EQ(wrap_to_bits(127, 8), 127);
    EXPECT_EQ(wrap_to_bits(128, 8), -128);  // overflow wraps
    EXPECT_EQ(wrap_to_bits(-129, 8), 127);
    EXPECT_EQ(wrap_to_bits(256, 8), 0);
    EXPECT_EQ(wrap_to_bits(-1, 8), -1);
}

TEST(Fixed_raw, isqrt_floor_values) {
    EXPECT_EQ(isqrt_floor(0), 0);
    EXPECT_EQ(isqrt_floor(1), 1);
    EXPECT_EQ(isqrt_floor(2), 1);
    EXPECT_EQ(isqrt_floor(3), 1);
    EXPECT_EQ(isqrt_floor(4), 2);
    EXPECT_EQ(isqrt_floor(99), 9);
    EXPECT_EQ(isqrt_floor(100), 10);
    EXPECT_EQ(isqrt_floor(-5), 0);
    EXPECT_EQ(isqrt_floor(1LL << 40), 1LL << 20);
    EXPECT_EQ(isqrt_floor((1LL << 52) - 1), (1LL << 26) - 1);
    EXPECT_EQ(isqrt_floor(1LL << 52), 1LL << 26);
    EXPECT_EQ(isqrt_floor((1LL << 62) - 1), (1LL << 31) - 1);
    EXPECT_EQ(isqrt_floor(INT64_MAX), 3037000499LL);
}

// The Newton loop as it was first written, started at x = v: slow (about
// log2(v) dependent divides) but plainly converging to the floor.
std::int64_t isqrt_from_v(std::int64_t v) {
    if (v <= 0) return 0;
    std::int64_t x = v;
    std::int64_t y = (x + 1) / 2;
    while (y < x) {
        x = y;
        y = (x + v / x) / 2;
    }
    return x;
}

TEST(Fixed_raw, isqrt_floor_matches_the_start_at_v_loop_exhaustively) {
    for (std::int64_t v = 0; v <= (1LL << 22); ++v) {
        ASSERT_EQ(isqrt_floor(v), isqrt_from_v(v)) << v;
    }
}

// Property: isqrt_floor(v)^2 <= v < (isqrt_floor(v)+1)^2, and the result
// equals the start-at-v loop, over 40-bit and full 62-bit values.
class Isqrt_property : public ::testing::TestWithParam<int> {};

TEST_P(Isqrt_property, floor_property_holds) {
    Prng rng(static_cast<std::uint64_t>(GetParam()));
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t range = i % 2 == 0 ? 1ULL << 40 : 1ULL << 62;
        const std::int64_t v = static_cast<std::int64_t>(rng.next_u64() % range);
        const std::int64_t r = isqrt_floor(v);
        EXPECT_LE(r * r, v);
        EXPECT_GT((r + 1) * (r + 1), v);
        EXPECT_EQ(r, isqrt_from_v(v)) << v;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Isqrt_property, ::testing::Range(1, 5));

TEST(Fixed_raw, tracks_double_execution_within_tolerance) {
    const Kernel_def& kernel = kernel_by_name("igf");
    Stencil_step step = extract_stencil(kernel.c_source);
    const Cone cone(step, Cone_spec{2, 2, 2});
    const Register_program prog = cone.lower();
    // Guard bits cover the unscaled binomial sums (up to 255*16).
    const Fixed_format fmt{14, 6};
    Prng rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> inputs;
        for (int i = 0; i < prog.input_count(); ++i) {
            inputs.push_back(quantize(rng.next_in(0.0, 255.0), fmt));
        }
        const auto regs = run_trace(prog, inputs);
        const auto fixed = run_fixed(prog, inputs, fmt);
        ASSERT_EQ(fixed.size(), prog.outputs().size());
        for (std::size_t o = 0; o < fixed.size(); ++o) {
            // Binomial filter of depth 2: error accumulates over ~2 levels of
            // truncating multiplies; stay within a generous bound.
            const double exact = regs[static_cast<std::size_t>(prog.outputs()[o])];
            EXPECT_NEAR(fixed[o], exact, 0.25) << trial;
        }
    }
}

TEST(Fixed_raw, division_by_zero_yields_zero_like_the_hardware) {
    Expr_pool pool;
    const int u = pool.intern_field("u");
    const Expr_id q = pool.div(pool.input(u, 0, 0), pool.input(u, 1, 0));
    const Register_program prog = build_program(pool, {q});
    const Fixed_format fmt{10, 6};
    const auto out = run_fixed(prog, {5.0, 0.0}, fmt);
    EXPECT_EQ(out[0], 0.0);
}

TEST(Fixed_raw, div_of_int64_min_by_minus_one_wraps_instead_of_trapping) {
    // In Q31.30, a = -2^33 shifts to a << 30 == INT64_MIN; a raw divisor of
    // -1 negates that modulo 2^64, and the 61-bit wrap of -2^63 is 0.
    const Fixed_format fmt{31, 30};
    const std::int64_t a = -(std::int64_t{1} << 33);
    const std::int64_t b = -1;
    ASSERT_EQ(a << fmt.frac_bits, INT64_MIN);
    Expr_pool pool;
    const int u = pool.intern_field("u");
    const Expr_id q = pool.div(pool.input(u, 0, 0), pool.input(u, 1, 0));
    const Register_program prog = build_program(pool, {q});
    const Fixed_tape tape(prog.compiled(), fmt);
    const std::int64_t operands[2] = {a, b};
    EXPECT_EQ(apply_op_fixed(Op_kind::div, operands, tape.wrap(), fmt.frac_bits,
                             tape.fixed_one()),
              0);

    const Compiled_program& cp = prog.compiled();
    std::vector<std::int64_t> inputs;
    for (const Tape_input& in : cp.inputs()) inputs.push_back(in.dx == 0 ? a : b);
    EXPECT_EQ(run_fixed_raw(prog, inputs, fmt), std::vector<std::int64_t>{0});

    Lane_block<Fixed_tape> block(tape);
    std::int64_t** slot = block.slot();
    for (std::size_t i = 0; i < cp.inputs().size(); ++i) {
        std::fill_n(slot[cp.inputs()[i].slot], kTapeLane, inputs[i]);
    }
    std::int64_t* out = slot[cp.output_slots()[0]];
    for (int n : {kTapeLane, 5}) {
        SCOPED_TRACE(n);
        std::fill_n(out, n, -1);
        run_tape(tape, slot, n);
        for (int l = 0; l < n; ++l) EXPECT_EQ(out[l], 0) << "lane " << l;
    }
}

// Edge operands of the lane kernels' fixed div and sqrt: those run in
// double while |a << frac| <= 2^52 and rerun a block in integers when any
// lane leaves that range. Every sample alternates with a small in-range
// one, so the first full block and the partial block after it mix exact
// double lanes with integer fallback lanes; every raw word must equal
// apply_op_fixed.
void check_edge_lanes(Op_kind kind, const Fixed_format& fmt,
                      const std::vector<std::array<std::int64_t, 2>>& edges) {
    Expr_pool pool;
    const int u = pool.intern_field("u");
    const Expr_id a = pool.input(u, 0, 0);
    const Expr_id b = pool.input(u, 1, 0);
    const Expr_id root = kind == Op_kind::div ? pool.div(a, b) : pool.sqrt_of(a);
    const Register_program prog = build_program(pool, {root});
    const Fixed_tape tape(prog.compiled(), fmt);
    const auto ports = static_cast<int>(prog.compiled().inputs().size());
    ASSERT_EQ(ports, kind == Op_kind::div ? 2 : 1);
    const bool a_first = input_instructions(prog)[0].dx == 0;

    // Every edge at least once, cycling until three blocks are filled.
    std::vector<std::array<std::int64_t, 2>> operands;
    for (std::size_t i = 0; i < edges.size() || operands.size() < 3 * kTapeLane; ++i) {
        const std::int64_t x = tape.wrap()(edges[i % edges.size()][0]);
        const std::int64_t y = tape.wrap()(edges[i % edges.size()][1]);
        operands.push_back({x, y});
        operands.push_back({static_cast<std::int64_t>(i % 29) - 14,
                            static_cast<std::int64_t>(i % 5) + 1});
    }

    std::vector<std::int64_t> inputs;
    for (const auto& o : operands) {
        if (ports == 1) {
            inputs.push_back(o[0]);
        } else {
            inputs.push_back(a_first ? o[0] : o[1]);
            inputs.push_back(a_first ? o[1] : o[0]);
        }
    }
    Lane_block<Fixed_tape> block;
    for (const std::size_t samples : {std::size_t{kTapeLane}, std::size_t{kTapeLane} + 37,
                                      operands.size()}) {
        std::vector<std::int64_t> out(samples);
        run_raw_batch(tape, inputs.data(), samples, out.data(), block);
        for (std::size_t k = 0; k < samples; ++k) {
            const std::int64_t expect = apply_op_fixed(kind, operands[k].data(), tape.wrap(),
                                                       fmt.frac_bits, tape.fixed_one());
            ASSERT_EQ(out[k], expect)
                << to_string(fmt) << " sample " << k << " of " << samples << ": a="
                << operands[k][0] << " b=" << operands[k][1];
        }
    }
}

constexpr std::int64_t kP52 = std::int64_t{1} << 52;

TEST(Fixed_raw, div_lanes_exact_at_the_double_range_edge) {
    // Q62.0: numerators straddle 2^52 word for word.
    const std::int64_t nums[] = {kP52 - 1, kP52, kP52 + 1, 2 * kP52, (1LL << 61) - 1, 7, 0};
    const std::int64_t dens[] = {0, 1, -1, 3, -7, 1LL << 26, (1LL << 53) + 1, -(1LL << 60)};
    std::vector<std::array<std::int64_t, 2>> edges;
    for (std::int64_t n : nums) {
        for (std::int64_t d : dens) {
            edges.push_back({n, d});
            edges.push_back({-n, d});
        }
    }
    check_edge_lanes(Op_kind::div, {62, 0}, edges);

    // Q31.30 / Q40.20: a << frac crosses 2^52, and past 2^63 wraps negative.
    for (const Fixed_format fmt : {Fixed_format{31, 30}, Fixed_format{40, 20}}) {
        const std::int64_t edge = kP52 >> fmt.frac_bits;
        const std::int64_t wraps = (std::int64_t{1} << (63 - fmt.frac_bits)) + 3;
        const std::int64_t as[] = {edge - 1, edge, edge + 1, wraps, 2 * wraps + 1, 5};
        std::vector<std::array<std::int64_t, 2>> wide;
        for (std::int64_t n : as) {
            for (std::int64_t d : dens) {
                wide.push_back({n, d});
                wide.push_back({-n, d});
            }
        }
        check_edge_lanes(Op_kind::div, fmt, wide);
    }
}

TEST(Fixed_raw, sqrt_lanes_exact_at_the_double_range_edge) {
    // Q62.0: perfect squares and their neighbours on both sides of 2^52,
    // and around the largest square below 2^53.
    std::vector<std::array<std::int64_t, 2>> edges;
    for (std::int64_t r : {(1LL << 26) - 1, 1LL << 26, (1LL << 26) + 1, 94906265LL}) {
        for (std::int64_t d : {-1, 0, 1}) edges.push_back({r * r + d, 0});
    }
    const std::int64_t around[] = {kP52 - 1, kP52, kP52 + 1, (1LL << 61) - 1, 0, -1, -kP52};
    for (std::int64_t v : around) edges.push_back({v, 0});
    check_edge_lanes(Op_kind::sqrt_op, {62, 0}, edges);

    for (const Fixed_format fmt : {Fixed_format{31, 30}, Fixed_format{40, 20}}) {
        const std::int64_t edge = kP52 >> fmt.frac_bits;
        const std::int64_t wraps = (std::int64_t{1} << (63 - fmt.frac_bits)) + 3;
        std::vector<std::array<std::int64_t, 2>> wide;
        const std::int64_t as[] = {edge - 1, edge, edge + 1, wraps, wraps / 2 + 1, 9};
        for (std::int64_t v : as) {
            wide.push_back({v, 0});
            wide.push_back({-v, 0});
        }
        check_edge_lanes(Op_kind::sqrt_op, fmt, wide);
    }
}

// --- architecture simulator -----------------------------------------------------------

// The end-to-end property: the architecture computes exactly the ghost golden
// for every kernel and several instances.
struct Arch_case {
    const char* kernel;
    int window;
    std::vector<int> levels;
};

class Arch_equivalence : public ::testing::TestWithParam<Arch_case> {};

TEST_P(Arch_equivalence, architecture_equals_ghost_golden) {
    const Arch_case& c = GetParam();
    const Kernel_def& kernel = kernel_by_name(c.kernel);
    Cone_library library(extract_stencil(kernel.c_source), kernel.name);
    const int iterations =
        std::accumulate(c.levels.begin(), c.levels.end(), 0);

    const Frame content = make_synthetic_scene(26, 19, 7);
    const Frame_set initial = kernel.make_initial(content);
    const Frame_set golden =
        run_ghost_ir(library.step(), initial, iterations, kernel.boundary);

    Arch_instance instance;
    instance.window = c.window;
    instance.level_depths = c.levels;
    Arch_sim_options options;
    options.boundary = kernel.boundary;
    const Arch_sim_result result =
        simulate_architecture(library, instance, initial, options);

    for (const std::string& field : kernel.state_fields) {
        SCOPED_TRACE(field);
        EXPECT_EQ(max_abs_diff(result.final_state.field(field), golden.field(field)),
                  0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Arch_equivalence,
    ::testing::Values(Arch_case{"igf", 4, {2, 2}}, Arch_case{"igf", 3, {3, 1}},
                      Arch_case{"igf", 5, {1, 1, 1}}, Arch_case{"igf", 7, {4}},
                      Arch_case{"chambolle", 4, {2, 1}},
                      Arch_case{"chambolle", 3, {1, 1, 1}},
                      Arch_case{"jacobi", 6, {3, 2, 1}},
                      Arch_case{"heat", 4, {2, 2, 2}}, Arch_case{"mean", 2, {2}},
                      Arch_case{"erosion", 5, {2, 2}},
                      Arch_case{"perona_malik", 3, {2, 1}},
                      Arch_case{"shock", 4, {1, 2}},
                      Arch_case{"life", 3, {2, 1}}),
    [](const auto& info) {
        std::string name = info.param.kernel;
        name += "_w";
        name += std::to_string(info.param.window);
        for (int d : info.param.levels) {
            name += "_";
            name += std::to_string(d);
        }
        return name;
    });

TEST(Arch_sim, transfer_stats_match_geometry) {
    const Kernel_def& kernel = kernel_by_name("jacobi");
    Cone_library library(extract_stencil(kernel.c_source), kernel.name);
    Arch_instance instance;
    instance.window = 4;
    instance.level_depths = {2};
    const Frame content = make_gradient(16, 8);
    const Frame_set initial = kernel.make_initial(content);
    const Arch_sim_result r = simulate_architecture(library, instance, initial, {});
    // 16x8 frame, 4x4 windows -> 4*2 = 8 windows.
    EXPECT_EQ(r.stats.output_windows, 8);
    // Each window reads its (4+2*2)^2 input coverage once.
    EXPECT_EQ(r.stats.offchip_elements_read, 8 * 8 * 8);
    EXPECT_EQ(r.stats.offchip_elements_written, 16 * 8);
    EXPECT_GT(r.stats.cone_executions, 0);
    EXPECT_GT(r.stats.operations_executed, 0);
    EXPECT_GT(r.stats.ops_per_output_element(16 * 8), 0.0);
}

TEST(Arch_sim, fixed_point_mode_close_to_double) {
    const Kernel_def& kernel = kernel_by_name("igf");
    Cone_library library(extract_stencil(kernel.c_source), kernel.name);
    Arch_instance instance;
    instance.window = 4;
    instance.level_depths = {2};
    const Frame content = make_synthetic_scene(16, 12, 3);
    const Frame_set initial = kernel.make_initial(content);

    const Arch_sim_result exact = simulate_architecture(library, instance, initial, {});
    Arch_sim_options fx;
    fx.fixed_point = true;
    // The binomial sum reaches 255*16 before the final scaling, so the
    // format needs integer guard bits beyond the 8-bit data range.
    fx.format = Fixed_format{14, 6};
    const Arch_sim_result quantized =
        simulate_architecture(library, instance, initial, fx);
    const double err = max_abs_diff(exact.final_state.field("u"),
                                    quantized.final_state.field("u"));
    EXPECT_GT(err, 0.0);   // quantization is visible...
    EXPECT_LT(err, 1.0);   // ...but bounded (Q10.6 on 8-bit data, depth 2)
    EXPECT_GT(psnr(exact.final_state.field("u"), quantized.final_state.field("u")),
              45.0);
}

TEST(Arch_sim, lane_batched_region_rows_exact_in_both_domains) {
    // Lane blocks of cone origins at both extremes: a wide window with few
    // origins per region, and a 1x1 window whose first-level region holds
    // 9x9 = 81 origins across its rows (depth-4 suffix halo of heat's reach
    // 1), which forces the batched region executor through a full lane
    // block (kTapeLane = 64 origins) plus a partial tail. Both domains must
    // still reproduce their ghost goldens exactly (0 LSB), and the batching
    // must be invisible in the stats-free output either way.
    const Kernel_def& kernel = kernel_by_name("heat");
    Cone_library library(extract_stencil(kernel.c_source), kernel.name);
    Arch_instance wide;
    wide.window = 72;
    wide.level_depths = {2};
    Arch_instance narrow;
    narrow.window = 1;
    narrow.level_depths = {1, 4};
    const Frame content = make_synthetic_scene(96, 20, 5);
    const Frame_set initial = kernel.make_initial(content);

    for (const Arch_instance& instance : {wide, narrow}) {
        SCOPED_TRACE(to_string(instance));
        const int iterations = instance.iterations();
        Arch_sim_options options;
        options.boundary = kernel.boundary;
        const Arch_sim_result dbl =
            simulate_architecture(library, instance, initial, options);
        const Frame_set golden =
            run_ghost_ir(library.step(), initial, iterations, kernel.boundary);
        for (const std::string& field : kernel.state_fields) {
            SCOPED_TRACE(field);
            EXPECT_EQ(
                max_abs_diff(dbl.final_state.field(field), golden.field(field)), 0.0);
        }

        // Q12.6 holds the 0..255 scene; Q5.2 saturates every input above
        // 15.75 and its sums wrap, so region words at the format's edges
        // reach the next level's gather without a re-wrap there.
        for (const Fixed_format& format : {Fixed_format{12, 6}, Fixed_format{5, 2}}) {
            SCOPED_TRACE(to_string(format));
            Arch_sim_options fx = options;
            fx.fixed_point = true;
            fx.format = format;
            const Arch_sim_result fixed =
                simulate_architecture(library, instance, initial, fx);
            const Frame_set fixed_golden =
                run_ghost_ir(library.step(), initial, iterations, kernel.boundary,
                             fx.format)
                    .to_frame_set();
            for (const std::string& field : kernel.state_fields) {
                SCOPED_TRACE(field);
                EXPECT_EQ(max_abs_diff(fixed.final_state.field(field),
                                       fixed_golden.field(field)),
                          0.0);
            }
        }
    }
}

TEST(Arch_sim, window_larger_than_frame_is_handled) {
    const Kernel_def& kernel = kernel_by_name("jacobi");
    Cone_library library(extract_stencil(kernel.c_source), kernel.name);
    Arch_instance instance;
    instance.window = 8;
    instance.level_depths = {1};
    const Frame content = make_gradient(5, 3);
    const Frame_set initial = kernel.make_initial(content);
    const Arch_sim_result r = simulate_architecture(library, instance, initial, {});
    const Frame_set golden = run_ghost_ir(library.step(), initial, 1, kernel.boundary);
    EXPECT_EQ(max_abs_diff(r.final_state.field("u"), golden.field("u")), 0.0);
    EXPECT_EQ(r.stats.output_windows, 1);
}

}  // namespace
}  // namespace islhls
