// Whole-frame fixed-point row engine equivalence: the integer row path of
// Exec_engine must produce raw Qm.f words memcmp-identical to a per-pixel
// run_fixed_raw sweep for every kernel x boundary x format x frame shape x
// thread count x tiling mode — the same contract the double engine holds
// against run_ir_reference, transplanted to the integer domain.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "sim/exec_engine.hpp"
#include "sim/fixed_exec.hpp"
#include "sim/golden.hpp"
#include "support/parallel.hpp"
#include "support/text.hpp"
#include "symexec/executor.hpp"

namespace islhls {
namespace {

// Formats spanning the interesting widths: the Q10.6 default, a narrow
// format whose adds/multiplies genuinely wrap (Q3.2 saturates 0..255 inputs
// at +/-4 and overflows products), an asymmetric pair, and a wide format
// where ops stay in range (the wrap must then be the identity).
const std::vector<Fixed_format>& test_formats() {
    static const std::vector<Fixed_format> formats = {
        {10, 6}, {3, 2}, {4, 4}, {12, 2}, {16, 12}};
    return formats;
}

// The per-pixel reference is the product's own run_ir_fixed_reference
// (sim/golden.hpp) — one source of the scalar sweep, shared with the
// throughput bench; the engine must reproduce its raw words exactly.

void expect_raw_equal(const Fixed_frame_result& expected,
                      const Fixed_frame_result& actual) {
    ASSERT_EQ(expected.names, actual.names);
    for (std::size_t i = 0; i < expected.names.size(); ++i) {
        SCOPED_TRACE(expected.names[i]);
        ASSERT_EQ(expected.raw[i].size(), actual.raw[i].size());
        EXPECT_EQ(0, std::memcmp(expected.raw[i].data(), actual.raw[i].data(),
                                 expected.raw[i].size() * sizeof(std::int64_t)));
    }
}

constexpr Boundary kBoundaries[] = {Boundary::clamp, Boundary::zero,
                                    Boundary::mirror, Boundary::periodic};

TEST(Fixed_row_engine, matches_per_pixel_reference_everywhere) {
    const std::pair<int, int> shapes[] = {{1, 1}, {1, 9}, {9, 1}, {17, 13}};
    constexpr int kIterations = 3;
    std::uint64_t seed = 41;
    for (const Kernel_def& kernel : all_kernels()) {
        SCOPED_TRACE(kernel.name);
        const Stencil_step step = extract_stencil(kernel.c_source);
        const Exec_engine engine(step);
        for (const Boundary b : kBoundaries) {
            SCOPED_TRACE(to_string(b));
            for (const auto& [w, h] : shapes) {
                SCOPED_TRACE(cat(w, "x", h));
                const Frame_set initial =
                    kernel.make_initial(make_noise(w, h, seed++, 0.0, 255.0));
                for (const Fixed_format& fmt : test_formats()) {
                    SCOPED_TRACE(to_string(fmt));
                    const Fixed_frame_result reference = run_ir_fixed_reference(
                        step, initial, kIterations, b, fmt);
                    for (const int threads : {1, 2, 8}) {
                        for (const int depth : {1, 2}) {
                            SCOPED_TRACE(cat(threads, " threads, depth ", depth));
                            // Depth 2 over 3 iterations exercises a full
                            // fused block plus the shorter tail block.
                            const Exec_options options{threads, depth, 3};
                            expect_raw_equal(
                                reference, engine.run_fixed(initial, kIterations, b,
                                                            fmt, options));
                        }
                    }
                }
            }
        }
    }
}

TEST(Fixed_row_engine, run_fixed_to_frame_set_decodes_every_raw_word) {
    // run_fixed is the one fixed-point entry; to_frame_set() hands its raw
    // words back as values, each exactly from_raw of its word, in the
    // canonical field order.
    const Kernel_def& kernel = kernel_by_name("igf");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Exec_engine engine(step);
    const Frame_set initial = kernel.make_initial(make_synthetic_scene(19, 14, 5));
    const Fixed_format fmt{12, 6};
    const Fixed_frame_result fixed = engine.run_fixed(initial, 2, kernel.boundary, fmt);
    const Frame_set decoded = fixed.to_frame_set();
    ASSERT_EQ(decoded.names(), fixed.names);
    for (std::size_t f = 0; f < fixed.names.size(); ++f) {
        SCOPED_TRACE(fixed.names[f]);
        const Frame& d = decoded.field(fixed.names[f]);
        ASSERT_EQ(d.data().size(), fixed.raw[f].size());
        std::vector<double> expected;
        for (std::int64_t word : fixed.raw[f]) expected.push_back(from_raw(word, fmt));
        EXPECT_EQ(0, std::memcmp(d.data().data(), expected.data(),
                                 expected.size() * sizeof(double)));
    }
}

TEST(Fixed_row_engine, zero_iterations_returns_quantized_initial) {
    const Kernel_def& kernel = kernel_by_name("heat");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Frame_set initial = kernel.make_initial(make_gradient(6, 5));
    const Fixed_format fmt{8, 4};
    const Fixed_frame_result out =
        Exec_engine(step).run_fixed(initial, 0, kernel.boundary, fmt);
    // iterations <= 0 on the reference returns the quantized initial frames.
    expect_raw_equal(run_ir_fixed_reference(step, initial, 0, kernel.boundary, fmt),
                     out);
}

TEST(Fixed_row_engine, external_pool_and_tiling_are_word_identical) {
    // An injected pool plus temporal tiling must change nothing about the
    // raw words — the same determinism contract as the double engine.
    const Kernel_def& kernel = kernel_by_name("chambolle");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Exec_engine engine(step);
    const Frame_set initial = kernel.make_initial(make_synthetic_scene(23, 17, 7));
    const Fixed_format fmt{10, 6};
    const Fixed_frame_result serial =
        engine.run_fixed(initial, 5, kernel.boundary, fmt);
    Thread_pool pool(4);
    for (const int depth : {1, 2, 5}) {
        SCOPED_TRACE(depth);
        Exec_options options{8, depth, 2, &pool};
        const Fixed_frame_result pooled =
            engine.run_fixed(initial, 5, kernel.boundary, fmt, options);
        ASSERT_EQ(serial.names, pooled.names);
        for (std::size_t i = 0; i < serial.raw.size(); ++i) {
            EXPECT_EQ(0, std::memcmp(serial.raw[i].data(), pooled.raw[i].data(),
                                     serial.raw[i].size() * sizeof(std::int64_t)))
                << serial.names[i];
        }
    }
}

TEST(Fixed_row_engine, ghost_overload_crops_the_reference_apron) {
    // run_ghost_ir's fixed overload = pad (boundary applied once, in the
    // double domain), iterate the integer engine, crop the raw apron. Verify
    // against the per-pixel reference applied to the padded frames.
    for (const std::string& name : {std::string("heat"), std::string("igf")}) {
        SCOPED_TRACE(name);
        const Kernel_def& kernel = kernel_by_name(name);
        const Stencil_step step = extract_stencil(kernel.c_source);
        const Exec_engine engine(step);
        const Frame_set initial = kernel.make_initial(make_synthetic_scene(11, 9, 3));
        const Fixed_format fmt{12, 6};
        const int iterations = 2;
        const Footprint halo = repeat(step.footprint(), iterations);

        Frame_set padded(initial.width() + halo.width_growth(),
                         initial.height() + halo.height_growth());
        for (const std::string& field : initial.names()) {
            padded.add_field(field,
                             pad_frame(initial.field(field), halo.left, halo.right,
                                       halo.up, halo.down, kernel.boundary));
        }
        const Fixed_frame_result padded_reference = run_ir_fixed_reference(
            step, padded, iterations, kernel.boundary, fmt);

        const Fixed_frame_result ghost =
            run_ghost_ir(step, initial, iterations, kernel.boundary, fmt);
        ASSERT_EQ(ghost.width, initial.width());
        ASSERT_EQ(ghost.height, initial.height());
        ASSERT_EQ(ghost.names, padded_reference.names);
        for (std::size_t i = 0; i < ghost.names.size(); ++i) {
            SCOPED_TRACE(ghost.names[i]);
            const std::vector<std::int64_t>& full =
                padded_reference.raw[i];
            for (int y = 0; y < ghost.height; ++y) {
                const std::int64_t* expected =
                    full.data() +
                    static_cast<std::size_t>(y + halo.up) * padded.width() + halo.left;
                EXPECT_EQ(0, std::memcmp(expected,
                                         ghost.raw[i].data() +
                                             static_cast<std::size_t>(y) * ghost.width,
                                         static_cast<std::size_t>(ghost.width) *
                                             sizeof(std::int64_t)))
                    << "row " << y;
            }
        }
    }
}

}  // namespace
}  // namespace islhls
