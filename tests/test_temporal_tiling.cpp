// Equivalence suite for temporal-tiled execution: fusing iterations over row
// bands (any tile depth, band height and thread count) must produce frames
// memcmp-identical to one unfused sweep per iteration for every built-in
// kernel, every Boundary mode, and degenerate frame shapes — including
// frames smaller than one band and single-row/single-column frames.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "sim/exec_engine.hpp"
#include "sim/golden.hpp"
#include "symexec/executor.hpp"

namespace islhls {
namespace {

void expect_sets_identical(const Frame_set& a, const Frame_set& b) {
    ASSERT_EQ(a.names(), b.names());
    for (std::size_t i = 0; i < a.field_count(); ++i) {
        SCOPED_TRACE(a.names()[i]);
        const Frame& fa = a.frame_at(i);
        const Frame& fb = b.frame_at(i);
        ASSERT_EQ(fa.width(), fb.width());
        ASSERT_EQ(fa.height(), fb.height());
        EXPECT_EQ(0, std::memcmp(fa.data().data(), fb.data().data(),
                                 fa.element_count() * sizeof(double)));
    }
}

constexpr Boundary kBoundaries[] = {Boundary::clamp, Boundary::zero,
                                    Boundary::mirror, Boundary::periodic};
constexpr int kIterations = 6;

TEST(Temporal_tiling, identical_across_depths_boundaries_shapes_and_threads) {
    // 3x3 and 1x1 are smaller than the forced 4-row bands; 1x9 and 9x1
    // exercise single-column and single-row frames; 23x17 spans several
    // bands with trapezoidal halos on both sides. The baseline is the
    // independent per-pixel interpreter, not an engine schedule: depth 1
    // (unfused) runs through the same band code as every fused depth.
    const std::pair<int, int> shapes[] = {{23, 17}, {1, 9}, {9, 1}, {3, 3}, {1, 1}};
    std::uint64_t seed = 7;
    for (const Kernel_def& kernel : all_kernels()) {
        SCOPED_TRACE(kernel.name);
        const Stencil_step step = extract_stencil(kernel.c_source);
        const Exec_engine engine(step);
        for (const Boundary b : kBoundaries) {
            SCOPED_TRACE(to_string(b));
            for (const auto& [w, h] : shapes) {
                SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
                const Frame_set initial =
                    kernel.make_initial(make_noise(w, h, seed++, 0.0, 255.0));
                const Frame_set reference =
                    run_ir_reference(step, initial, kIterations, b);
                for (const int depth : {1, 2, 5, kIterations}) {
                    SCOPED_TRACE("depth " + std::to_string(depth));
                    for (const int threads : {1, 2, 8}) {
                        SCOPED_TRACE("threads " + std::to_string(threads));
                        expect_sets_identical(
                            reference, engine.run(initial, kIterations, b,
                                                  Exec_options{threads, depth, 4}));
                    }
                }
            }
        }
    }
}

TEST(Temporal_tiling, band_extremes_and_auto_sizing) {
    const Kernel_def& kernel = kernel_by_name("chambolle");  // multi-field state
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Exec_engine engine(step);
    const Frame_set initial = kernel.make_initial(make_noise(31, 29, 42, 0.0, 255.0));
    for (const Boundary b : kBoundaries) {
        SCOPED_TRACE(to_string(b));
        const Frame_set untiled = engine.run(initial, kIterations, b, Exec_options{1, 1, 0});
        // One-row bands: maximal trapezoid overlap.
        expect_sets_identical(untiled,
                              engine.run(initial, kIterations, b, Exec_options{2, 3, 1}));
        // Bands taller than the frame: a single band degenerates to
        // whole-frame fusion.
        expect_sets_identical(untiled,
                              engine.run(initial, kIterations, b, Exec_options{1, 2, 512}));
        // Fully automatic tiling decision (small frame: stays untiled).
        expect_sets_identical(untiled,
                              engine.run(initial, kIterations, b, Exec_options{0, 0, 0}));
        // Depth beyond the iteration count clamps to the iteration count.
        expect_sets_identical(untiled, engine.run(initial, kIterations, b,
                                                  Exec_options{1, kIterations + 9, 4}));
    }
}

TEST(Temporal_tiling, matches_reference_interpreter) {
    // Anchor the whole tiled stack against the independent per-pixel
    // interpreter (not just against the untiled engine).
    const Kernel_def& kernel = kernel_by_name("heat");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Exec_engine engine(step);
    const Frame_set initial = kernel.make_initial(make_noise(19, 15, 3, 0.0, 255.0));
    for (const Boundary b : kBoundaries) {
        SCOPED_TRACE(to_string(b));
        const Frame_set reference = run_ir_reference(step, initial, 5, b);
        expect_sets_identical(reference,
                              engine.run(initial, 5, b, Exec_options{2, 3, 2}));
    }
}

TEST(Temporal_tiling, run_ir_options_overload_agrees) {
    const Kernel_def& kernel = kernel_by_name("jacobi");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Frame_set initial = kernel.make_initial(make_noise(21, 13, 11, 0.0, 255.0));
    const Frame_set legacy = run_ir(step, initial, 4, kernel.boundary, 1);
    expect_sets_identical(legacy, run_ir(step, initial, 4, kernel.boundary,
                                         Exec_options{2, 4, 3}));
}

TEST(Temporal_tiling, identical_at_lane_block_boundaries) {
    // Interior widths one short of, exactly at, one past and two blocks plus
    // one past the 64-lane block: the lane split falls at a different column
    // in every schedule's rows, so tiled, untiled and threaded runs must stay
    // byte-identical there — double and fixed domains alike.
    const Kernel_def& kernel = kernel_by_name("heat");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Exec_engine engine(step);
    const int margins = engine.compiled().max_dx() - engine.compiled().min_dx();
    const Fixed_format fmt{10, 6};
    std::uint64_t seed = 91;
    for (const int lanes : {63, 64, 65, 129}) {
        SCOPED_TRACE("interior " + std::to_string(lanes));
        const Frame_set initial =
            kernel.make_initial(make_noise(lanes + margins, 21, seed++, 0.0, 255.0));
        for (const Boundary b : {Boundary::clamp, Boundary::periodic}) {
            SCOPED_TRACE(to_string(b));
            const Frame_set untiled =
                engine.run(initial, kIterations, b, Exec_options{1, 1, 0});
            const Fixed_frame_result fixed_ref =
                engine.run_fixed(initial, kIterations, b, fmt, Exec_options{1, 1, 0});
            for (const Exec_options& schedule :
                 {Exec_options{1, 3, 4}, Exec_options{2, 1, 0}}) {
                SCOPED_TRACE("threads " + std::to_string(schedule.threads) + " depth " +
                             std::to_string(schedule.tile_iterations));
                expect_sets_identical(untiled,
                                      engine.run(initial, kIterations, b, schedule));
                const Fixed_frame_result fixed =
                    engine.run_fixed(initial, kIterations, b, fmt, schedule);
                ASSERT_EQ(fixed_ref.raw.size(), fixed.raw.size());
                for (std::size_t i = 0; i < fixed_ref.raw.size(); ++i) {
                    EXPECT_EQ(0, std::memcmp(fixed_ref.raw[i].data(), fixed.raw[i].data(),
                                             fixed_ref.raw[i].size() *
                                                 sizeof(std::int64_t)))
                        << "fixed field " << fixed_ref.names[i];
                }
            }
        }
    }
}

TEST(Temporal_tiling, budgets_steer_schedule_not_values) {
    // Auto decisions sized from pinned budgets at both extremes (tiny: tile
    // and band everything; huge: nothing tiles) against the probed
    // defaults — budgets pick the schedule, never the values.
    const Kernel_def& kernel = kernel_by_name("jacobi");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Exec_engine engine(step);
    const Frame_set initial = kernel.make_initial(make_noise(97, 43, 5, 0.0, 255.0));
    for (const Boundary b : {Boundary::clamp, Boundary::periodic}) {
        SCOPED_TRACE(to_string(b));
        const Frame_set probed = engine.run(initial, kIterations, b, Exec_options{0, 0, 0});
        Exec_options tiny{0, 0, 0};
        tiny.budgets.tile_bytes = 1;
        tiny.budgets.band_bytes = 4u * 1024;
        expect_sets_identical(probed, engine.run(initial, kIterations, b, tiny));
        Exec_options huge{0, 0, 0};
        huge.budgets.tile_bytes = 1u << 30;
        huge.budgets.band_bytes = 1u << 28;
        expect_sets_identical(probed, engine.run(initial, kIterations, b, huge));
    }
}

TEST(Temporal_tiling, periodic_interim_bands_stay_band_sized) {
    // Wrapped halos keep periodic interim buffers at the clamp-mode
    // trapezoid height (band rows plus per-level halo growth) instead of
    // widening toward the whole frame at the edges.
    const Stencil_step step = extract_stencil(kernel_by_name("heat").c_source);
    const Exec_engine heat(step);
    const int halo = heat.state_halo_up() + heat.state_halo_down();
    constexpr int kHeight = 4096, kBand = 8;
    for (const int depth : {2, 4, 8}) {
        SCOPED_TRACE("depth " + std::to_string(depth));
        const int clamped = heat.planned_interim_rows(kHeight, kBand, depth,
                                                      Boundary::clamp);
        const int periodic = heat.planned_interim_rows(kHeight, kBand, depth,
                                                       Boundary::periodic);
        EXPECT_EQ(periodic, clamped);
        EXPECT_LE(periodic, kBand + depth * halo);
        EXPECT_LT(periodic, kHeight / 8);
    }
}

TEST(Temporal_tiling, state_halo_from_compiled_extents) {
    // heat reads the advancing field at dy in [-1, 1].
    const Stencil_step step = extract_stencil(kernel_by_name("heat").c_source);
    const Exec_engine heat(step);
    EXPECT_EQ(1, heat.state_halo_up());
    EXPECT_EQ(1, heat.state_halo_down());
    // The halo agrees with the program-wide footprint for a pure-state
    // kernel like heat.
    EXPECT_EQ(-heat.compiled().min_dy(), heat.state_halo_up());
    EXPECT_EQ(heat.compiled().max_dy(), heat.state_halo_down());
}

}  // namespace
}  // namespace islhls
