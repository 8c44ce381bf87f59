// Equivalence suite for the compiled scanline execution engine: the engine
// must agree bit for bit with the legacy per-pixel interpreter across every
// built-in kernel, every Boundary mode, degenerate frame shapes (1xN, Nx1,
// 1x1), interiors spanning several kTapeLane lane blocks and any thread
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "cone/cone.hpp"
#include "grid/frame_ops.hpp"
#include "ir/compiled.hpp"
#include "kernels/kernels.hpp"
#include "oracle/reference.hpp"
#include "sim/exec_engine.hpp"
#include "sim/golden.hpp"
#include "sim/tape_lanes.hpp"
#include "support/parallel.hpp"
#include "support/prng.hpp"
#include "symexec/executor.hpp"

namespace islhls {
namespace {

// Byte-level frame comparison: exact even for -0.0 / NaN payloads.
void expect_bytes_equal(const Frame& a, const Frame& b) {
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.height(), b.height());
    EXPECT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                             a.element_count() * sizeof(double)));
}

void expect_sets_equal(const Frame_set& a, const Frame_set& b) {
    ASSERT_EQ(a.names(), b.names());
    for (const std::string& name : a.names()) {
        SCOPED_TRACE(name);
        expect_bytes_equal(a.field(name), b.field(name));
    }
}

constexpr Boundary kBoundaries[] = {Boundary::clamp, Boundary::zero,
                                    Boundary::mirror, Boundary::periodic};

TEST(Exec_engine, matches_reference_on_all_kernels_boundaries_and_shapes) {
    // 133 columns leave every kernel's interior two full 64-lane blocks plus
    // a tail, whatever its margins.
    const std::pair<int, int> shapes[] = {{17, 13}, {1, 9}, {9, 1}, {1, 1}, {4, 4},
                                          {133, 5}};
    std::uint64_t seed = 1;
    for (const Kernel_def& kernel : all_kernels()) {
        SCOPED_TRACE(kernel.name);
        const Stencil_step step = extract_stencil(kernel.c_source);
        const Exec_engine engine(step);
        for (const Boundary b : kBoundaries) {
            SCOPED_TRACE(to_string(b));
            for (const auto& [w, h] : shapes) {
                SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
                const Frame content = make_noise(w, h, seed++, 0.0, 255.0);
                const Frame_set initial = kernel.make_initial(content);
                const Frame_set reference = run_ir_reference(step, initial, 2, b);
                for (const int threads : {1, 2, 8}) {
                    SCOPED_TRACE(threads);
                    expect_sets_equal(reference, engine.run(initial, 2, b, threads));
                }
            }
        }
    }
}

TEST(Exec_engine, threaded_runs_are_byte_identical_on_larger_frames) {
    const Kernel_def& kernel = kernel_by_name("chambolle");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Exec_engine engine(step);
    const Frame_set initial = kernel.make_initial(make_synthetic_scene(67, 41, 3));
    const Frame_set serial = engine.run(initial, 5, kernel.boundary, 1);
    for (const int threads : {2, 8}) {
        SCOPED_TRACE(threads);
        expect_sets_equal(serial, engine.run(initial, 5, kernel.boundary, threads));
    }
}

TEST(Exec_engine, external_pool_runs_are_byte_identical_and_reusable) {
    // An injected pool must supersede Exec_options::threads, survive many
    // runs (and engines), and change nothing about the result — the same
    // determinism contract as the per-run pool it replaces.
    const Kernel_def& kernel = kernel_by_name("igf");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Exec_engine engine(step);
    const Frame_set initial = kernel.make_initial(make_synthetic_scene(33, 21, 9));
    const Frame_set serial = engine.run(initial, 4, kernel.boundary, 1);

    Thread_pool pool(4);
    for (int threads : {1, 8}) {  // superseded by the pool either way
        Exec_options options;
        options.threads = threads;
        options.pool = &pool;
        expect_sets_equal(serial, engine.run(initial, 4, kernel.boundary, options));
    }
    // Tiled bands through the shared pool, then a second engine on the same
    // pool; run_ghost_ir's options overload routes through it too.
    Exec_options tiled;
    tiled.tile_iterations = 2;
    tiled.band_rows = 3;
    tiled.pool = &pool;
    expect_sets_equal(serial, engine.run(initial, 4, kernel.boundary, tiled));

    const Kernel_def& heat = kernel_by_name("heat");
    const Stencil_step heat_step = extract_stencil(heat.c_source);
    const Frame_set heat_initial = heat.make_initial(make_synthetic_scene(19, 14, 2));
    Exec_options ghost_options;
    ghost_options.pool = &pool;
    expect_sets_equal(run_ghost_ir(heat_step, heat_initial, 3, heat.boundary),
                      run_ghost_ir(heat_step, heat_initial, 3, heat.boundary,
                                   ghost_options));
}

TEST(Exec_engine, zero_iterations_returns_initial_untouched) {
    const Kernel_def& kernel = kernel_by_name("heat");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Frame_set initial = kernel.make_initial(make_gradient(6, 5));
    const Frame_set out = Exec_engine(step).run(initial, 0, kernel.boundary);
    expect_sets_equal(initial, out);
}

TEST(Exec_engine, run_ir_wrapper_matches_reference_and_supports_threads) {
    const Kernel_def& kernel = kernel_by_name("igf");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Frame_set initial = kernel.make_initial(make_synthetic_scene(23, 17, 9));
    const Frame_set reference = run_ir_reference(step, initial, 3, kernel.boundary);
    expect_sets_equal(reference, run_ir(step, initial, 3, kernel.boundary));
    expect_sets_equal(reference, run_ir(step, initial, 3, kernel.boundary, 8));
    expect_sets_equal(run_step_ir_reference(step, initial, kernel.boundary),
                      run_step_ir(step, initial, kernel.boundary));
}

// One run_tape lane block must reproduce the reference interpreter slot
// for slot in every lane, for a single lane, a partial block and a full one
// (the frame engine's border blocks, interior tails and interior blocks).
TEST(Compiled_program, run_tape_reproduces_interpreter_trace) {
    const Kernel_def& kernel = kernel_by_name("perona_malik");
    Stencil_step step = extract_stencil(kernel.c_source);
    const Cone cone(step, Cone_spec{3, 3, 2});
    const Register_program& program = cone.program();
    const Compiled_program& tape = program.compiled();
    const auto slots = static_cast<std::size_t>(tape.slot_count());
    ASSERT_EQ(slots, program.instructions().size());

    Prng rng(17);
    Lane_block<Compiled_program> block(tape);
    double** slot = block.slot();
    for (const Tape_constant& k : tape.constants()) {
        for (int l = 0; l < kTapeLane; ++l) ASSERT_EQ(slot[k.slot][l], k.value);
    }
    std::vector<std::vector<double>> sample_inputs(kTapeLane);
    std::vector<double> regs;
    for (int n : {1, kTapeLane - 1, kTapeLane}) {
        SCOPED_TRACE(n);
        for (int l = 0; l < n; ++l) {
            std::vector<double>& inputs = sample_inputs[static_cast<std::size_t>(l)];
            inputs.resize(tape.inputs().size());
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                inputs[i] = rng.next_in(-4.0, 260.0);
                slot[static_cast<std::size_t>(tape.inputs()[i].slot)][l] = inputs[i];
            }
        }
        run_tape(tape, slot, n);
        for (int l = 0; l < n; ++l) {
            run_trace_into(program, sample_inputs[static_cast<std::size_t>(l)], regs);
            for (std::size_t s = 0; s < slots; ++s) {
                ASSERT_EQ(0, std::memcmp(&regs[s], &slot[s][l], sizeof(double)))
                    << "lane " << l << " slot " << s;
            }
        }
    }
}

TEST(Compiled_program, footprint_matches_input_instructions) {
    const Kernel_def& kernel = kernel_by_name("shock");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Register_program program = build_program(step.pool(), step.updates());
    const Compiled_program& tape = program.compiled();
    const std::vector<Instruction> ports = input_instructions(program);
    int min_dx = 0, max_dx = 0, min_dy = 0, max_dy = 0;
    for (const Instruction& port : ports) {
        min_dx = std::min(min_dx, port.dx);
        max_dx = std::max(max_dx, port.dx);
        min_dy = std::min(min_dy, port.dy);
        max_dy = std::max(max_dy, port.dy);
    }
    EXPECT_EQ(tape.min_dx(), min_dx);
    EXPECT_EQ(tape.max_dx(), max_dx);
    EXPECT_EQ(tape.min_dy(), min_dy);
    EXPECT_EQ(tape.max_dy(), max_dy);
    EXPECT_EQ(tape.inputs().size(), ports.size());
    EXPECT_EQ(tape.output_slots(), program.outputs());
}

}  // namespace
}  // namespace islhls
