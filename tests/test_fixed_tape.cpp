// Fixed-point tape engine equivalence: the integer-lowered tape run through
// the run_raw_batch lane path must be byte-identical to the run_fixed_raw
// reference interpreter for every kernel and format — the same memcmp
// contract the double engine holds against run_ir_reference.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cone/cone.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "oracle/reference.hpp"
#include "sim/fixed_exec.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
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

// Raw per-sample input vectors for `count` window origins of the kernel's
// initial frame set, quantized like the production callers quantize them.
std::vector<std::vector<std::int64_t>> gather_raw_inputs(
    const Register_program& program, const Stencil_step& step,
    const Frame_set& content, Boundary boundary, const Fixed_format& fmt,
    int count, std::uint64_t seed) {
    Prng rng(seed);
    const Raw_quantizer quantize(fmt);
    const std::vector<Instruction> ports = input_instructions(program);
    std::vector<std::vector<std::int64_t>> sets;
    for (int s = 0; s < count; ++s) {
        const int ox = rng.next_int(0, content.width() - 1);
        const int oy = rng.next_int(0, content.height() - 1);
        std::vector<std::int64_t> raw;
        raw.reserve(ports.size());
        for (const Instruction& port : ports) {
            const Frame& f = content.field(step.pool().field_name(port.field));
            raw.push_back(quantize(f.sample(ox + port.dx, oy + port.dy, boundary)));
        }
        sets.push_back(std::move(raw));
    }
    return sets;
}

// Checks the run_raw_batch lanes against the interpreter on the given samples,
// in one memcmp over the whole output array.
void expect_tape_matches_interpreter(
    const Register_program& program, const Fixed_format& fmt,
    const std::vector<std::vector<std::int64_t>>& input_sets) {
    const auto in_count = static_cast<std::size_t>(program.input_count());
    const std::size_t out_count = program.outputs().size();
    const std::size_t samples = input_sets.size();

    // Reference: one interpreter run per sample.
    std::vector<std::int64_t> expected;
    expected.reserve(samples * out_count);
    for (const auto& inputs : input_sets) {
        const std::vector<std::int64_t> out = run_fixed_raw(program, inputs, fmt);
        expected.insert(expected.end(), out.begin(), out.end());
    }

    // Batched path, whole batch in one pass.
    std::vector<std::int64_t> flat(samples * in_count);
    for (std::size_t s = 0; s < samples; ++s) {
        std::copy(input_sets[s].begin(), input_sets[s].end(),
                  flat.begin() + s * in_count);
    }
    const Fixed_tape tape(program.compiled(), fmt);
    Lane_block<Fixed_tape> block;
    std::vector<std::int64_t> batched(samples * out_count, -1);
    run_raw_batch(tape, flat.data(), samples, batched.data(), block);
    EXPECT_EQ(std::memcmp(batched.data(), expected.data(),
                          expected.size() * sizeof(std::int64_t)),
              0)
        << to_string(fmt);
}

TEST(Fixed_tape, matches_interpreter_on_all_kernels_and_formats) {
    for (const std::string& name : kernel_names()) {
        SCOPED_TRACE(name);
        const Kernel_def& kernel = kernel_by_name(name);
        Stencil_step step = extract_stencil(kernel.c_source);
        const Cone cone(step, Cone_spec{2, 2, 1});
        const Frame_set content =
            kernel.make_initial(make_synthetic_scene(19, 15, 77));
        for (const Fixed_format& fmt : test_formats()) {
            SCOPED_TRACE(to_string(fmt));
            const auto inputs = gather_raw_inputs(cone.program(), step, content,
                                                  kernel.boundary, fmt, 70, 5);
            expect_tape_matches_interpreter(cone.program(), fmt, inputs);
        }
    }
}

TEST(Fixed_tape, matches_interpreter_on_deep_cones) {
    // Deeper cones (chambolle exercises sqrt and the truncating divide, igf
    // the multiply shift) over a larger program.
    for (const std::string& name : {std::string("igf"), std::string("chambolle")}) {
        SCOPED_TRACE(name);
        const Kernel_def& kernel = kernel_by_name(name);
        Stencil_step step = extract_stencil(kernel.c_source);
        const Cone cone(step, Cone_spec{3, 3, 2});
        const Frame_set content =
            kernel.make_initial(make_synthetic_scene(17, 13, 3));
        for (const Fixed_format& fmt : test_formats()) {
            SCOPED_TRACE(to_string(fmt));
            const auto inputs = gather_raw_inputs(cone.program(), step, content,
                                                  kernel.boundary, fmt, 40, 11);
            expect_tape_matches_interpreter(cone.program(), fmt, inputs);
        }
    }
}

TEST(Fixed_tape, negative_divide_sqrt_and_wrap_edge_cases) {
    // A kernel built to hit the nasty operator corners: differences go
    // negative (truncating divide toward zero, abs, neg), the guarded
    // divide's denominator crosses zero, sqrt sees negative arguments, and
    // min/max/compare/select mix in.
    const char* source = R"(
void edges_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float d = u[y][x-1] - u[y][x+1];
            float q = d / (0.5f + fabsf(u[y-1][x]));
            float r = sqrtf(d);
            float m = fminf(u[y][x], -u[y+1][x]) + fmaxf(d, q);
            u_out[y][x] = (d < 0.0f ? r - m : q + m) + (u[y][x] - 127.0f);
        }
    }
}
)";
    Stencil_step step = extract_stencil(source);
    const Cone cone(step, Cone_spec{2, 2, 2});
    Frame_set content(13, 11);
    content.add_field("u", make_noise(13, 11, 0xEDBE, -300.0, 300.0));
    for (const Fixed_format& fmt : test_formats()) {
        SCOPED_TRACE(to_string(fmt));
        const auto inputs = gather_raw_inputs(cone.program(), step, content,
                                              Boundary::mirror, fmt, 60, 23);
        expect_tape_matches_interpreter(cone.program(), fmt, inputs);
    }
}

TEST(Fixed_tape, out_of_range_raw_inputs_wrap_like_the_interpreter) {
    // Both paths must wrap-resize raw input words on load (VHDL resize of a
    // wider bus), not just quantized in-range values.
    const Kernel_def& kernel = kernel_by_name("jacobi");
    Stencil_step step = extract_stencil(kernel.c_source);
    const Cone cone(step, Cone_spec{2, 2, 1});
    const Fixed_format fmt{6, 2};
    Prng rng(99);
    std::vector<std::vector<std::int64_t>> sets;
    for (int s = 0; s < 40; ++s) {
        std::vector<std::int64_t> raw;
        for (int i = 0; i < cone.program().input_count(); ++i) {
            // Far outside the 8-bit range, both signs.
            raw.push_back(static_cast<std::int64_t>(rng.next_int(-2000000, 2000000)) *
                          1021);
        }
        sets.push_back(std::move(raw));
    }
    expect_tape_matches_interpreter(cone.program(), fmt, sets);
}

TEST(Fixed_batch, partial_and_multi_block_batches) {
    // Batch sizes around the slot stride (the batch rounded up to 8 words,
    // capped at kTapeLane) and the lane width: 1, 5, 8, 31, 32, 33,
    // kTapeLane - 1, kTapeLane, kTapeLane + 1 and several full blocks plus
    // a remainder.
    const Kernel_def& kernel = kernel_by_name("heat");
    Stencil_step step = extract_stencil(kernel.c_source);
    const Cone cone(step, Cone_spec{2, 2, 1});
    const Frame_set content = kernel.make_initial(make_synthetic_scene(23, 17, 4));
    const Fixed_format fmt{10, 6};
    for (int samples : {1, 5, 8, 31, 32, 33, kTapeLane - 1, kTapeLane, kTapeLane + 1,
                        3 * kTapeLane + 7}) {
        SCOPED_TRACE(samples);
        const auto inputs = gather_raw_inputs(cone.program(), step, content,
                                              kernel.boundary, fmt, samples, 31);
        expect_tape_matches_interpreter(cone.program(), fmt, inputs);
    }
}

TEST(Fixed_batch, lane_block_is_reusable_across_formats_and_programs) {
    // One lane block serving programs of different slot counts and formats
    // of different widths must not leak state between runs.
    const Kernel_def& igf = kernel_by_name("igf");
    Stencil_step igf_step = extract_stencil(igf.c_source);
    const Cone big(igf_step, Cone_spec{3, 3, 2});
    const Cone small(igf_step, Cone_spec{1, 1, 1});
    const Frame_set content = igf.make_initial(make_synthetic_scene(19, 15, 6));
    Lane_block<Fixed_tape> block;
    for (const Cone* cone : {&big, &small, &big}) {
        for (const Fixed_format& fmt : test_formats()) {
            const auto inputs = gather_raw_inputs(cone->program(), igf_step, content,
                                                  igf.boundary, fmt, 33, 13);
            const auto in_count = static_cast<std::size_t>(cone->program().input_count());
            const std::size_t out_count = cone->program().outputs().size();
            std::vector<std::int64_t> flat(inputs.size() * in_count);
            for (std::size_t s = 0; s < inputs.size(); ++s) {
                std::copy(inputs[s].begin(), inputs[s].end(),
                          flat.begin() + s * in_count);
            }
            const Fixed_tape tape(cone->program().compiled(), fmt);
            std::vector<std::int64_t> batched(inputs.size() * out_count);
            run_raw_batch(tape, flat.data(), inputs.size(), batched.data(), block);
            for (std::size_t s = 0; s < inputs.size(); ++s) {
                const std::vector<std::int64_t> expected =
                    run_fixed_raw(cone->program(), inputs[s], fmt);
                ASSERT_EQ(std::memcmp(expected.data(), batched.data() + s * out_count,
                                      out_count * sizeof(std::int64_t)),
                          0)
                    << to_string(cone->spec()) << " " << to_string(fmt);
            }
        }
    }
}

TEST(Fixed_tape, constants_are_prequantized) {
    const Kernel_def& kernel = kernel_by_name("heat");
    Stencil_step step = extract_stencil(kernel.c_source);
    const Cone cone(step, Cone_spec{1, 1, 1});
    const Fixed_format fmt{8, 4};
    const Fixed_tape tape(cone.program().compiled(), fmt);
    const auto& constants = cone.program().compiled().constants();
    ASSERT_EQ(tape.constant_raw().size(), constants.size());
    for (std::size_t i = 0; i < constants.size(); ++i) {
        EXPECT_EQ(tape.constant_raw()[i], to_raw(constants[i].value, fmt));
    }
    EXPECT_EQ(tape.fixed_one(), to_raw(1.0, fmt));
    EXPECT_EQ(tape.wrap().bits(), fmt.total_bits());
}

TEST(Fixed_tape, refuses_a_negative_fraction_or_no_sign_bit) {
    // Q20.-4 would shift by -4 in the fixed ops; Q0.8 has no sign bit.
    // The user-facing checks refuse both first (validate_config and the
    // CLI's format parser); reaching the lowering is an internal error.
    const Kernel_def& kernel = kernel_by_name("heat");
    Stencil_step step = extract_stencil(kernel.c_source);
    const Cone cone(step, Cone_spec{1, 1, 1});
    const Compiled_program& cp = cone.program().compiled();
    EXPECT_THROW(Fixed_tape(cp, Fixed_format{20, -4}), Internal_error);
    EXPECT_THROW(Fixed_tape(cp, Fixed_format{0, 8}), Internal_error);
    EXPECT_NO_THROW(Fixed_tape(cp, Fixed_format{1, 8}));
}

}  // namespace
}  // namespace islhls
