// The register allocation of the compiled tape, held to the SSA program it
// lowers.
//
// Compiled_program gives op results reused slots (ir/compiled.hpp). Over
// every built-in kernel's step tape and its 1x1 d1, 3x3 d2, 8x8 d4 and 9x9
// d5 cones this suite checks that allocation three ways:
//
//   - a symbolic occupancy walk: every source slot holds the SSA value its
//     op reads, input and constant slots are never written, an output slot
//     is written only by the op computing its output, and no op's dest is
//     one of its own sources;
//   - run_tape agrees with the SSA reference interpreters bit for bit, in
//     double (run_trace_into) and in Q10.6 and Q31.30 fixed point
//     (run_fixed_raw against the batched run_raw_batch);
//   - slot pins on the largest cones, and the packed records: exact op-list
//     capacity, and the range check of every narrowed Instruction field.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cone/cone.hpp"
#include "ir/compiled.hpp"
#include "kernels/kernels.hpp"
#include "oracle/reference.hpp"
#include "sim/fixed_exec.hpp"
#include "sim/tape_lanes.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "symexec/executor.hpp"

namespace islhls {
namespace {

constexpr Cone_spec kCones[] = {{1, 1, 1}, {3, 3, 2}, {8, 8, 4}, {9, 9, 5}};

// The symbolic walk: occupant[s] is the SSA register whose value slot s
// holds at the current point of the tape.
void expect_occupancy_sound(const Register_program& program, const Compiled_program& tape) {
    const std::vector<Instruction>& instrs = program.instructions();
    const auto slots = static_cast<std::size_t>(tape.slot_count());
    constexpr std::int32_t kEmpty = -1;
    std::vector<std::int32_t> occupant(slots, kEmpty);
    std::vector<bool> leaf(slots, false);
    std::vector<std::size_t> of_op;
    std::size_t next_input = 0;
    std::size_t next_constant = 0;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        std::int32_t s = kEmpty;
        if (instrs[i].kind == Op_kind::input) {
            ASSERT_LT(next_input, tape.inputs().size());
            s = tape.inputs()[next_input++].slot;
        } else if (instrs[i].kind == Op_kind::constant) {
            ASSERT_LT(next_constant, tape.constants().size());
            s = tape.constants()[next_constant++].slot;
        } else {
            of_op.push_back(i);
            continue;
        }
        ASSERT_GE(s, 0);
        ASSERT_LT(static_cast<std::size_t>(s), slots);
        ASSERT_EQ(occupant[static_cast<std::size_t>(s)], kEmpty) << "two leaves share slot " << s;
        occupant[static_cast<std::size_t>(s)] = static_cast<std::int32_t>(i);
        leaf[static_cast<std::size_t>(s)] = true;
    }
    ASSERT_EQ(next_input, tape.inputs().size());
    ASSERT_EQ(next_constant, tape.constants().size());
    ASSERT_EQ(of_op.size(), tape.ops().size());

    // owner[s]: the register whose output slot s is, if any.
    ASSERT_EQ(tape.output_slots().size(), program.outputs().size());
    std::vector<std::int32_t> owner(slots, kEmpty);
    std::vector<bool> is_output(instrs.size(), false);
    for (std::size_t o = 0; o < program.outputs().size(); ++o) {
        const std::int32_t s = tape.output_slots()[o];
        const std::int32_t reg = program.outputs()[o];
        ASSERT_GE(s, 0);
        ASSERT_LT(static_cast<std::size_t>(s), slots);
        auto& own = owner[static_cast<std::size_t>(s)];
        ASSERT_TRUE(own == kEmpty || own == reg) << "outputs " << own << " and " << reg
                                                 << " share slot " << s;
        own = reg;
        is_output[static_cast<std::size_t>(reg)] = true;
    }

    for (std::size_t k = 0; k < tape.ops().size(); ++k) {
        const Tape_op& op = tape.ops()[k];
        const auto j = static_cast<std::int32_t>(of_op[k]);
        const Instruction& instr = instrs[of_op[k]];
        ASSERT_EQ(op.kind, instr.kind) << "op " << k;
        ASSERT_EQ(op.src_count, instr.operand_count) << "op " << k;
        ASSERT_GE(op.dest, 0);
        ASSERT_LT(static_cast<std::size_t>(op.dest), slots);
        const auto dest = static_cast<std::size_t>(op.dest);
        for (int a = 0; a < op.src_count; ++a) {
            const std::int32_t src = op.src[static_cast<std::size_t>(a)];
            ASSERT_EQ(occupant[static_cast<std::size_t>(src)],
                      instr.operands[static_cast<std::size_t>(a)])
                << "op " << k << " operand " << a << " reads slot " << src
                << " after its value was overwritten";
            ASSERT_NE(src, op.dest) << "op " << k << " dest aliases operand " << a;
        }
        ASSERT_FALSE(leaf[dest]) << "op " << k << " writes the leaf slot " << op.dest;
        if (is_output[static_cast<std::size_t>(j)]) {
            ASSERT_EQ(owner[dest], j) << "output op " << k << " misses its output slot";
        } else {
            ASSERT_EQ(owner[dest], kEmpty) << "op " << k << " writes output slot " << op.dest;
        }
        occupant[dest] = j;
    }
    for (std::size_t o = 0; o < program.outputs().size(); ++o) {
        ASSERT_EQ(occupant[static_cast<std::size_t>(tape.output_slots()[o])],
                  program.outputs()[o])
            << "output " << o;
    }
}

// Seeded input samples, row-major [samples][ports], in [-4, 260).
std::vector<double> sample_inputs(const Compiled_program& tape, std::size_t samples,
                                  std::uint64_t seed) {
    Prng rng(seed);
    std::vector<double> values(samples * tape.inputs().size());
    for (double& v : values) v = rng.next_in(-4.0, 260.0);
    return values;
}

void expect_double_matches_trace(const Register_program& program,
                                 const Compiled_program& tape) {
    const std::size_t ports = tape.inputs().size();
    const std::vector<double> inputs = sample_inputs(tape, kTapeLane, 11);
    Lane_block<Compiled_program> block(tape);
    double** slot = block.slot();
    for (int l = 0; l < kTapeLane; ++l) {
        for (std::size_t i = 0; i < ports; ++i) {
            slot[tape.inputs()[i].slot][l] = inputs[static_cast<std::size_t>(l) * ports + i];
        }
    }
    run_tape(tape, slot, kTapeLane);
    std::vector<double> regs;
    for (int l = 0; l < kTapeLane; ++l) {
        const auto first = inputs.begin() + static_cast<std::ptrdiff_t>(l) *
                                                static_cast<std::ptrdiff_t>(ports);
        run_trace_into(program,
                       std::vector<double>(first, first + static_cast<std::ptrdiff_t>(ports)),
                       regs);
        for (std::size_t o = 0; o < program.outputs().size(); ++o) {
            const double want = regs[static_cast<std::size_t>(program.outputs()[o])];
            ASSERT_EQ(0, std::memcmp(&want, &slot[tape.output_slots()[o]][l], sizeof want))
                << "lane " << l << " output " << o;
        }
    }
}

void expect_fixed_matches_reference(const Register_program& program,
                                    const Compiled_program& tape, const Fixed_format& fmt) {
    SCOPED_TRACE(to_string(fmt));
    // One full lane block and a partial one.
    constexpr std::size_t kSamples = kTapeLane + 37;
    const std::size_t ports = tape.inputs().size();
    const std::size_t outs = tape.output_slots().size();
    const std::vector<double> values = sample_inputs(tape, kSamples, 23);
    std::vector<std::int64_t> raw(values.size());
    for (std::size_t k = 0; k < values.size(); ++k) raw[k] = to_raw(values[k], fmt);
    const Fixed_tape fixed(tape, fmt);
    Lane_block<Fixed_tape> block;
    std::vector<std::int64_t> got(kSamples * outs);
    run_raw_batch(fixed, raw.data(), kSamples, got.data(), block);
    for (std::size_t s = 0; s < kSamples; ++s) {
        const auto first = raw.begin() + static_cast<std::ptrdiff_t>(s * ports);
        const std::vector<std::int64_t> want = run_fixed_raw(
            program, std::vector<std::int64_t>(first, first + static_cast<std::ptrdiff_t>(ports)),
            fmt);
        for (std::size_t o = 0; o < outs; ++o) {
            ASSERT_EQ(got[s * outs + o], want[o]) << "sample " << s << " output " << o;
        }
    }
}

void expect_allocation_holds(const Register_program& program,
                             const Compiled_program& tape) {
    EXPECT_EQ(tape.ops().capacity(), tape.ops().size());
    EXPECT_LE(static_cast<std::size_t>(tape.slot_count()), program.instructions().size());
    expect_occupancy_sound(program, tape);
    expect_double_matches_trace(program, tape);
    expect_fixed_matches_reference(program, tape, Fixed_format{10, 6});
    expect_fixed_matches_reference(program, tape, Fixed_format{31, 30});
}

TEST(Tape_allocation, step_tapes_and_cones_of_every_kernel_agree_with_ssa) {
    for (const Kernel_def& kernel : all_kernels()) {
        SCOPED_TRACE(kernel.name);
        Stencil_step step = extract_stencil(kernel.c_source);
        {
            SCOPED_TRACE("step");
            const Register_program program = build_program(step.pool(), step.updates());
            expect_allocation_holds(program, program.compiled());
        }
        Cone_memo memo(step);
        for (const Cone_spec& spec : kCones) {
            SCOPED_TRACE(to_string(spec));
            const Cone cone(step, spec, memo);
            expect_allocation_holds(cone.lower(), cone.tape());
        }
    }
}

// A slot per live value: the allocated totals of the two widest 8x8 depth-4
// cones, against 13,675 and 17,941 SSA slots.
TEST(Tape_allocation, large_cones_hold_only_their_live_values) {
    const std::pair<const char*, int> pins[] = {{"perona_malik", 359}, {"convection", 1514}};
    for (const auto& [name, most] : pins) {
        SCOPED_TRACE(name);
        Stencil_step step = extract_stencil(kernel_by_name(name).c_source);
        const Cone cone(step, Cone_spec{8, 8, 4});
        EXPECT_LE(cone.tape().slot_count(), most);
    }
}

// The packed Instruction keeps read offsets in 16 bits.
TEST(Tape_allocation, an_offset_past_the_packed_range_is_a_user_error) {
    const std::string source =
        "void far_step(float u_out[H][W], const float u[H][W]) {\n"
        "    for (int y = 0; y < H; y++) {\n"
        "        for (int x = 0; x < W; x++) {\n"
        "            u_out[y][x] = 0.5f * u[y][x] + 0.5f * u[y][x+40000];\n"
        "        }\n"
        "    }\n"
        "}\n";
    // The symbolic executor's default reach bound (8) would reject the
    // kernel first; a library caller may raise it.
    Symexec_options options;
    options.max_reach = 50000;
    const Stencil_step step = extract_stencil(source, options);
    try {
        build_program(step.pool(), step.updates());
        FAIL() << "an offset of 40000 was packed";
    } catch (const User_error& e) {
        EXPECT_NE(std::string(e.what()).find("40000"), std::string::npos) << e.what();
    }
}

}  // namespace
}  // namespace islhls
