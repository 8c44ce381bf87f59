// A cone keeps one lowered form, its register-allocated tape, and re-lowers
// its SSA program on demand (Cone::lower()). Over every cone with window
// <= 4 and depth <= 3 of all built-in kernels, built through one
// Cone_library per kernel the way the DSE builds them:
//
//   - re-lowering is the identity: Compiled_program(cone.lower()) equals the
//     retained tape op for op, binding for binding and slot for slot, and
//     the lowered program agrees with the cone's statistics;
//   - the synthesizer prices the tape exactly as the SSA cost walk
//     (oracle/cost_reference.hpp) prices the lowered program: every
//     Program_cost field bit for bit, at Q5.2, Q10.6 with DSP mapping off
//     and on (only widths up to 18 bits reach a DSP block) and Q31.30. The
//     grid must reach every operand-dependent branch of the cost model:
//     constant and variable multiplies (DSP-mapped ones included), constant
//     and variable divides, and square roots.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dse/cone_library.hpp"
#include "ir/compiled.hpp"
#include "kernels/kernels.hpp"
#include "oracle/cost_reference.hpp"
#include "symexec/executor.hpp"
#include "synth/cost_model.hpp"

namespace islhls {
namespace {

constexpr int kMaxWindow = 4;
constexpr int kMaxDepth = 3;

class Cone_lowering : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        libraries_ = new std::vector<std::unique_ptr<Cone_library>>();
        for (const Kernel_def& kernel : all_kernels()) {
            auto& library = libraries_->emplace_back(std::make_unique<Cone_library>(
                extract_stencil(kernel.c_source), kernel.name));
            for (int d = 1; d <= kMaxDepth; ++d) {
                for (int w = 1; w <= kMaxWindow; ++w) library->cone(w, d);
            }
        }
    }
    static void TearDownTestSuite() {
        delete libraries_;
        libraries_ = nullptr;
    }

    // Calls `check(cone, where)` for every cone of the grid. The grid is
    // built, so lower() never races a build extending the pool.
    template <class Check>
    static void for_each_cone(Check check) {
        for (const auto& library : *libraries_) {
            for (int d = 1; d <= kMaxDepth; ++d) {
                for (int w = 1; w <= kMaxWindow; ++w) {
                    const Cone& cone = library->cone(w, d);
                    check(cone, library->kernel_name() + " " + to_string(cone.spec()));
                }
            }
        }
    }

    static std::vector<std::unique_ptr<Cone_library>>* libraries_;
};

std::vector<std::unique_ptr<Cone_library>>* Cone_lowering::libraries_ = nullptr;

void expect_same_tape(const Compiled_program& got, const Compiled_program& want,
                      const std::string& where) {
    ASSERT_EQ(got.ops().size(), want.ops().size()) << where;
    for (std::size_t k = 0; k < got.ops().size(); ++k) {
        const Tape_op& g = got.ops()[k];
        const Tape_op& w = want.ops()[k];
        ASSERT_EQ(g.kind, w.kind) << where << " op " << k;
        ASSERT_EQ(g.dest, w.dest) << where << " op " << k;
        ASSERT_EQ(g.src_count, w.src_count) << where << " op " << k;
        ASSERT_EQ(g.src, w.src) << where << " op " << k;
    }
    ASSERT_EQ(got.inputs().size(), want.inputs().size()) << where;
    for (std::size_t i = 0; i < got.inputs().size(); ++i) {
        const Tape_input& g = got.inputs()[i];
        const Tape_input& w = want.inputs()[i];
        ASSERT_EQ(g.slot, w.slot) << where << " input " << i;
        ASSERT_EQ(g.field, w.field) << where << " input " << i;
        ASSERT_EQ(g.dx, w.dx) << where << " input " << i;
        ASSERT_EQ(g.dy, w.dy) << where << " input " << i;
    }
    ASSERT_EQ(got.constants().size(), want.constants().size()) << where;
    for (std::size_t i = 0; i < got.constants().size(); ++i) {
        const Tape_constant& g = got.constants()[i];
        const Tape_constant& w = want.constants()[i];
        ASSERT_EQ(g.slot, w.slot) << where << " constant " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(g.value), std::bit_cast<std::uint64_t>(w.value))
            << where << " constant " << i;
    }
    EXPECT_EQ(got.output_slots(), want.output_slots()) << where;
    EXPECT_EQ(got.slot_count(), want.slot_count()) << where;
}

TEST_F(Cone_lowering, relowering_reproduces_the_retained_tape) {
    int cones = 0;
    for_each_cone([&](const Cone& cone, const std::string& where) {
        const Register_program program = cone.lower();
        expect_same_tape(Compiled_program(program), cone.tape(), where);
        const Cone_stats& stats = cone.stats();
        EXPECT_EQ(program.register_count(), stats.register_count) << where;
        EXPECT_EQ(program.input_count(), stats.input_count) << where;
        EXPECT_EQ(static_cast<int>(program.outputs().size()), stats.output_count) << where;
        EXPECT_EQ(program.depth(), stats.pipeline_depth) << where;
        cones += 1;
    });
    EXPECT_EQ(cones, static_cast<int>(all_kernels().size()) * kMaxWindow * kMaxDepth);
}

void expect_same_cost(const Program_cost& got, const Program_cost& want,
                      const std::string& where) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.luts), std::bit_cast<std::uint64_t>(want.luts))
        << where << ": luts " << got.luts << " vs " << want.luts;
    EXPECT_EQ(got.dsps, want.dsps) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.ff_bits),
              std::bit_cast<std::uint64_t>(want.ff_bits))
        << where << ": ff_bits " << got.ff_bits << " vs " << want.ff_bits;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_stage_delay_ns),
              std::bit_cast<std::uint64_t>(want.max_stage_delay_ns))
        << where << ": max_stage_delay_ns " << got.max_stage_delay_ns << " vs "
        << want.max_stage_delay_ns;
    EXPECT_EQ(got.latency_stages, want.latency_stages) << where;
}

TEST_F(Cone_lowering, tape_pricing_equals_the_ssa_cost_walk) {
    const std::vector<Cost_options> options = {
        {Fixed_format{5, 2}, false},
        {Fixed_format{10, 6}, false},
        {Fixed_format{10, 6}, true},
        {Fixed_format{31, 30}, false},
    };
    // Instructions reaching each operand-dependent cost branch, counted on
    // the SSA side, and the DSP blocks the reference maps at Q10.6.
    int constant_mul = 0;
    int variable_mul = 0;
    int constant_div = 0;
    int variable_div = 0;
    int sqrt_ops = 0;
    int dsp_blocks = 0;
    for_each_cone([&](const Cone& cone, const std::string& where) {
        const Register_program program = cone.lower();
        const std::vector<Instruction>& instrs = program.instructions();
        const auto is_constant = [&](std::int32_t r) {
            return instrs[static_cast<std::size_t>(r)].kind == Op_kind::constant;
        };
        for (const Instruction& in : instrs) {
            if (in.kind == Op_kind::mul) {
                (is_constant(in.operands[0]) || is_constant(in.operands[1]) ? constant_mul
                                                                            : variable_mul) += 1;
            } else if (in.kind == Op_kind::div) {
                (is_constant(in.operands[1]) ? constant_div : variable_div) += 1;
            } else if (in.kind == Op_kind::sqrt_op) {
                sqrt_ops += 1;
            }
        }
        for (const Cost_options& option : options) {
            const Program_cost want = program_cost_reference(program, option);
            expect_same_cost(cost_of_program(cone.tape(), option), want,
                             where + " at " + to_string(option.format) +
                                 (option.use_dsp ? " dsp" : ""));
            if (option.use_dsp) dsp_blocks += want.dsps;
        }
    });
    EXPECT_GT(constant_mul, 0);
    EXPECT_GT(variable_mul, 0);
    EXPECT_GT(constant_div, 0);
    EXPECT_GT(variable_div, 0);
    EXPECT_GT(sqrt_ops, 0);
    // Every variable multiply is DSP-mapped at Q10.6 with use_dsp.
    EXPECT_EQ(dsp_blocks, variable_mul);
}

}  // namespace
}  // namespace islhls
