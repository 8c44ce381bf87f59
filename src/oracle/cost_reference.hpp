// SSA cost walk: the test oracle of the synthesizer's tape pricing
// (synth/cost_model.hpp).
//
// program_cost_reference prices a Register_program one instruction at a
// time: constant operands are found by reading the operand instructions,
// and the critical path is carried per SSA value rather than per allocated
// slot. Both walks share cost_of_op, so what the differential
// test (tests/test_cone_lowering.cpp) holds equal is the walk itself:
// operand lookup, leaf costs and stage depths, field for field and bit for
// bit.
//
// Part of the islhls_oracles library; the islhls library and the CLI
// contain none of it.
#pragma once

#include "ir/program.hpp"
#include "synth/cost_model.hpp"

namespace islhls {

Program_cost program_cost_reference(const Register_program& program,
                                    const Cost_options& options);

}  // namespace islhls
