// Technology-mapping cost model: per-operation LUT / DSP / timing costs.
//
// This is the virtual synthesizer's view of how a Virtex-class tool maps
// fixed-point operators: adders on carry chains, constant multipliers as
// CSD shift-add networks, variable multipliers on DSP blocks (or LUT arrays
// when the blocks run out), dividers and square roots as pipelined digit
// recurrences. Delays are post-route estimates (logic + local routing).
//
// A design is priced off its register-allocated tape (ir/compiled.hpp), the
// one lowered form a cone keeps: tape op k is the k-th operation of the SSA
// program, constant operands are found through the pinned constant slots,
// and the critical path is carried per slot. The SSA cost walk over a
// Register_program is a test oracle (oracle/cost_reference.hpp), held
// bit-identical to this one.
#pragma once

#include "backend/fixed_point.hpp"
#include "ir/compiled.hpp"

namespace islhls {

struct Op_cost {
    double luts = 0.0;
    int dsps = 0;
    double ff_bits = 0.0;       // pipeline register bits for the result
    double delay_ns = 0.0;      // combinational delay of one stage
    int latency_stages = 1;     // internal pipeline stages (div/sqrt > 1)
};

struct Cost_options {
    Fixed_format format;
    // Map variable multipliers to DSP blocks. Off by default: LUT-mapped
    // multipliers keep the area-vs-registers relation linear across the
    // whole design space (DSP exhaustion on big cones would otherwise put a
    // cliff into the Eq. 1 calibration); enable to study DSP-rich mappings.
    bool use_dsp = false;
};

// What an operation's cost reads of its operands: a multiplication by a
// constant is a shift-add network sized by the first constant operand's
// digits, and a division by a constant right-hand side is a reciprocal
// multiply.
struct Op_operands {
    const double* constant = nullptr;  // the first constant operand, or none
    bool rhs_constant = false;
};

// Cost of one instruction of kind `kind`. A constant leaf costs nothing (it
// folds into its consumer); an input leaf costs its register-bank bits.
Op_cost cost_of_op(Op_kind kind, const Op_operands& operands,
                   const Cost_options& options);

// Aggregate over a whole program.
struct Program_cost {
    double luts = 0.0;
    int dsps = 0;
    double ff_bits = 0.0;
    double max_stage_delay_ns = 0.0;
    int latency_stages = 0;  // weighted critical path (stages, not ops)
};
Program_cost cost_of_program(const Compiled_program& tape, const Cost_options& options);

}  // namespace islhls
