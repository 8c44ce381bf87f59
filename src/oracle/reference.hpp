// Reference interpreters: the test oracles every fast path is checked
// against.
//
// Each function here is the slow, obviously-correct twin of a product path:
//
//   - apply_op / evaluate / evaluate_many walk an expression DAG node by
//     node;
//   - run_trace / run_trace_into walk a Register_program one instruction at
//     a time, the oracle of run_tape over a Compiled_program
//     (sim/tape_lanes.hpp);
//   - apply_op_fixed / run_fixed_raw / run_fixed are the same walk on raw
//     Qm.f words, mirroring the generated VHDL operator for operator
//     (wrap-around resize, truncating multiply shift, VHDL '/' truncation
//     toward zero, floor integer square root): the oracle of run_tape over a
//     Fixed_tape, and the expected vectors of the self-checking VHDL
//     testbenches;
//   - run_step_ir_reference / run_ir_reference / run_ir_fixed_reference
//     sweep those interpreters pixel by pixel over whole frames, the oracles
//     of the frame engine (sim/exec_engine.hpp);
//   - run_ghost_native is the ghost-zone golden through a kernel's native
//     C++ step.
//
// Every interpreter reads its input ports off Register_program::
// instructions() (input_instructions), never off the compiled tape, so a
// lowering bug in Compiled_program cannot hide in both the engine and its
// reference. Each allocates freely; none is a product path.
//
// This module builds the islhls_oracles library, which tests, benches and
// examples link; the islhls library and the islhls CLI contain none of it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "backend/fixed_point.hpp"
#include "grid/frame_set.hpp"
#include "ir/expr.hpp"
#include "ir/program.hpp"
#include "kernels/kernels.hpp"
#include "sim/golden.hpp"  // declares run_ir_reference, run_ir_fixed_reference
#include "symexec/stencil_step.hpp"

namespace islhls {

// --- expression DAGs ---------------------------------------------------------------

// Resolves the value of an input leaf (field, dx, dy) for the current
// evaluation context (typically a read from a Frame_set around some origin).
using Input_resolver = std::function<double(int field, int dx, int dy)>;

// Evaluates `root` with DAG memoization; every node computed at most once.
double evaluate(const Expr_pool& pool, Expr_id root, const Input_resolver& resolve);

// Evaluates several roots sharing one memo table.
std::vector<double> evaluate_many(const Expr_pool& pool,
                                  const std::vector<Expr_id>& roots,
                                  const Input_resolver& resolve);

// One double operation on already-computed operand values; shared by the DAG
// evaluator and run_trace, so their semantics never diverge.
double apply_op(Op_kind kind, const double* operands);

// --- register programs -------------------------------------------------------------

// The input instructions of `program` in program order: entry i is input
// port i of run_trace and run_fixed_raw, with its (field, dx, dy).
std::vector<Instruction> input_instructions(const Register_program& program);

// Executes `program`; `inputs[i]` holds the value of input port i. Writes
// the value of *every* instruction slot into `regs` (resized to the
// instruction count, capacity reused); the outputs sit at the outputs()
// indices.
void run_trace_into(const Register_program& program, const std::vector<double>& inputs,
                    std::vector<double>& regs);
std::vector<double> run_trace(const Register_program& program,
                              const std::vector<double>& inputs);

// One fixed-point operation on raw Qm.f words. The lane kernels of run_tape
// (sim/tape_lanes_body.inc) are the second, independent implementation this
// one checks.
std::int64_t apply_op_fixed(Op_kind kind, const std::int64_t* operands,
                            const Bit_wrap& wrap, int frac, std::int64_t fixed_one);

// Runs the program on raw two's-complement words (already in Qm.f; input
// words are wrap-resized on load) and returns the raw outputs.
std::vector<std::int64_t> run_fixed_raw(const Register_program& program,
                                        const std::vector<std::int64_t>& inputs,
                                        const Fixed_format& fmt);

// Quantizes `inputs`, runs run_fixed_raw, returns real-valued outputs.
std::vector<double> run_fixed(const Register_program& program,
                              const std::vector<double>& inputs,
                              const Fixed_format& fmt);

// --- frames ------------------------------------------------------------------------
// run_ir_reference (`iterations` of the step below) and the per-pixel
// fixed-point sweep run_ir_fixed_reference are declared in sim/golden.hpp.

// One step, interpreting the step program per pixel: field lookups by name,
// a boundary-resolved sample per read and a trace-allocating run_trace per
// element, independent of the compiled tape.
Frame_set run_step_ir_reference(const Stencil_step& step, const Frame_set& current,
                                Boundary b);

// Ghost-zone golden through the kernel's native step: pads the initial
// frames by a conservative reach-2 halo per iteration, iterates, crops.
Frame_set run_ghost_native(const Kernel_def& kernel, const Frame_set& initial,
                           int iterations);

}  // namespace islhls
