// Bit-accurate fixed-point execution of register programs.
//
// Mirrors the generated VHDL operator for operator (wrap-around resize,
// truncating multiply shift, VHDL '/' truncation toward zero, floor integer
// square root), so an expected-output vector computed here is exactly what
// the emitted entity produces — the self-checking testbenches rely on it.
//
// Two implementations of the same integer semantics check each other:
//
//   - run_fixed_raw / run_fixed interpret the instruction vector one sample
//     at a time through apply_op_fixed (ir/compiled.hpp), allocating a fresh
//     register file per call. Kept as the scalar reference the tape paths
//     are validated against byte-for-byte; not a production path.
//   - run_tape (sim/tape_lanes.hpp) executes the integer-lowered tape
//     (Fixed_tape) structure-of-arrays over lane blocks. run_raw_batch
//     (here) feeds it strided sample windows, so evaluating thousands of
//     them (fixed-point format search) performs no per-sample allocation
//     and makes one kernel call per lane block for the whole tape;
//     Exec_engine::run_fixed (sim/exec_engine.hpp) feeds it whole frame
//     rows, memcmp-identical to a per-pixel run_fixed_raw sweep.
#pragma once

#include <cstdint>
#include <vector>

#include "backend/fixed_point.hpp"
#include "ir/compiled.hpp"
#include "ir/program.hpp"
#include "sim/tape_lanes.hpp"

namespace islhls {

// Runs the program on raw two's-complement words (already in Qm.f).
std::vector<std::int64_t> run_fixed_raw(const Register_program& program,
                                        const std::vector<std::int64_t>& inputs,
                                        const Fixed_format& fmt);

// Convenience: quantizes `inputs`, runs, returns real-valued outputs.
std::vector<double> run_fixed(const Register_program& program,
                              const std::vector<double>& inputs,
                              const Fixed_format& fmt);

// Allocation-free batched executor over the integer-lowered tape: evaluates
// `samples` input vectors, row-major [samples][inputs] raw words, into
// row-major [samples][outputs] raw outputs, up to lane_stride(samples)
// samples per run_tape call. Input words are wrap-resized on load like
// run_fixed_raw, so out-of-range words are fine; the outputs are
// byte-identical to run_fixed_raw on every sample. `block` is rebound to
// `tape` at that stride; reusing one block across batches, formats and
// programs allocates once.
void run_raw_batch(const Fixed_tape& tape, const std::int64_t* inputs, std::size_t samples,
                   std::int64_t* outputs, Lane_block<Fixed_tape>& block);

}  // namespace islhls
