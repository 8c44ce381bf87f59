// Batched bit-accurate fixed-point execution of register programs.
//
// run_raw_batch feeds strided sample windows through run_tape
// (sim/tape_lanes.hpp) over the integer-lowered tape (Fixed_tape), so
// evaluating thousands of them (fixed-point format search) performs no
// per-sample allocation and makes one kernel call per lane block for the
// whole tape. Its words mirror the generated VHDL operator for operator;
// tests check them byte for byte against the scalar reference interpreter
// run_fixed_raw (oracle/reference.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "backend/fixed_point.hpp"
#include "ir/compiled.hpp"
#include "sim/tape_lanes.hpp"

namespace islhls {

// Allocation-free batched executor over the integer-lowered tape: evaluates
// `samples` input vectors, row-major [samples][inputs] raw words, into
// row-major [samples][outputs] raw outputs, up to lane_stride(samples)
// samples per run_tape call. Input words are wrap-resized on load, so
// out-of-range words are fine. `block` is rebound to `tape` at that stride;
// reusing one block across batches, formats and programs allocates once.
void run_raw_batch(const Fixed_tape& tape, const std::int64_t* inputs, std::size_t samples,
                   std::int64_t* outputs, Lane_block<Fixed_tape>& block);

}  // namespace islhls
