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
//     (Fixed_tape) structure-of-arrays over lane blocks. Fixed_exec (here)
//     feeds it strided sample windows, so evaluating thousands of them
//     (fixed-point format search) performs no per-sample allocation and
//     makes one kernel call per lane block for the whole tape;
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

// Allocation-free batched executor over the integer-lowered tape. One
// instance binds a program to one Qm.f format; the caller provides a
// Scratch that is reused across any number of batches (and across
// executors of the same program — it is resized on first use).
class Fixed_exec {
public:
    // `program` must outlive the executor.
    Fixed_exec(const Register_program& program, const Fixed_format& format);

    const Register_program& program() const { return *program_; }
    const Fixed_tape& tape() const { return fixed_; }
    const Fixed_format& format() const { return fixed_.format(); }
    int input_count() const { return static_cast<int>(fixed_.tape().inputs().size()); }
    int output_count() const {
        return static_cast<int>(fixed_.tape().output_slots().size());
    }

    // Reusable per-thread scratch: `lanes` holds lane_stride(samples)
    // words per tape slot and `slot` points at each slot's span for the
    // lane walk. Both grow on first use and are never shrunk, so a thread
    // evaluating many batches allocates once.
    struct Scratch {
        std::vector<std::int64_t> lanes;
        std::vector<std::int64_t*> slot;
    };

    // Batch: evaluates `samples` input vectors, row-major
    // [samples][input_count()] raw words, into row-major
    // [samples][output_count()] raw outputs, up to kTapeLane samples per
    // tape pass. Byte-identical to run_fixed_raw on every sample.
    void run_raw_batch(const std::int64_t* inputs, std::size_t samples,
                       std::int64_t* outputs, Scratch& scratch) const;

private:
    const Register_program* program_;
    Fixed_tape fixed_;
};

}  // namespace islhls
