// Scanline-compiled form of a register program.
//
// Register_program's scalar reference interpreter walks the instruction
// vector one pixel at a time, branching on the instruction kind at every
// slot. The compiled form splits the program once into its three static
// parts:
//
//   - constants:  (slot, value) pairs, bound ahead of execution;
//   - inputs:     (slot, field, dx, dy) bindings in program port order;
//   - operations: a flat tape whose operands are slot indices.
//
// Because every slot is written by exactly one instruction, a consumer can
// hold one lane span per slot and advance a whole block of samples through
// each tape operation in one tight loop. run_tape (sim/tape_lanes.hpp) is
// the one executor of this lowering: the frame engine's interior and border
// columns, the fixed-point format search (range, references and
// candidates), the batched fixed executor and the architecture simulator
// all call it, so they cannot diverge semantically.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "backend/fixed_point.hpp"
#include "ir/program.hpp"
#include "support/error.hpp"

namespace islhls {

// One operation of the tape. `dest` and `src` are slot indices (== the
// instruction indices of the source Register_program).
struct Tape_op {
    Op_kind kind = Op_kind::add;
    std::int32_t dest = -1;
    std::array<std::int32_t, 3> src = {-1, -1, -1};
    int src_count = 0;
};

// An input binding: the slot receives field(x + dx, y + dy).
struct Tape_input {
    std::int32_t slot = -1;
    int field = -1;
    int dx = 0;
    int dy = 0;
};

// A literal bound to a slot.
struct Tape_constant {
    std::int32_t slot = -1;
    double value = 0.0;
};

// Per-field read-offset bounding box (the field's stencil radius), derived
// from the input bindings. Temporal tiling sizes its per-iteration halo from
// the extents of the fields that advance; fields the program never reads
// keep `used == false` and zero extents.
struct Field_extent {
    bool used = false;
    int min_dx = 0;
    int max_dx = 0;
    int min_dy = 0;
    int max_dy = 0;
};

class Compiled_program {
public:
    explicit Compiled_program(const Register_program& program);

    // Total slots; slot i corresponds to instruction i of the source program.
    int slot_count() const { return slot_count_; }

    const std::vector<Tape_op>& ops() const { return ops_; }
    const std::vector<Tape_input>& inputs() const { return inputs_; }
    const std::vector<Tape_constant>& constants() const { return constants_; }

    // Slots holding the program outputs, in output order.
    const std::vector<std::int32_t>& output_slots() const { return output_slots_; }

    // Bounding box of the input offsets (the one-application footprint);
    // all zero when the program reads no inputs.
    int min_dx() const { return min_dx_; }
    int max_dx() const { return max_dx_; }
    int min_dy() const { return min_dy_; }
    int max_dy() const { return max_dy_; }

    // Per-field offset bounding boxes, indexed by pool field id. Sized to
    // cover every field referenced by an input binding (fields past the last
    // referenced id are absent; treat them as unused).
    const std::vector<Field_extent>& field_extents() const { return field_extents_; }

private:
    std::vector<Tape_op> ops_;
    std::vector<Tape_input> inputs_;
    std::vector<Tape_constant> constants_;
    std::vector<Field_extent> field_extents_;
    std::vector<std::int32_t> output_slots_;
    int slot_count_ = 0;
    int min_dx_ = 0;
    int max_dx_ = 0;
    int min_dy_ = 0;
    int max_dy_ = 0;
};

// Bit-accurate fixed-point semantics of one tape operation on raw Qm.f
// words, mirroring the generated VHDL operator for operator (wrap-around
// resize, truncating multiply shift, VHDL '/' truncation toward zero, floor
// integer square root). This is the op switch of the scalar reference
// interpreter run_fixed_raw (sim/fixed_exec.hpp); the lane kernels of
// run_tape (sim/tape_lanes_body.inc) are the second, independent
// implementation the reference checks.
inline std::int64_t apply_op_fixed(Op_kind kind, const std::int64_t* o,
                                   const Bit_wrap& wrap, int frac,
                                   std::int64_t fixed_one) {
    switch (kind) {
        case Op_kind::add:
            return wrap(o[0] + o[1]);
        case Op_kind::sub:
            return wrap(o[0] - o[1]);
        case Op_kind::mul:
            // Full product then arithmetic right shift (floor), as in the
            // emitted shift_right(a*b, FRAC).
            return wrap(wrapping_mul(o[0], o[1]) >> frac);
        case Op_kind::div:
            // VHDL '/': truncation toward zero, matching C++. A divisor of -1
            // negates modulo 2^64 (the exact quotient after the wrap), so
            // INT64_MIN / -1 cannot trap.
            if (o[1] == 0) return 0;
            if (o[1] == -1) return wrap(wrapping_mul(o[0] << frac, -1));
            return wrap((o[0] << frac) / o[1]);
        case Op_kind::sqrt_op:
            return o[0] <= 0 ? 0 : wrap(isqrt_floor(o[0] << frac));
        case Op_kind::min_op:
            return o[0] < o[1] ? o[0] : o[1];
        case Op_kind::max_op:
            return o[0] > o[1] ? o[0] : o[1];
        case Op_kind::neg:
            return wrap(-o[0]);
        case Op_kind::abs_op:
            return wrap(o[0] < 0 ? -o[0] : o[0]);
        case Op_kind::lt:
            return o[0] < o[1] ? fixed_one : 0;
        case Op_kind::le:
            return o[0] <= o[1] ? fixed_one : 0;
        case Op_kind::eq:
            return o[0] == o[1] ? fixed_one : 0;
        case Op_kind::select:
            return o[0] != 0 ? o[1] : o[2];
        case Op_kind::constant:
        case Op_kind::input:
            break;
    }
    throw Internal_error("leaf kind in apply_op_fixed");
}

// Integer-slot lowering of a compiled tape for one Qm.f format: the literal
// constants are quantized to raw two's-complement words once, and the
// format-derived operator parameters (wrap width, fraction shift, the raw
// value of 1.0 the comparison ops produce) are folded ahead of execution.
// One Fixed_tape serves any number of run_tape lane blocks: the batched
// executor in sim/fixed_exec.hpp, the fixed architecture simulator, and the
// whole-frame engine Exec_engine::run_fixed in sim/exec_engine.hpp.
class Fixed_tape {
public:
    Fixed_tape(const Compiled_program& tape, const Fixed_format& format);

    const Compiled_program& tape() const { return *tape_; }
    const Fixed_format& format() const { return format_; }
    const Bit_wrap& wrap() const { return wrap_; }
    int frac_bits() const { return format_.frac_bits; }
    std::int64_t fixed_one() const { return fixed_one_; }

    // Raw words of the tape constants, parallel to tape().constants().
    const std::vector<std::int64_t>& constant_raw() const { return constant_raw_; }

private:
    const Compiled_program* tape_;
    Fixed_format format_;
    Bit_wrap wrap_;
    std::int64_t fixed_one_ = 0;
    std::vector<std::int64_t> constant_raw_;
};

}  // namespace islhls
