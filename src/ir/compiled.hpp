// Scanline-compiled form of a register program.
//
// Walking a Register_program's instruction vector per sample branches on
// the instruction kind at every slot. The compiled form splits the program
// once into its three static parts:
//
//   - constants:  (slot, value) pairs, bound ahead of execution;
//   - inputs:     (slot, field, dx, dy) bindings in program port order;
//   - operations: a flat tape whose operands are slot indices.
//
// A slot is a lane buffer, not an SSA value: the constructor
// register-allocates the tape, the way the paper's pipeline keeps a
// register only while a later stage still reads it. Every input, constant
// and output register keeps a pinned slot of its own, which no op result
// overwrites; every other op result takes a slot freed by a value that no
// later op reads (one liveness pass in program order). A slot is freed
// only after its last reader has taken its destination, so no op's
// destination aliases one of its own sources. A consumer holds one lane
// span per slot, i.e. per value live at once rather than per instruction,
// and advances a whole block of samples through each tape operation in
// one tight loop. run_tape (sim/tape_lanes.hpp) is the one executor of
// this lowering, over the slot-major Lane_block laid out there: the frame
// engine's interior and border columns, the fixed-point format search
// (range, references and candidates), the batched fixed executor and the
// architecture simulator all call it, so they cannot diverge semantically.
// The synthesizer's cost model prices this tape too (synth/cost_model.hpp),
// and it is the one lowered form a Cone keeps. The scalar interpreters and
// the cost walk over the SSA instruction vector are test oracles
// (oracle/reference.hpp, oracle/cost_reference.hpp); the Register_program
// stays SSA for the VHDL emitter, which re-lowers a cone's on demand.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "backend/fixed_point.hpp"
#include "ir/program.hpp"

namespace islhls {

// One operation of the tape. `dest` and `src` are allocated slot indices;
// op k computes the k-th operation instruction of the source
// Register_program. Packed to 20 bytes: a cone library keeps one per
// operation of every cone.
struct Tape_op {
    std::int32_t dest = -1;
    std::array<std::int32_t, 3> src = {-1, -1, -1};
    Op_kind kind = Op_kind::add;
    std::uint8_t src_count = 0;
};
static_assert(sizeof(Tape_op) <= 20, "Tape_op must pack into 20 bytes");

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

    // Total slots: the pinned input, constant and output slots first (in
    // instruction order), then the temporaries the op results share.
    int slot_count() const { return slot_count_; }

    const std::vector<Tape_op>& ops() const { return ops_; }
    const std::vector<Tape_input>& inputs() const { return inputs_; }
    const std::vector<Tape_constant>& constants() const { return constants_; }

    // Slots holding the program outputs, in output order (pinned: after a
    // walk each holds its output's value).
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

// Integer-slot lowering of a compiled tape for one Qm.f format: the literal
// constants are quantized to raw two's-complement words once, and the
// format-derived operator parameters (wrap width, fraction shift, the raw
// value of 1.0 the comparison ops produce) are folded ahead of execution.
// The tape carries its domain: run_tape(const Fixed_tape&, ...) reads those
// parameters from it, and a Lane_block<Fixed_tape> fills its constant lanes
// from constant_raw() (sim/tape_lanes.hpp). One Fixed_tape serves any
// number of lane blocks: the batched run_raw_batch in sim/fixed_exec.hpp,
// the fixed architecture simulator, and the whole-frame engine
// Exec_engine::run_fixed in sim/exec_engine.hpp. Its operator semantics
// are those of the reference interpreter run_fixed_raw
// (oracle/reference.hpp), which tests check it against word for word. The
// format must have m >= 1 (the sign bit) and f >= 0.
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
