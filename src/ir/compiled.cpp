#include "ir/compiled.hpp"

#include <algorithm>

namespace islhls {

Compiled_program::Compiled_program(const Register_program& program) {
    const std::vector<Instruction>& instrs = program.instructions();
    slot_count_ = static_cast<int>(instrs.size());
    bool any_input = false;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& instr = instrs[i];
        const auto slot = static_cast<std::int32_t>(i);
        switch (instr.kind) {
            case Op_kind::constant:
                constants_.push_back({slot, instr.value});
                break;
            case Op_kind::input: {
                inputs_.push_back({slot, instr.field, instr.dx, instr.dy});
                if (instr.field >= static_cast<int>(field_extents_.size())) {
                    field_extents_.resize(static_cast<std::size_t>(instr.field) + 1);
                }
                Field_extent& e = field_extents_[static_cast<std::size_t>(instr.field)];
                if (!e.used) {
                    e.used = true;
                    e.min_dx = e.max_dx = instr.dx;
                    e.min_dy = e.max_dy = instr.dy;
                } else {
                    e.min_dx = std::min(e.min_dx, instr.dx);
                    e.max_dx = std::max(e.max_dx, instr.dx);
                    e.min_dy = std::min(e.min_dy, instr.dy);
                    e.max_dy = std::max(e.max_dy, instr.dy);
                }
                if (!any_input) {
                    any_input = true;
                    min_dx_ = max_dx_ = instr.dx;
                    min_dy_ = max_dy_ = instr.dy;
                } else {
                    min_dx_ = std::min(min_dx_, instr.dx);
                    max_dx_ = std::max(max_dx_, instr.dx);
                    min_dy_ = std::min(min_dy_, instr.dy);
                    max_dy_ = std::max(max_dy_, instr.dy);
                }
                break;
            }
            default: {
                Tape_op op;
                op.kind = instr.kind;
                op.dest = slot;
                op.src = instr.operands;
                op.src_count = instr.operand_count;
                ops_.push_back(op);
                break;
            }
        }
    }
    output_slots_ = program.outputs();
}

Fixed_tape::Fixed_tape(const Compiled_program& tape, const Fixed_format& format)
    : tape_(&tape),
      format_(format),
      wrap_(format.total_bits()),
      fixed_one_(to_raw(1.0, format)) {
    constant_raw_.reserve(tape.constants().size());
    for (const Tape_constant& c : tape.constants()) {
        constant_raw_.push_back(to_raw(c.value, format));
    }
}

}  // namespace islhls
