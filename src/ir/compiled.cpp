#include "ir/compiled.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace islhls {

Compiled_program::Compiled_program(const Register_program& program) {
    const std::vector<Instruction>& instrs = program.instructions();
    const std::vector<std::int32_t>& outputs = program.outputs();
    const std::size_t count = instrs.size();

    // Liveness, one record per register so an operand costs one lookup: the
    // index of the last instruction reading it, whether its slot is pinned
    // (leaves and outputs), and the slot it got.
    struct Reg {
        std::int32_t last_read = -1;
        std::int32_t slot = -1;
        bool pinned = false;
    };
    std::vector<Reg> regs(count);
    for (std::size_t i = 0; i < count; ++i) {
        const Instruction& instr = instrs[i];
        regs[i].pinned = !is_operation(instr.kind);
        for (int a = 0; a < instr.operand_count; ++a) {
            regs[static_cast<std::size_t>(instr.operands[static_cast<std::size_t>(a)])].last_read =
                static_cast<std::int32_t>(i);
        }
    }
    // Pinned slots come first, in instruction order; temporaries after them.
    std::int32_t next_temp = program.input_count() + program.constant_count();
    for (const std::int32_t r : outputs) {
        Reg& reg = regs[static_cast<std::size_t>(r)];
        if (!reg.pinned) {
            reg.pinned = true;
            next_temp += 1;
        }
    }
    std::int32_t next_pinned = 0;

    ops_.reserve(static_cast<std::size_t>(program.register_count()));
    inputs_.reserve(static_cast<std::size_t>(program.input_count()));
    constants_.reserve(static_cast<std::size_t>(program.constant_count()));
    // Freed temporaries, reused last-freed first.
    std::vector<std::int32_t> free_slots;
    bool any_input = false;
    for (std::size_t i = 0; i < count; ++i) {
        const Instruction& instr = instrs[i];
        Reg& reg = regs[i];
        if (reg.pinned) {
            reg.slot = next_pinned++;
        } else if (free_slots.empty()) {
            reg.slot = next_temp++;
        } else {
            reg.slot = free_slots.back();
            free_slots.pop_back();
        }
        switch (instr.kind) {
            case Op_kind::constant:
                constants_.push_back({reg.slot, instr.value});
                break;
            case Op_kind::input: {
                inputs_.push_back({reg.slot, instr.field, instr.dx, instr.dy});
                if (instr.field >= static_cast<int>(field_extents_.size())) {
                    field_extents_.resize(static_cast<std::size_t>(instr.field) + 1);
                }
                Field_extent& e = field_extents_[static_cast<std::size_t>(instr.field)];
                if (!e.used) {
                    e.used = true;
                    e.min_dx = e.max_dx = instr.dx;
                    e.min_dy = e.max_dy = instr.dy;
                } else {
                    e.min_dx = std::min<int>(e.min_dx, instr.dx);
                    e.max_dx = std::max<int>(e.max_dx, instr.dx);
                    e.min_dy = std::min<int>(e.min_dy, instr.dy);
                    e.max_dy = std::max<int>(e.max_dy, instr.dy);
                }
                if (!any_input) {
                    any_input = true;
                    min_dx_ = max_dx_ = instr.dx;
                    min_dy_ = max_dy_ = instr.dy;
                } else {
                    min_dx_ = std::min<int>(min_dx_, instr.dx);
                    max_dx_ = std::max<int>(max_dx_, instr.dx);
                    min_dy_ = std::min<int>(min_dy_, instr.dy);
                    max_dy_ = std::max<int>(max_dy_, instr.dy);
                }
                break;
            }
            default: {
                Tape_op op;
                op.kind = instr.kind;
                op.dest = reg.slot;
                op.src_count = instr.operand_count;
                for (int a = 0; a < instr.operand_count; ++a) {
                    op.src[static_cast<std::size_t>(a)] =
                        regs[static_cast<std::size_t>(instr.operands[static_cast<std::size_t>(a)])]
                            .slot;
                }
                ops_.push_back(op);
                // The destination is taken; now free the temporaries this op
                // reads last (once each, however often it reads them) and a
                // result that nothing reads.
                for (int a = 0; a < instr.operand_count; ++a) {
                    const std::int32_t r = instr.operands[static_cast<std::size_t>(a)];
                    const Reg& src = regs[static_cast<std::size_t>(r)];
                    const bool repeat = (a >= 1 && instr.operands[0] == r) ||
                                        (a == 2 && instr.operands[1] == r);
                    if (!src.pinned && !repeat && src.last_read == static_cast<std::int32_t>(i)) {
                        free_slots.push_back(src.slot);
                    }
                }
                if (!reg.pinned && reg.last_read < 0) free_slots.push_back(reg.slot);
                break;
            }
        }
    }
    slot_count_ = next_temp;
    output_slots_.reserve(outputs.size());
    for (const std::int32_t r : outputs) {
        output_slots_.push_back(regs[static_cast<std::size_t>(r)].slot);
    }
}

Fixed_tape::Fixed_tape(const Compiled_program& tape, const Fixed_format& format)
    : tape_(&tape),
      format_(format),
      wrap_(format.total_bits()),
      fixed_one_(to_raw(1.0, format)) {
    // A negative fraction would shift by a negative count in the fixed ops;
    // the integer bits include the sign bit.
    check_internal(format.frac_bits >= 0 && format.integer_bits >= 1,
                   "Fixed_tape needs a Qm.f format with m >= 1 and f >= 0");
    constant_raw_.reserve(tape.constants().size());
    for (const Tape_constant& c : tape.constants()) {
        constant_raw_.push_back(to_raw(c.value, format));
    }
}

}  // namespace islhls
