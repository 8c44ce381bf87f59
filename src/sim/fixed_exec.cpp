#include "sim/fixed_exec.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace islhls {

std::vector<std::int64_t> run_fixed_raw(const Register_program& program,
                                        const std::vector<std::int64_t>& inputs,
                                        const Fixed_format& fmt) {
    check_internal(inputs.size() == static_cast<std::size_t>(program.input_count()),
                   "run_fixed_raw input arity mismatch");
    const Bit_wrap wrap(fmt.total_bits());
    const int frac = fmt.frac_bits;
    const std::int64_t fixed_one = to_raw(1.0, fmt);

    const auto& instrs = program.instructions();
    std::vector<std::int64_t> regs(instrs.size(), 0);
    std::size_t next_input = 0;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& in = instrs[i];
        switch (in.kind) {
            case Op_kind::constant:
                regs[i] = to_raw(in.value, fmt);
                break;
            case Op_kind::input:
                regs[i] = wrap(inputs[next_input++]);
                break;
            default: {
                std::int64_t operands[3] = {0, 0, 0};
                for (int a = 0; a < in.operand_count; ++a) {
                    operands[a] = regs[static_cast<std::size_t>(
                        in.operands[static_cast<std::size_t>(a)])];
                }
                regs[i] = apply_op_fixed(in.kind, operands, wrap, frac, fixed_one);
                break;
            }
        }
    }
    std::vector<std::int64_t> out;
    out.reserve(program.outputs().size());
    for (std::int32_t r : program.outputs()) {
        out.push_back(regs[static_cast<std::size_t>(r)]);
    }
    return out;
}

std::vector<double> run_fixed(const Register_program& program,
                              const std::vector<double>& inputs,
                              const Fixed_format& fmt) {
    std::vector<std::int64_t> raw;
    raw.reserve(inputs.size());
    for (double v : inputs) raw.push_back(to_raw(v, fmt));
    const std::vector<std::int64_t> out_raw = run_fixed_raw(program, raw, fmt);
    std::vector<double> out;
    out.reserve(out_raw.size());
    for (std::int64_t r : out_raw) out.push_back(from_raw(r, fmt));
    return out;
}

// The lane walk lives in sim/tape_lanes.hpp (shared with the lane-blocked
// frame engine and the region-tiled architecture simulator, and compiled
// per ISA level there); the batch driver below binds lanes and gathers and
// scatters the strided samples.

Fixed_exec::Fixed_exec(const Register_program& program, const Fixed_format& format)
    : program_(&program), fixed_(program.compiled(), format) {}

void Fixed_exec::run_raw_batch(const std::int64_t* inputs, std::size_t samples,
                               std::int64_t* outputs, Scratch& scratch) const {
    const Compiled_program& cp = fixed_.tape();
    const auto slots = static_cast<std::size_t>(cp.slot_count());
    const std::size_t stride = lane_stride(samples);
    if (scratch.lanes.size() < slots * stride) scratch.lanes.resize(slots * stride);
    bind_lane_slots(scratch.slot, scratch.lanes.data(), slots, stride);

    // Slots are single-assignment, so the constant lanes survive every block.
    const std::vector<Tape_constant>& constants = cp.constants();
    for (std::size_t c = 0; c < constants.size(); ++c) {
        std::int64_t* dst = scratch.slot[static_cast<std::size_t>(constants[c].slot)];
        std::fill(dst, dst + stride, fixed_.constant_raw()[c]);
    }
    const std::vector<Tape_input>& ins = cp.inputs();
    const std::vector<Tape_op>& ops = cp.ops();
    const std::vector<std::int32_t>& out_slots = cp.output_slots();
    const std::size_t in_count = ins.size();
    const std::size_t out_count = out_slots.size();
    const Bit_wrap& wrap = fixed_.wrap();

    for (std::size_t s0 = 0; s0 < samples; s0 += stride) {
        const int n = static_cast<int>(std::min(stride, samples - s0));
        for (std::size_t i = 0; i < in_count; ++i) {
            std::int64_t* dst = scratch.slot[static_cast<std::size_t>(ins[i].slot)];
            const std::int64_t* src = inputs + s0 * in_count + i;
            for (int l = 0; l < n; ++l) {
                dst[l] = wrap(src[static_cast<std::size_t>(l) * in_count]);
            }
        }
        run_tape(ops.data(), ops.size(), scratch.slot.data(), n, wrap, fixed_.frac_bits(),
                 fixed_.fixed_one());
        for (std::size_t o = 0; o < out_count; ++o) {
            const std::int64_t* src = scratch.slot[static_cast<std::size_t>(out_slots[o])];
            std::int64_t* dst = outputs + s0 * out_count + o;
            for (int l = 0; l < n; ++l) {
                dst[static_cast<std::size_t>(l) * out_count] = src[l];
            }
        }
    }
}

}  // namespace islhls
