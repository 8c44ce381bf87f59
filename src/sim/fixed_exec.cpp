#include "sim/fixed_exec.hpp"

#include <algorithm>

#include "sim/tape_lanes.hpp"
#include "support/error.hpp"

namespace islhls {

std::vector<std::int64_t> run_fixed_raw(const Register_program& program,
                                        const std::vector<std::int64_t>& inputs,
                                        const Fixed_format& fmt) {
    check_internal(inputs.size() == static_cast<std::size_t>(program.input_count()),
                   "run_fixed_raw input arity mismatch");
    const int bits = fmt.total_bits();
    const int frac = fmt.frac_bits;
    const std::int64_t fixed_one = to_raw(1.0, fmt);

    const auto& instrs = program.instructions();
    std::vector<std::int64_t> regs(instrs.size(), 0);
    std::size_t next_input = 0;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& in = instrs[i];
        auto op = [&](int k) {
            return regs[static_cast<std::size_t>(in.operands[static_cast<std::size_t>(k)])];
        };
        std::int64_t v = 0;
        switch (in.kind) {
            case Op_kind::constant:
                v = to_raw(in.value, fmt);
                break;
            case Op_kind::input:
                v = wrap_to_bits(inputs[next_input++], bits);
                break;
            case Op_kind::add:
                v = wrap_to_bits(op(0) + op(1), bits);
                break;
            case Op_kind::sub:
                v = wrap_to_bits(op(0) - op(1), bits);
                break;
            case Op_kind::mul: {
                // Full product then arithmetic right shift (floor), as in the
                // emitted shift_right(a*b, FRAC).
                const std::int64_t prod = wrapping_mul(op(0), op(1));
                v = wrap_to_bits(prod >> frac, bits);
                break;
            }
            case Op_kind::div: {
                const std::int64_t b = op(1);
                if (b == 0) {
                    v = 0;
                } else {
                    // VHDL '/': truncation toward zero, matching C++.
                    v = wrap_to_bits((op(0) << frac) / b, bits);
                }
                break;
            }
            case Op_kind::sqrt_op: {
                const std::int64_t a = op(0);
                v = a <= 0 ? 0 : wrap_to_bits(isqrt_floor(a << frac), bits);
                break;
            }
            case Op_kind::min_op:
                v = op(0) < op(1) ? op(0) : op(1);
                break;
            case Op_kind::max_op:
                v = op(0) > op(1) ? op(0) : op(1);
                break;
            case Op_kind::neg:
                v = wrap_to_bits(-op(0), bits);
                break;
            case Op_kind::abs_op:
                v = wrap_to_bits(op(0) < 0 ? -op(0) : op(0), bits);
                break;
            case Op_kind::lt:
                v = op(0) < op(1) ? fixed_one : 0;
                break;
            case Op_kind::le:
                v = op(0) <= op(1) ? fixed_one : 0;
                break;
            case Op_kind::eq:
                v = op(0) == op(1) ? fixed_one : 0;
                break;
            case Op_kind::select:
                v = op(0) != 0 ? op(1) : op(2);
                break;
        }
        regs[i] = v;
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
// frame interior and the region-tiled architecture simulator, and compiled
// per ISA level there); the batch driver below binds lanes and gathers and
// scatters the strided samples.
static_assert(Fixed_exec::kLane == kTapeLane,
              "Fixed_exec lane width must match the shared lane kernels");

Fixed_exec::Fixed_exec(const Register_program& program, const Fixed_format& format)
    : program_(&program), fixed_(program.compiled(), format) {}

void Fixed_exec::run_raw_batch(const std::int64_t* inputs, std::size_t samples,
                               std::int64_t* outputs, Scratch& scratch) const {
    const Compiled_program& cp = fixed_.tape();
    const auto slots = static_cast<std::size_t>(cp.slot_count());
    if (scratch.lanes.size() < slots * kLane) scratch.lanes.resize(slots * kLane);
    bind_lane_slots(scratch.slot, scratch.lanes.data(), slots);

    // Slots are single-assignment, so the constant lanes survive every block.
    const std::vector<Tape_constant>& constants = cp.constants();
    for (std::size_t c = 0; c < constants.size(); ++c) {
        std::int64_t* dst = scratch.slot[static_cast<std::size_t>(constants[c].slot)];
        std::fill(dst, dst + kLane, fixed_.constant_raw()[c]);
    }
    const std::vector<Tape_input>& ins = cp.inputs();
    const std::vector<Tape_op>& ops = cp.ops();
    const std::vector<std::int32_t>& out_slots = cp.output_slots();
    const std::size_t in_count = ins.size();
    const std::size_t out_count = out_slots.size();
    const Bit_wrap& wrap = fixed_.wrap();

    for (std::size_t s0 = 0; s0 < samples; s0 += kLane) {
        const int n = static_cast<int>(std::min<std::size_t>(kLane, samples - s0));
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
