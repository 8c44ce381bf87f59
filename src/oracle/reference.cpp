#include "oracle/reference.hpp"

#include <cmath>

#include "ir/analysis.hpp"
#include "support/error.hpp"

namespace islhls {

// --- expression DAGs ---------------------------------------------------------------

double apply_op(Op_kind kind, const double* operands) {
    switch (kind) {
        case Op_kind::add: return operands[0] + operands[1];
        case Op_kind::sub: return operands[0] - operands[1];
        case Op_kind::mul: return operands[0] * operands[1];
        case Op_kind::div: return operands[0] / operands[1];
        case Op_kind::min_op: return std::fmin(operands[0], operands[1]);
        case Op_kind::max_op: return std::fmax(operands[0], operands[1]);
        case Op_kind::neg: return -operands[0];
        case Op_kind::abs_op: return std::fabs(operands[0]);
        case Op_kind::sqrt_op: return std::sqrt(operands[0]);
        case Op_kind::lt: return operands[0] < operands[1] ? 1.0 : 0.0;
        case Op_kind::le: return operands[0] <= operands[1] ? 1.0 : 0.0;
        case Op_kind::eq: return operands[0] == operands[1] ? 1.0 : 0.0;
        case Op_kind::select: return operands[0] != 0.0 ? operands[1] : operands[2];
        case Op_kind::constant:
        case Op_kind::input:
            break;
    }
    throw Internal_error("apply_op called on a leaf kind");
}

std::vector<double> evaluate_many(const Expr_pool& pool,
                                  const std::vector<Expr_id>& roots,
                                  const Input_resolver& resolve) {
    std::vector<double> memo(id_bound(roots));
    for (Expr_id id : reachable_nodes(pool, roots)) {
        const Expr_node& n = pool.node(id);
        double v = 0.0;
        switch (n.kind) {
            case Op_kind::constant:
                v = n.value;
                break;
            case Op_kind::input:
                v = resolve(n.field, n.dx, n.dy);
                break;
            default: {
                double operands[3] = {0.0, 0.0, 0.0};
                for (int i = 0; i < n.arg_count(); ++i) {
                    operands[i] = memo[n.args[static_cast<std::size_t>(i)]];
                }
                v = apply_op(n.kind, operands);
                break;
            }
        }
        memo[id] = v;
    }
    std::vector<double> out;
    out.reserve(roots.size());
    for (Expr_id r : roots) out.push_back(memo[r]);
    return out;
}

double evaluate(const Expr_pool& pool, Expr_id root, const Input_resolver& resolve) {
    return evaluate_many(pool, {root}, resolve)[0];
}

// --- register programs -------------------------------------------------------------

std::vector<Instruction> input_instructions(const Register_program& program) {
    std::vector<Instruction> ports;
    for (const Instruction& instr : program.instructions()) {
        if (instr.kind == Op_kind::input) ports.push_back(instr);
    }
    return ports;
}

void run_trace_into(const Register_program& program, const std::vector<double>& inputs,
                    std::vector<double>& regs) {
    check_internal(inputs.size() == static_cast<std::size_t>(program.input_count()),
                   "run_trace input arity mismatch");
    const std::vector<Instruction>& instrs = program.instructions();
    regs.assign(instrs.size(), 0.0);
    std::size_t next_input = 0;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& instr = instrs[i];
        switch (instr.kind) {
            case Op_kind::constant:
                regs[i] = instr.value;
                break;
            case Op_kind::input:
                regs[i] = inputs[next_input++];
                break;
            default: {
                double operands[3] = {0.0, 0.0, 0.0};
                for (int a = 0; a < instr.operand_count; ++a) {
                    operands[a] = regs[static_cast<std::size_t>(
                        instr.operands[static_cast<std::size_t>(a)])];
                }
                regs[i] = apply_op(instr.kind, operands);
                break;
            }
        }
    }
}

std::vector<double> run_trace(const Register_program& program,
                              const std::vector<double>& inputs) {
    std::vector<double> regs;
    run_trace_into(program, inputs, regs);
    return regs;
}

std::int64_t apply_op_fixed(Op_kind kind, const std::int64_t* o, const Bit_wrap& wrap,
                            int frac, std::int64_t fixed_one) {
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

// --- frames ------------------------------------------------------------------------

Frame_set run_step_ir_reference(const Stencil_step& step, const Frame_set& current,
                                Boundary b) {
    const Register_program program = build_program(step.pool(), step.updates());
    const std::vector<Instruction> ports = input_instructions(program);
    Frame_set next(current.width(), current.height());
    std::vector<Frame*> out_fields;
    for (const std::string& name : step.state_fields()) {
        out_fields.push_back(&next.add_field(name));
    }
    std::vector<double> inputs(ports.size());
    for (int y = 0; y < current.height(); ++y) {
        for (int x = 0; x < current.width(); ++x) {
            for (std::size_t i = 0; i < ports.size(); ++i) {
                const Frame& f = current.field(step.pool().field_name(ports[i].field));
                inputs[i] = f.sample(x + ports[i].dx, y + ports[i].dy, b);
            }
            const std::vector<double> regs = run_trace(program, inputs);
            for (std::size_t s = 0; s < out_fields.size(); ++s) {
                out_fields[s]->at(x, y) =
                    regs[static_cast<std::size_t>(program.outputs()[s])];
            }
        }
    }
    // Constant fields pass through unchanged.
    for (const std::string& name : step.const_fields()) {
        next.add_field(name, current.field(name));
    }
    return next;
}

Frame_set run_ir_reference(const Stencil_step& step, const Frame_set& initial,
                           int iterations, Boundary b) {
    Frame_set current = initial;
    for (int i = 0; i < iterations; ++i) {
        current = run_step_ir_reference(step, current, b);
    }
    return current;
}

Fixed_frame_result run_ir_fixed_reference(const Stencil_step& step,
                                          const Frame_set& initial, int iterations,
                                          Boundary b, const Fixed_format& format) {
    const Register_program program = build_program(step.pool(), step.updates());
    const std::vector<Instruction> ports = input_instructions(program);
    const int w = initial.width();
    const int h = initial.height();
    const Raw_quantizer quantize(format);

    Fixed_frame_result frames;
    frames.width = w;
    frames.height = h;
    frames.format = format;
    // Canonical field order (state first), plus the pool-field -> raw-buffer
    // mapping the per-pixel gathers resolve through.
    std::vector<int> field_index(static_cast<std::size_t>(step.pool().field_count()),
                                 -1);
    auto add = [&](const std::string& name) {
        const Frame& f = initial.field(name);
        std::vector<std::int64_t> raw(f.element_count());
        for (std::size_t i = 0; i < raw.size(); ++i) raw[i] = quantize(f.data()[i]);
        field_index[static_cast<std::size_t>(step.pool().find_field(name))] =
            static_cast<int>(frames.raw.size());
        frames.names.push_back(name);
        frames.raw.push_back(std::move(raw));
    };
    for (const std::string& name : step.state_fields()) add(name);
    for (const std::string& name : step.const_fields()) add(name);

    const std::size_t states = step.state_fields().size();
    std::vector<std::int64_t> inputs(ports.size());
    for (int it = 0; it < iterations; ++it) {
        std::vector<std::vector<std::int64_t>> next(states);
        for (std::size_t s = 0; s < states; ++s) {
            next[s].assign(static_cast<std::size_t>(w) * h, 0);
        }
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                for (std::size_t i = 0; i < ports.size(); ++i) {
                    const int rx = resolve_coordinate(x + ports[i].dx, w, b);
                    const int ry = resolve_coordinate(y + ports[i].dy, h, b);
                    const int fi =
                        field_index[static_cast<std::size_t>(ports[i].field)];
                    inputs[i] = (rx < 0 || ry < 0)
                                    ? 0
                                    : frames.raw[static_cast<std::size_t>(fi)]
                                               [static_cast<std::size_t>(ry) * w + rx];
                }
                const std::vector<std::int64_t> out =
                    run_fixed_raw(program, inputs, format);
                for (std::size_t s = 0; s < states; ++s) {
                    next[s][static_cast<std::size_t>(y) * w + x] = out[s];
                }
            }
        }
        for (std::size_t s = 0; s < states; ++s) frames.raw[s] = std::move(next[s]);
    }
    return frames;
}

Frame_set run_ghost_native(const Kernel_def& kernel, const Frame_set& initial,
                           int iterations) {
    // The native step's footprint is not directly known; conservatively use
    // reach 2 per iteration and direction (all built-in kernels are within).
    const int r = 2 * iterations;
    Frame_set padded(initial.width() + 2 * r, initial.height() + 2 * r);
    for (std::size_t i = 0; i < initial.field_count(); ++i) {
        padded.add_field(initial.names()[i],
                         pad_frame(initial.frame_at(i), r, r, r, r, kernel.boundary));
    }
    for (int i = 0; i < iterations; ++i) {
        padded = kernel.native_step(padded, kernel.boundary);
    }
    Frame_set cropped(initial.width(), initial.height());
    for (const std::string& name : initial.names()) {
        cropped.add_field(name, crop_frame(padded.field(name), r, r, r, r));
    }
    return cropped;
}

}  // namespace islhls
