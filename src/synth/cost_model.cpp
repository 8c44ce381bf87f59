#include "synth/cost_model.hpp"

#include <algorithm>
#include <vector>

namespace islhls {

namespace {

// Number of non-zero digits in the canonic signed digit representation of
// |raw|; approximated by popcount (upper bound, good enough for costing).
int csd_digits(std::int64_t raw) {
    std::uint64_t v = static_cast<std::uint64_t>(raw < 0 ? -raw : raw);
    int count = 0;
    while (v != 0) {
        count += static_cast<int>(v & 1u);
        v >>= 1;
    }
    return std::max(1, count);
}

}  // namespace

Op_cost cost_of_op(Op_kind kind, const Op_operands& operands,
                   const Cost_options& options) {
    const int w = options.format.total_bits();
    Op_cost cost;

    switch (kind) {
        case Op_kind::constant:
            return cost;  // folded into the consuming operator
        case Op_kind::input:
            // Held in the input register bank; no logic of its own.
            cost.ff_bits = w;
            cost.latency_stages = 0;
            cost.delay_ns = 0.0;
            return cost;
        case Op_kind::add:
        case Op_kind::sub:
            cost.luts = w;
            cost.delay_ns = 1.8 + 0.06 * w;
            break;
        case Op_kind::mul: {
            if (operands.constant != nullptr) {
                // CSD shift-add network: one adder row per extra digit.
                const int digits = csd_digits(to_raw(*operands.constant, options.format));
                cost.luts = w * std::max(1, digits - 1) * 0.9 + 0.25 * w;
                cost.delay_ns = 2.0 + 0.05 * w + 0.5 * digits;
            } else if (options.use_dsp && w <= 18) {
                cost.dsps = 1;
                cost.luts = 10.0;  // alignment / rounding glue
                cost.delay_ns = 5.6;
            } else {
                cost.luts = 0.55 * w * w;
                cost.delay_ns = 4.0 + 0.12 * w;
            }
            break;
        }
        case Op_kind::div: {
            if (operands.rhs_constant) {
                // Division by a constant = multiplication by the reciprocal.
                cost.luts = w * 2.2;
                cost.delay_ns = 2.4 + 0.06 * w;
            } else {
                // Pipelined non-restoring array divider.
                cost.luts = 1.1 * w * w;
                cost.delay_ns = 4.2;
                cost.latency_stages = std::max(2, w / 2);
            }
            break;
        }
        case Op_kind::sqrt_op:
            cost.luts = 0.7 * w * w;
            cost.delay_ns = 4.2;
            cost.latency_stages = std::max(2, w / 2);
            break;
        case Op_kind::min_op:
        case Op_kind::max_op:
            cost.luts = 1.5 * w;  // comparator + mux
            cost.delay_ns = 2.4 + 0.04 * w;
            break;
        case Op_kind::neg:
        case Op_kind::abs_op:
            cost.luts = w;
            cost.delay_ns = 1.6 + 0.04 * w;
            break;
        case Op_kind::lt:
        case Op_kind::le:
        case Op_kind::eq:
            cost.luts = 0.7 * w;
            cost.delay_ns = 1.8 + 0.035 * w;
            break;
        case Op_kind::select:
            cost.luts = 0.5 * w + 2;
            cost.delay_ns = 1.4 + 0.02 * w;
            break;
    }
    cost.ff_bits = w;  // every operation result lands in a pipeline register
    return cost;
}

Program_cost cost_of_program(const Compiled_program& tape, const Cost_options& options) {
    Program_cost total;
    // The leaves: constants cost nothing, inputs only their register bits.
    total.ff_bits = cost_of_op(Op_kind::input, {}, options).ff_bits *
                    static_cast<double>(tape.inputs().size());
    // Per slot: the literal it pins, if any, and the depth in pipeline
    // stages (dividers/square roots contribute several) of the value it
    // holds. An op reads its sources before its destination is written,
    // and the allocation frees no slot before its last reader, so every
    // source slot still holds that operand's depth.
    struct Slot {
        const double* constant = nullptr;
        int stage_depth = 0;
    };
    std::vector<Slot> slots(static_cast<std::size_t>(tape.slot_count()));
    for (const Tape_constant& c : tape.constants()) {
        slots[static_cast<std::size_t>(c.slot)].constant = &c.value;
    }
    for (const Tape_op& op : tape.ops()) {
        Op_operands operands;
        int operand_depth = 0;
        for (int a = 0; a < op.src_count; ++a) {
            const Slot& src = slots[static_cast<std::size_t>(op.src[static_cast<std::size_t>(a)])];
            operand_depth = std::max(operand_depth, src.stage_depth);
            if (operands.constant == nullptr) operands.constant = src.constant;
        }
        operands.rhs_constant =
            op.src_count >= 2 && slots[static_cast<std::size_t>(op.src[1])].constant != nullptr;
        const Op_cost c = cost_of_op(op.kind, operands, options);
        total.luts += c.luts;
        total.dsps += c.dsps;
        total.ff_bits += c.ff_bits;
        total.max_stage_delay_ns = std::max(total.max_stage_delay_ns, c.delay_ns);
        const int depth = operand_depth + c.latency_stages;
        slots[static_cast<std::size_t>(op.dest)].stage_depth = depth;
        total.latency_stages = std::max(total.latency_stages, depth);
    }
    return total;
}

}  // namespace islhls
