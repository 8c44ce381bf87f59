#include "oracle/cost_reference.hpp"

#include <algorithm>
#include <vector>

namespace islhls {

Program_cost program_cost_reference(const Register_program& program,
                                    const Cost_options& options) {
    Program_cost total;
    const std::vector<Instruction>& instrs = program.instructions();
    // Weighted critical path: per-instruction depth measured in pipeline
    // stages (dividers/square roots contribute several).
    std::vector<int> stage_depth(instrs.size(), 0);
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& in = instrs[i];
        Op_operands operands;
        int operand_depth = 0;
        for (int a = 0; a < in.operand_count; ++a) {
            const auto r = static_cast<std::size_t>(in.operands[static_cast<std::size_t>(a)]);
            operand_depth = std::max(operand_depth, stage_depth[r]);
            if (operands.constant == nullptr && instrs[r].kind == Op_kind::constant) {
                operands.constant = &instrs[r].value;
            }
        }
        operands.rhs_constant =
            in.operand_count >= 2 &&
            instrs[static_cast<std::size_t>(in.operands[1])].kind == Op_kind::constant;
        const Op_cost c = cost_of_op(in.kind, operands, options);
        total.luts += c.luts;
        total.dsps += c.dsps;
        total.ff_bits += c.ff_bits;
        total.max_stage_delay_ns = std::max(total.max_stage_delay_ns, c.delay_ns);
        stage_depth[i] = operand_depth + (is_operation(in.kind) ? c.latency_stages : 0);
        total.latency_stages = std::max(total.latency_stages, stage_depth[i]);
    }
    return total;
}

}  // namespace islhls
