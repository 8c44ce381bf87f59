#include "ir/eval.hpp"

#include <cmath>
#include <vector>

#include "ir/analysis.hpp"
#include "support/error.hpp"

namespace islhls {

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

}  // namespace islhls
