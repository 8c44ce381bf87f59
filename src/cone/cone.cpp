#include "cone/cone.hpp"

#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

std::string to_string(const Cone_spec& spec) {
    return cat("cone(", spec.window_width, "x", spec.window_height, ", depth ",
               spec.depth, ")");
}

Cone_memo::Cone_memo(Stencil_step& step) : step_(step) {
    const Expr_pool& pool = step.pool();
    state_position_.assign(static_cast<std::size_t>(pool.field_count()), -1);
    for (int s = 0; s < step.state_field_count(); ++s) {
        const int field =
            pool.find_field(step.state_fields()[static_cast<std::size_t>(s)]);
        state_input_.push_back(field);
        state_position_[static_cast<std::size_t>(field)] = s;
    }
}

Expr_id Cone_memo::value(int s, int level, int x, int y) {
    if (level == 0) {
        return step_.pool().input(state_input_[static_cast<std::size_t>(s)], x, y);
    }
    // (s, level, x, y) packed into 8 + 12 + 22 + 22 bits.
    constexpr int bias = 1 << 21;
    check_internal(s < 256 && level < 4096 && x > -bias && x < bias && y > -bias &&
                       y < bias,
                   "cone memo key out of range");
    const std::uint64_t key = (static_cast<std::uint64_t>(s) << 56) |
                              (static_cast<std::uint64_t>(level) << 44) |
                              (static_cast<std::uint64_t>(x + bias) << 22) |
                              static_cast<std::uint64_t>(y + bias);
    if (const auto it = values_.find(key); it != values_.end()) return it->second;

    const Expr_id result = transform_inputs(
        step_.pool(), step_.update(s), [&](const Expr_node& leaf) -> Expr_id {
            const int state_pos = state_position_[static_cast<std::size_t>(leaf.field)];
            if (state_pos >= 0) {
                return value(state_pos, level - 1, x + leaf.dx, y + leaf.dy);
            }
            // Constant (iteration-invariant) field: always read from the
            // cone input window, whatever the level.
            return step_.pool().input(leaf.field, x + leaf.dx, y + leaf.dy);
        });
    values_.emplace(key, result);
    return result;
}

const std::vector<std::uint64_t>& Cone_memo::fingerprints() {
    extend_fingerprints(step_.pool(), fingerprints_);
    return fingerprints_;
}

namespace {

// Tree-expanded operation count: what symbolic execution without register
// reuse would have materialized. Computed per instruction by dynamic
// programming (operands precede their users), then summed over the outputs
// (no sharing between outputs either).
double naive_ops(const Register_program& program) {
    const std::vector<Instruction>& instrs = program.instructions();
    std::vector<double> cost(instrs.size());
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& in = instrs[i];
        double c = is_operation(in.kind) ? 1.0 : 0.0;
        for (int a = 0; a < in.operand_count; ++a) {
            c += cost[static_cast<std::size_t>(in.operands[static_cast<std::size_t>(a)])];
        }
        cost[i] = c;
    }
    double total = 0.0;
    for (std::int32_t r : program.outputs()) total += cost[static_cast<std::size_t>(r)];
    return total;
}

// Census of the program's instructions: one per reachable DAG node, so this
// equals count_ops() over the cone outputs without a second DAG walk.
Op_census census_of(const Register_program& program) {
    Op_census census;
    for (const Instruction& in : program.instructions()) {
        census.by_kind[in.kind] += 1;
        if (is_operation(in.kind)) {
            census.operation_count += 1;
        } else if (in.kind == Op_kind::input) {
            census.input_count += 1;
        } else {
            census.constant_count += 1;
        }
    }
    return census;
}

}  // namespace

Cone::Cone(Stencil_step& step, const Cone_spec& spec) : step_(&step), spec_(spec) {
    Cone_memo memo(step);
    build(memo);
}

Cone::Cone(Stencil_step& step, const Cone_spec& spec, Cone_memo& memo)
    : step_(&step), spec_(spec) {
    build(memo);
}

void Cone::build(Cone_memo& memo) {
    const Cone_spec& spec = spec_;
    Stencil_step& step = *step_;
    check_internal(spec.window_width >= 1 && spec.window_height >= 1 && spec.depth >= 1,
                   cat("invalid ", to_string(spec)));

    const int fields = step.state_field_count();
    outputs_.reserve(static_cast<std::size_t>(fields) * spec.window_width *
                     spec.window_height);
    for (int s = 0; s < fields; ++s) {
        for (int y = 0; y < spec.window_height; ++y) {
            for (int x = 0; x < spec.window_width; ++x) {
                outputs_.push_back(memo.value(s, spec.depth, x, y));
            }
        }
    }

    // The SSA program lives only until the statistics are read off it; the
    // cone keeps its tape.
    const Register_program program =
        build_program(step.pool(), outputs_, &memo.fingerprints());
    tape_ = program.shared_compiled();

    stats_.spec = spec;
    stats_.register_count = program.register_count();
    stats_.input_count = program.input_count();
    stats_.output_count = static_cast<int>(outputs_.size());
    stats_.pipeline_depth = program.depth();
    stats_.census = census_of(program);
    stats_.input_window = input_window_for(
        Window{0, 0, spec.window_width, spec.window_height}, step.footprint(),
        spec.depth);
    stats_.naive_operation_count = naive_ops(program);
}

Register_program Cone::lower() const {
    std::vector<std::uint64_t> fingerprints;
    extend_fingerprints(step_->pool(), fingerprints);
    return build_program(step_->pool(), outputs_, &fingerprints);
}

int Cone::output_index(int state_field, int x, int y) const {
    check_internal(state_field >= 0 && state_field < step_->state_field_count(),
                   "output_index: bad field");
    check_internal(x >= 0 && x < spec_.window_width && y >= 0 &&
                       y < spec_.window_height,
                   "output_index: bad position");
    return (state_field * spec_.window_height + y) * spec_.window_width + x;
}

}  // namespace islhls
