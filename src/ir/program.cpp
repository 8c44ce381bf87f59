#include "ir/program.hpp"

#include <algorithm>
#include <limits>

#include "ir/analysis.hpp"
#include "ir/compiled.hpp"
#include "support/error.hpp"

namespace islhls {

namespace {

// `value` as the narrow field type T of a packed Instruction; a value that
// does not fit is a source the flow cannot represent, reported by name.
template <class T>
T narrow(int value, const char* what) {
    if (value < std::numeric_limits<T>::min() || value > std::numeric_limits<T>::max()) {
        throw User_error(cat(what, " ", value, " is outside the supported range [",
                             std::numeric_limits<T>::min(), ", ",
                             std::numeric_limits<T>::max(), "]"));
    }
    return static_cast<T>(value);
}

}  // namespace

Register_program build_program(const Expr_pool& pool, const std::vector<Expr_id>& roots,
                               const std::vector<std::uint64_t>* fingerprints) {
    Register_program prog;
    const std::vector<Expr_id> order = reachable_nodes(pool, roots, fingerprints);
    std::vector<std::int32_t> reg_of(id_bound(roots), -1);
    prog.instrs_.reserve(order.size());

    for (Expr_id id : order) {
        const Expr_node& n = pool.node(id);
        const std::array<Expr_id, 3> args = ordered_args(pool, n, fingerprints);
        Instruction instr;
        instr.kind = n.kind;
        instr.operand_count = narrow<std::uint8_t>(n.arg_count(), "operand count");
        int level = 0;
        for (int i = 0; i < n.arg_count(); ++i) {
            const std::int32_t src = reg_of[args[static_cast<std::size_t>(i)]];
            instr.operands[static_cast<std::size_t>(i)] = src;
            level = std::max<int>(level, prog.instrs_[static_cast<std::size_t>(src)].level);
        }
        switch (n.kind) {
            case Op_kind::constant:
                instr.value = n.value;
                prog.constant_count_ += 1;
                break;
            case Op_kind::input:
                instr.field = narrow<std::int16_t>(n.field, "field index");
                instr.dx = narrow<std::int16_t>(n.dx, "read offset dx");
                instr.dy = narrow<std::int16_t>(n.dy, "read offset dy");
                prog.input_count_ += 1;
                break;
            default:
                instr.level = narrow<std::uint16_t>(level + 1, "pipeline depth");
                prog.register_count_ += 1;
                break;
        }
        if (is_operation(n.kind)) {
            prog.depth_ = std::max<int>(prog.depth_, instr.level);
        }
        reg_of[id] = static_cast<std::int32_t>(prog.instrs_.size());
        prog.instrs_.push_back(instr);
    }
    for (Expr_id r : roots) prog.output_regs_.push_back(reg_of[r]);
    // Compile eagerly: the lowering and its register allocation are linear
    // passes over the finished instruction vector, and doing it here keeps
    // the program immutable afterwards — compiled() needs no
    // synchronization and copies share the tape freely.
    prog.compiled_ = std::make_shared<const Compiled_program>(prog);
    return prog;
}

const Compiled_program& Register_program::compiled() const {
    check_internal(compiled_ != nullptr,
                   "compiled() on a default-constructed Register_program");
    return *compiled_;
}

std::shared_ptr<const Compiled_program> Register_program::shared_compiled() const {
    check_internal(compiled_ != nullptr,
                   "shared_compiled() on a default-constructed Register_program");
    return compiled_;
}

}  // namespace islhls
