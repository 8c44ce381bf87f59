#include "ir/expr.hpp"

#include <cmath>
#include <functional>
#include <ostream>

#include "support/error.hpp"
#include "support/numeric.hpp"
#include "support/text.hpp"

namespace islhls {

bool is_operation(Op_kind k) {
    return k != Op_kind::constant && k != Op_kind::input;
}

bool is_commutative(Op_kind k) {
    return k == Op_kind::add || k == Op_kind::mul || k == Op_kind::min_op ||
           k == Op_kind::max_op || k == Op_kind::eq;
}

int arity(Op_kind k) {
    switch (k) {
        case Op_kind::constant:
        case Op_kind::input:
            return 0;
        case Op_kind::neg:
        case Op_kind::abs_op:
        case Op_kind::sqrt_op:
            return 1;
        case Op_kind::select:
            return 3;
        default:
            return 2;
    }
}

std::string to_string(Op_kind k) {
    switch (k) {
        case Op_kind::constant: return "const";
        case Op_kind::input: return "input";
        case Op_kind::add: return "add";
        case Op_kind::sub: return "sub";
        case Op_kind::mul: return "mul";
        case Op_kind::div: return "div";
        case Op_kind::min_op: return "min";
        case Op_kind::max_op: return "max";
        case Op_kind::neg: return "neg";
        case Op_kind::abs_op: return "abs";
        case Op_kind::sqrt_op: return "sqrt";
        case Op_kind::lt: return "lt";
        case Op_kind::le: return "le";
        case Op_kind::eq: return "eq";
        case Op_kind::select: return "select";
    }
    return "?";
}

std::ostream& operator<<(std::ostream& os, Op_kind k) { return os << to_string(k); }

// --- hashing / equality ------------------------------------------------------

std::size_t Expr_pool::Node_hash::operator()(const Expr_node& n) const {
    std::uint64_t h = hash_mix(static_cast<std::uint64_t>(n.kind));
    if (n.kind == Op_kind::constant) {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(n.value));
        __builtin_memcpy(&bits, &n.value, sizeof(bits));
        h = hash_combine(h, bits);
    } else if (n.kind == Op_kind::input) {
        h = hash_combine(h, static_cast<std::uint64_t>(n.field));
        h = hash_combine(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(n.dx) + (1 << 20)));
        h = hash_combine(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(n.dy) + (1 << 20)));
    } else {
        for (int i = 0; i < n.arg_count(); ++i) {
            h = hash_combine(h, n.args[static_cast<std::size_t>(i)]);
        }
    }
    return static_cast<std::size_t>(h);
}

bool Expr_pool::Node_eq::operator()(const Expr_node& a, const Expr_node& b) const {
    if (a.kind != b.kind) return false;
    switch (a.kind) {
        case Op_kind::constant: {
            // Bit-compare so that -0.0 and 0.0 are distinct (sign matters for
            // later folding) and NaN never aliases.
            std::uint64_t ba = 0, bb = 0;
            __builtin_memcpy(&ba, &a.value, sizeof(ba));
            __builtin_memcpy(&bb, &b.value, sizeof(bb));
            return ba == bb;
        }
        case Op_kind::input:
            return a.field == b.field && a.dx == b.dx && a.dy == b.dy;
        default:
            for (int i = 0; i < a.arg_count(); ++i) {
                if (a.args[static_cast<std::size_t>(i)] != b.args[static_cast<std::size_t>(i)]) {
                    return false;
                }
            }
            return true;
    }
}

Expr_id Expr_pool::intern(const Expr_node& n) {
    if (auto it = table_.find(n); it != table_.end()) return it->second;
    const Expr_id id = static_cast<Expr_id>(nodes_.size());
    nodes_.push_back(n);
    table_.emplace(n, id);
    return id;
}

const Expr_node& Expr_pool::node(Expr_id id) const {
    check_internal(id < nodes_.size(), "Expr_id out of range");
    return nodes_[id];
}

// --- leaves -------------------------------------------------------------------

Expr_id Expr_pool::constant(double v) {
    Expr_node n;
    n.kind = Op_kind::constant;
    n.value = v;
    return intern(n);
}

Expr_id Expr_pool::input(int field, int dx, int dy) {
    check_internal(field >= 0 && field < field_count(), "input field out of range");
    Expr_node n;
    n.kind = Op_kind::input;
    n.field = field;
    n.dx = dx;
    n.dy = dy;
    return intern(n);
}

// --- helpers ------------------------------------------------------------------

namespace {
bool is_const(const Expr_node& n, double v) {
    return n.kind == Op_kind::constant && n.value == v;
}
}  // namespace

// --- binary constructors --------------------------------------------------------

Expr_id Expr_pool::add(Expr_id a, Expr_id b) {
    const Expr_node& na = node(a);
    const Expr_node& nb = node(b);
    if (na.kind == Op_kind::constant && nb.kind == Op_kind::constant) {
        return constant(na.value + nb.value);
    }
    if (is_const(na, 0.0)) return b;
    if (is_const(nb, 0.0)) return a;
    return raw_binary(Op_kind::add, a, b);
}

Expr_id Expr_pool::sub(Expr_id a, Expr_id b) {
    const Expr_node& na = node(a);
    const Expr_node& nb = node(b);
    if (na.kind == Op_kind::constant && nb.kind == Op_kind::constant) {
        return constant(na.value - nb.value);
    }
    if (is_const(nb, 0.0)) return a;
    if (a == b) return constant(0.0);
    if (is_const(na, 0.0)) return neg(b);
    return raw_binary(Op_kind::sub, a, b);
}

Expr_id Expr_pool::mul(Expr_id a, Expr_id b) {
    const Expr_node& na = node(a);
    const Expr_node& nb = node(b);
    if (na.kind == Op_kind::constant && nb.kind == Op_kind::constant) {
        return constant(na.value * nb.value);
    }
    if (is_const(na, 1.0)) return b;
    if (is_const(nb, 1.0)) return a;
    if (is_const(na, 0.0) || is_const(nb, 0.0)) return constant(0.0);
    return raw_binary(Op_kind::mul, a, b);
}

Expr_id Expr_pool::div(Expr_id a, Expr_id b) {
    const Expr_node& na = node(a);
    const Expr_node& nb = node(b);
    if (na.kind == Op_kind::constant && nb.kind == Op_kind::constant && nb.value != 0.0) {
        return constant(na.value / nb.value);
    }
    if (is_const(nb, 1.0)) return a;
    if (is_const(na, 0.0) && !(nb.kind == Op_kind::constant && nb.value == 0.0)) {
        return constant(0.0);
    }
    return raw_binary(Op_kind::div, a, b);
}

Expr_id Expr_pool::min_of(Expr_id a, Expr_id b) {
    if (a == b) return a;
    const Expr_node& na = node(a);
    const Expr_node& nb = node(b);
    if (na.kind == Op_kind::constant && nb.kind == Op_kind::constant) {
        return constant(std::fmin(na.value, nb.value));
    }
    return raw_binary(Op_kind::min_op, a, b);
}

Expr_id Expr_pool::max_of(Expr_id a, Expr_id b) {
    if (a == b) return a;
    const Expr_node& na = node(a);
    const Expr_node& nb = node(b);
    if (na.kind == Op_kind::constant && nb.kind == Op_kind::constant) {
        return constant(std::fmax(na.value, nb.value));
    }
    return raw_binary(Op_kind::max_op, a, b);
}

Expr_id Expr_pool::neg(Expr_id a) {
    const Expr_node& na = node(a);
    if (na.kind == Op_kind::constant) return constant(-na.value);
    if (na.kind == Op_kind::neg) return na.args[0];
    return raw_unary(Op_kind::neg, a);
}

Expr_id Expr_pool::abs_of(Expr_id a) {
    const Expr_node& na = node(a);
    if (na.kind == Op_kind::constant) return constant(std::fabs(na.value));
    if (na.kind == Op_kind::abs_op) return a;
    if (na.kind == Op_kind::neg) return abs_of(na.args[0]);
    return raw_unary(Op_kind::abs_op, a);
}

Expr_id Expr_pool::sqrt_of(Expr_id a) {
    const Expr_node& na = node(a);
    if (na.kind == Op_kind::constant && na.value >= 0.0) return constant(std::sqrt(na.value));
    return raw_unary(Op_kind::sqrt_op, a);
}

Expr_id Expr_pool::less(Expr_id a, Expr_id b) {
    const Expr_node& na = node(a);
    const Expr_node& nb = node(b);
    if (na.kind == Op_kind::constant && nb.kind == Op_kind::constant) {
        return constant(na.value < nb.value ? 1.0 : 0.0);
    }
    if (a == b) return constant(0.0);
    return raw_binary(Op_kind::lt, a, b);
}

Expr_id Expr_pool::less_equal(Expr_id a, Expr_id b) {
    const Expr_node& na = node(a);
    const Expr_node& nb = node(b);
    if (na.kind == Op_kind::constant && nb.kind == Op_kind::constant) {
        return constant(na.value <= nb.value ? 1.0 : 0.0);
    }
    if (a == b) return constant(1.0);
    return raw_binary(Op_kind::le, a, b);
}

Expr_id Expr_pool::equal(Expr_id a, Expr_id b) {
    const Expr_node& na = node(a);
    const Expr_node& nb = node(b);
    if (na.kind == Op_kind::constant && nb.kind == Op_kind::constant) {
        return constant(na.value == nb.value ? 1.0 : 0.0);
    }
    if (a == b) return constant(1.0);
    return raw_binary(Op_kind::eq, a, b);
}

Expr_id Expr_pool::select(Expr_id cond, Expr_id if_true, Expr_id if_false) {
    const Expr_node& nc = node(cond);
    if (nc.kind == Op_kind::constant) {
        return nc.value != 0.0 ? if_true : if_false;
    }
    if (if_true == if_false) return if_true;
    Expr_node n;
    n.kind = Op_kind::select;
    n.args = {cond, if_true, if_false};
    return intern(n);
}

Expr_id Expr_pool::raw_unary(Op_kind k, Expr_id a) {
    check_internal(arity(k) == 1, "raw_unary() called with ", k);
    Expr_node n;
    n.kind = k;
    n.args = {a, no_expr, no_expr};
    return intern(n);
}

Expr_id Expr_pool::raw_binary(Op_kind k, Expr_id a, Expr_id b) {
    check_internal(arity(k) == 2, "raw_binary() called with ", k);
    // Canonicalize commutative operand order; a op b and b op a then share a
    // node (and a hardware register). Safe bit-exactly for IEEE add/mul/min/max.
    if (is_commutative(k) && a > b) std::swap(a, b);
    Expr_node n;
    n.kind = k;
    n.args = {a, b, no_expr};
    return intern(n);
}


Expr_id Expr_pool::unary(Op_kind k, Expr_id a) {
    switch (k) {
        case Op_kind::neg: return neg(a);
        case Op_kind::abs_op: return abs_of(a);
        case Op_kind::sqrt_op: return sqrt_of(a);
        default:
            throw Internal_error(cat("unary() called with ", to_string(k)));
    }
}

Expr_id Expr_pool::binary(Op_kind k, Expr_id a, Expr_id b) {
    switch (k) {
        case Op_kind::add: return add(a, b);
        case Op_kind::sub: return sub(a, b);
        case Op_kind::mul: return mul(a, b);
        case Op_kind::div: return div(a, b);
        case Op_kind::min_op: return min_of(a, b);
        case Op_kind::max_op: return max_of(a, b);
        case Op_kind::lt: return less(a, b);
        case Op_kind::le: return less_equal(a, b);
        case Op_kind::eq: return equal(a, b);
        default:
            throw Internal_error(cat("binary() called with ", to_string(k)));
    }
}

// --- fields -------------------------------------------------------------------

int Expr_pool::intern_field(const std::string& name) {
    const int existing = find_field(name);
    if (existing >= 0) return existing;
    field_names_.push_back(name);
    return static_cast<int>(field_names_.size()) - 1;
}

int Expr_pool::find_field(const std::string& name) const {
    for (std::size_t i = 0; i < field_names_.size(); ++i) {
        if (field_names_[i] == name) return static_cast<int>(i);
    }
    return -1;
}

const std::string& Expr_pool::field_name(int field) const {
    check_internal(field >= 0 && field < field_count(), "field index out of range");
    return field_names_[static_cast<std::size_t>(field)];
}

}  // namespace islhls
