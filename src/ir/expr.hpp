// Hash-consed expression DAG.
//
// This IR is what the symbolic executor produces and what cones are built
// from. Hash-consing (every structurally identical node exists exactly once
// in the pool) is the mechanism behind the paper's "register reuse": when the
// dependency unrolling would recompute the same sub-operation, it instead
// re-reads the single register holding that node's value (Fig. 4 of the
// paper). The simplifying constructors additionally perform constant folding
// and algebraic identities so the generated hardware contains no trivial
// operators.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

namespace islhls {

// Index of a node inside its Expr_pool. Stable for the pool's lifetime.
using Expr_id = std::uint32_t;

// Sentinel for "no node".
inline constexpr Expr_id no_expr = 0xffffffffu;

enum class Op_kind : std::uint8_t {
    constant,  // leaf: literal double
    input,     // leaf: read of a field at a relative offset
    add,
    sub,
    mul,
    div,
    min_op,
    max_op,
    neg,
    abs_op,
    sqrt_op,
    lt,      // a < b  -> 1.0 / 0.0
    le,      // a <= b -> 1.0 / 0.0
    eq,      // a == b -> 1.0 / 0.0
    select,  // cond != 0 ? a : b
};

// True for node kinds that represent a computation (and therefore occupy a
// register in the generated hardware); false for leaves.
bool is_operation(Op_kind k);

// True for add/mul/min/max, whose operands may be reordered freely.
bool is_commutative(Op_kind k);

// Number of operands (0 for leaves, 3 for select, else 1 or 2).
int arity(Op_kind k);

// Mnemonic ("add", "sqrt", ...).
std::string to_string(Op_kind k);
std::ostream& operator<<(std::ostream& os, Op_kind k);

// One DAG node. Plain data; the pool owns all nodes.
struct Expr_node {
    Op_kind kind = Op_kind::constant;
    double value = 0.0;                       // constant leaves
    int field = -1;                           // input leaves: interned field id
    int dx = 0;                               // input leaves: relative offset
    int dy = 0;
    std::array<Expr_id, 3> args = {no_expr, no_expr, no_expr};

    int arg_count() const { return arity(kind); }
};

// Arena + hash-consing table for expression nodes, plus the field-name
// interner (field leaves reference fields by small integer).
class Expr_pool {
public:
    Expr_pool() = default;

    // --- leaves -----------------------------------------------------------
    Expr_id constant(double v);
    Expr_id input(int field, int dx, int dy);

    // --- simplifying constructors ------------------------------------------
    // All apply constant folding and local identities, then hash-cons.
    Expr_id add(Expr_id a, Expr_id b);
    Expr_id sub(Expr_id a, Expr_id b);
    Expr_id mul(Expr_id a, Expr_id b);
    Expr_id div(Expr_id a, Expr_id b);
    Expr_id min_of(Expr_id a, Expr_id b);
    Expr_id max_of(Expr_id a, Expr_id b);
    Expr_id neg(Expr_id a);
    Expr_id abs_of(Expr_id a);
    Expr_id sqrt_of(Expr_id a);
    Expr_id less(Expr_id a, Expr_id b);
    Expr_id less_equal(Expr_id a, Expr_id b);
    Expr_id equal(Expr_id a, Expr_id b);
    Expr_id select(Expr_id cond, Expr_id if_true, Expr_id if_false);

    // Generic entry points dispatching to the simplifying constructors above;
    // used by node rewriters such as transform_inputs().
    Expr_id unary(Op_kind k, Expr_id a);
    Expr_id binary(Op_kind k, Expr_id a, Expr_id b);

    // --- access ------------------------------------------------------------
    const Expr_node& node(Expr_id id) const;
    std::size_t size() const { return nodes_.size(); }

    // --- field interning -----------------------------------------------------
    // Returns a stable small integer for `name`, creating it on first use.
    int intern_field(const std::string& name);
    // Looks up without creating; -1 when unknown.
    int find_field(const std::string& name) const;
    const std::string& field_name(int field) const;
    int field_count() const { return static_cast<int>(field_names_.size()); }

private:
    // Lets the unit tests drive the raw constructors' invariant checks,
    // which no public entry point can reach.
    friend struct Expr_pool_test_access;

    Expr_id intern(const Expr_node& n);
    Expr_id raw_unary(Op_kind k, Expr_id a);
    Expr_id raw_binary(Op_kind k, Expr_id a, Expr_id b);

    struct Node_hash {
        std::size_t operator()(const Expr_node& n) const;
    };
    struct Node_eq {
        bool operator()(const Expr_node& a, const Expr_node& b) const;
    };

    std::vector<Expr_node> nodes_;
    std::unordered_map<Expr_node, Expr_id, Node_hash, Node_eq> table_;
    std::vector<std::string> field_names_;
};

// Rebuilds `root` (which lives in `pool`) replacing every input leaf by the
// expression returned by `leaf(node)`; non-leaf structure is re-created
// through the simplifying constructors (so substitution can trigger further
// folding). Memoizes per call, preserving DAG sharing. This is the primitive
// the cone builder uses to chain iterations.
template <typename Leaf_fn>
Expr_id transform_inputs(Expr_pool& pool, Expr_id root, Leaf_fn&& leaf);

// --- implementation of the template ---------------------------------------
namespace detail {
template <typename Leaf_fn>
Expr_id transform_rec(Expr_pool& pool, Expr_id id, Leaf_fn& leaf,
                      std::unordered_map<Expr_id, Expr_id>& memo) {
    if (auto it = memo.find(id); it != memo.end()) return it->second;
    const Expr_node n = pool.node(id);  // copy: pool may reallocate below
    Expr_id result = no_expr;
    switch (n.kind) {
        case Op_kind::constant:
            result = id;
            break;
        case Op_kind::input:
            result = leaf(n);
            break;
        default: {
            std::array<Expr_id, 3> args = {no_expr, no_expr, no_expr};
            for (int i = 0; i < n.arg_count(); ++i) {
                args[static_cast<std::size_t>(i)] =
                    transform_rec(pool, n.args[static_cast<std::size_t>(i)], leaf, memo);
            }
            if (n.kind == Op_kind::select) {
                result = pool.select(args[0], args[1], args[2]);
            } else if (n.arg_count() == 1) {
                result = pool.unary(n.kind, args[0]);
            } else {
                result = pool.binary(n.kind, args[0], args[1]);
            }
            break;
        }
    }
    memo.emplace(id, result);
    return result;
}
}  // namespace detail

template <typename Leaf_fn>
Expr_id transform_inputs(Expr_pool& pool, Expr_id root, Leaf_fn&& leaf) {
    std::unordered_map<Expr_id, Expr_id> memo;
    return detail::transform_rec(pool, root, leaf, memo);
}

}  // namespace islhls
