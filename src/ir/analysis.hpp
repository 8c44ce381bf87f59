// Static analyses over expression DAGs: reachability, operation census,
// critical-path depth and input support. These feed the cone statistics the
// estimators consume (register counts drive the Eq. 1 area model; op kinds
// and depth drive the timing model).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "grid/tile.hpp"
#include "ir/expr.hpp"

namespace islhls {

// Census of the nodes reachable from a set of roots. Every DAG node is
// counted once regardless of how many times it is referenced — that is the
// register-reuse property.
struct Op_census {
    std::map<Op_kind, int> by_kind;
    int operation_count = 0;  // nodes with is_operation(kind)
    int input_count = 0;      // distinct input leaves
    int constant_count = 0;   // distinct constants
    int count(Op_kind k) const;
};

// One past the largest id reachable from `roots`: a node's operands are
// interned before it, so no reachable id exceeds the largest root. Sizes the
// dense per-walk tables indexed by Expr_id.
std::size_t id_bound(const std::vector<Expr_id>& roots);

// Structural fingerprints: fingerprints[id] hashes node `id`'s kind, payload
// and operands' fingerprints, with commutative operands combined in either
// order. Unlike an Expr_id, a fingerprint does not depend on the order the
// pool's nodes were created in. Extends `fingerprints` to cover every node
// of `pool` (operands precede users, so earlier entries stay valid).
void extend_fingerprints(const Expr_pool& pool,
                         std::vector<std::uint64_t>& fingerprints);

// The node's operands in visiting order. The pool orders commutative
// operands by id; given fingerprints (covering the node), they are ordered
// structurally instead — by fingerprint, then by structure on a collision —
// so walks and programs come out the same whatever the creation order.
std::array<Expr_id, 3> ordered_args(const Expr_pool& pool, const Expr_node& n,
                                    const std::vector<std::uint64_t>* fingerprints);

// Unique reachable node ids from `roots`, in deterministic topological order
// (operands before users, visited in ordered_args() order).
std::vector<Expr_id> reachable_nodes(
    const Expr_pool& pool, const std::vector<Expr_id>& roots,
    const std::vector<std::uint64_t>* fingerprints = nullptr);

Op_census count_ops(const Expr_pool& pool, const std::vector<Expr_id>& roots);

// A reference to one distinct input element used by an expression.
struct Input_ref {
    int field = -1;
    int dx = 0;
    int dy = 0;
    auto operator<=>(const Input_ref&) const = default;
};

// Sorted distinct input leaves reachable from the roots.
std::vector<Input_ref> input_support(const Expr_pool& pool,
                                     const std::vector<Expr_id>& roots);

// Tightest footprint covering the support (per-field union). An expression
// with no input leaves yields the empty footprint.
Footprint support_footprint(const Expr_pool& pool, const std::vector<Expr_id>& roots);

}  // namespace islhls
