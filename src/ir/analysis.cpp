#include "ir/analysis.hpp"

#include <algorithm>
#include <tuple>

#include "support/error.hpp"
#include "support/numeric.hpp"

namespace islhls {

namespace {

std::uint64_t fingerprint_of(const Expr_node& n, const std::vector<std::uint64_t>& fp) {
    std::uint64_t h = hash_mix(static_cast<std::uint64_t>(n.kind) + 1);
    switch (n.kind) {
        case Op_kind::constant: {
            std::uint64_t bits = 0;
            __builtin_memcpy(&bits, &n.value, sizeof(bits));
            return hash_combine(h, bits);
        }
        case Op_kind::input:
            h = hash_combine(h, static_cast<std::uint64_t>(n.field));
            h = hash_combine(h, static_cast<std::uint64_t>(std::int64_t{n.dx}));
            return hash_combine(h, static_cast<std::uint64_t>(std::int64_t{n.dy}));
        default:
            break;
    }
    if (is_commutative(n.kind)) {
        const std::uint64_t a = fp[n.args[0]];
        const std::uint64_t b = fp[n.args[1]];
        return hash_combine(hash_combine(h, std::min(a, b)), std::max(a, b));
    }
    for (int i = 0; i < n.arg_count(); ++i) {
        h = hash_combine(h, fp[n.args[static_cast<std::size_t>(i)]]);
    }
    return h;
}

// Total structural order: fingerprints first; equal fingerprints of distinct
// nodes (a hash collision) fall back to comparing the structure itself.
// Hash-consing makes distinct nodes structurally distinct, so 0 means a == b.
int structural_compare(const Expr_pool& pool, Expr_id a, Expr_id b,
                       const std::vector<std::uint64_t>& fp) {
    if (a == b) return 0;
    if (fp[a] != fp[b]) return fp[a] < fp[b] ? -1 : 1;
    const Expr_node& x = pool.node(a);
    const Expr_node& y = pool.node(b);
    if (x.kind != y.kind) return x.kind < y.kind ? -1 : 1;
    if (x.kind == Op_kind::constant) {
        std::uint64_t bx = 0, by = 0;
        __builtin_memcpy(&bx, &x.value, sizeof(bx));
        __builtin_memcpy(&by, &y.value, sizeof(by));
        return bx < by ? -1 : (bx > by ? 1 : 0);
    }
    if (x.kind == Op_kind::input) {
        const auto kx = std::make_tuple(x.field, x.dx, x.dy);
        const auto ky = std::make_tuple(y.field, y.dx, y.dy);
        return kx < ky ? -1 : (ky < kx ? 1 : 0);
    }
    const std::array<Expr_id, 3> ax = ordered_args(pool, x, &fp);
    const std::array<Expr_id, 3> ay = ordered_args(pool, y, &fp);
    for (int i = 0; i < x.arg_count(); ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        if (const int c = structural_compare(pool, ax[k], ay[k], fp); c != 0) return c;
    }
    return 0;
}

}  // namespace

void extend_fingerprints(const Expr_pool& pool,
                         std::vector<std::uint64_t>& fingerprints) {
    fingerprints.reserve(pool.size());
    for (std::size_t id = fingerprints.size(); id < pool.size(); ++id) {
        fingerprints.push_back(
            fingerprint_of(pool.node(static_cast<Expr_id>(id)), fingerprints));
    }
}

std::array<Expr_id, 3> ordered_args(const Expr_pool& pool, const Expr_node& n,
                                    const std::vector<std::uint64_t>* fingerprints) {
    std::array<Expr_id, 3> args = n.args;
    if (fingerprints != nullptr && is_commutative(n.kind) &&
        structural_compare(pool, args[0], args[1], *fingerprints) > 0) {
        std::swap(args[0], args[1]);
    }
    return args;
}

int Op_census::count(Op_kind k) const {
    const auto it = by_kind.find(k);
    return it == by_kind.end() ? 0 : it->second;
}

std::size_t id_bound(const std::vector<Expr_id>& roots) {
    std::size_t bound = 0;
    for (Expr_id r : roots) bound = std::max(bound, static_cast<std::size_t>(r) + 1);
    return bound;
}

std::vector<Expr_id> reachable_nodes(const Expr_pool& pool,
                                     const std::vector<Expr_id>& roots,
                                     const std::vector<std::uint64_t>* fingerprints) {
    std::vector<Expr_id> order;
    std::vector<bool> visited(id_bound(roots));
    // Iterative post-order DFS: push (node, expanded) pairs.
    std::vector<std::pair<Expr_id, bool>> stack;
    for (auto it = roots.rbegin(); it != roots.rend(); ++it) stack.push_back({*it, false});
    while (!stack.empty()) {
        auto [id, expanded] = stack.back();
        stack.pop_back();
        if (expanded) {
            order.push_back(id);
            continue;
        }
        if (visited[id]) continue;
        visited[id] = true;
        stack.push_back({id, true});
        const Expr_node& n = pool.node(id);
        const std::array<Expr_id, 3> args = ordered_args(pool, n, fingerprints);
        for (int i = n.arg_count() - 1; i >= 0; --i) {
            const Expr_id arg = args[static_cast<std::size_t>(i)];
            if (!visited[arg]) stack.push_back({arg, false});
        }
    }
    return order;
}

Op_census count_ops(const Expr_pool& pool, const std::vector<Expr_id>& roots) {
    Op_census census;
    for (Expr_id id : reachable_nodes(pool, roots)) {
        const Expr_node& n = pool.node(id);
        census.by_kind[n.kind] += 1;
        if (is_operation(n.kind)) {
            census.operation_count += 1;
        } else if (n.kind == Op_kind::input) {
            census.input_count += 1;
        } else {
            census.constant_count += 1;
        }
    }
    return census;
}

std::vector<Input_ref> input_support(const Expr_pool& pool,
                                     const std::vector<Expr_id>& roots) {
    std::vector<Input_ref> refs;
    for (Expr_id id : reachable_nodes(pool, roots)) {
        const Expr_node& n = pool.node(id);
        if (n.kind == Op_kind::input) refs.push_back({n.field, n.dx, n.dy});
    }
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
    return refs;
}

Footprint support_footprint(const Expr_pool& pool, const std::vector<Expr_id>& roots) {
    Footprint fp;
    for (const Input_ref& r : input_support(pool, roots)) {
        fp.left = std::max(fp.left, -r.dx);
        fp.right = std::max(fp.right, r.dx);
        fp.up = std::max(fp.up, -r.dy);
        fp.down = std::max(fp.down, r.dy);
    }
    return fp;
}

}  // namespace islhls
