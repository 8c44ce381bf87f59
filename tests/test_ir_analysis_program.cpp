// DAG analyses, register programs and evaluation equivalence.
#include <gtest/gtest.h>

#include <cmath>

#include "ir/analysis.hpp"
#include "oracle/reference.hpp"
#include "ir/expr.hpp"
#include "ir/program.hpp"
#include "support/prng.hpp"

namespace islhls {
namespace {

class Ir_fixture : public ::testing::Test {
protected:
    Expr_pool pool;
    int u = -1;

    void SetUp() override { u = pool.intern_field("u"); }

    Expr_id in(int dx, int dy) { return pool.input(u, dx, dy); }
};

TEST_F(Ir_fixture, census_counts_unique_nodes_once) {
    const Expr_id shared = pool.add(in(0, 0), in(1, 0));
    const Expr_id e = pool.mul(shared, shared);  // mul(x, x) — one mul, one add
    const Op_census census = count_ops(pool, {e});
    EXPECT_EQ(census.count(Op_kind::add), 1);
    EXPECT_EQ(census.count(Op_kind::mul), 1);
    EXPECT_EQ(census.operation_count, 2);
    EXPECT_EQ(census.input_count, 2);
    EXPECT_EQ(census.constant_count, 0);
}

TEST_F(Ir_fixture, support_is_sorted_and_unique) {
    const Expr_id e =
        pool.add(pool.add(in(-1, 2), in(3, -1)), pool.mul(in(-1, 2), in(0, 0)));
    const auto support = input_support(pool, {e});
    ASSERT_EQ(support.size(), 3u);
    EXPECT_TRUE(std::is_sorted(support.begin(), support.end()));
}

TEST_F(Ir_fixture, footprint_from_support) {
    const Expr_id e = pool.add(in(-2, 1), in(3, -1));
    const Footprint fp = support_footprint(pool, {e});
    EXPECT_EQ(fp, (Footprint{2, 3, 1, 1}));
    EXPECT_EQ(support_footprint(pool, {pool.constant(1.0)}), (Footprint{}));
}

TEST_F(Ir_fixture, reachable_nodes_topologically_ordered) {
    const Expr_id s = pool.add(in(0, 0), in(1, 0));
    const Expr_id e = pool.mul(s, pool.constant(2.0));
    const auto order = reachable_nodes(pool, {e});
    // Every operand appears before its user.
    std::vector<int> position(pool.size(), -1);
    for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = static_cast<int>(i);
    for (Expr_id id : order) {
        const Expr_node& n = pool.node(id);
        for (int a = 0; a < n.arg_count(); ++a) {
            EXPECT_LT(position[n.args[static_cast<std::size_t>(a)]], position[id]);
        }
    }
}

TEST_F(Ir_fixture, program_register_count_excludes_leaves) {
    const Expr_id e = pool.mul(pool.add(in(0, 0), in(1, 0)), pool.constant(0.5));
    const Register_program prog = build_program(pool, {e});
    EXPECT_EQ(prog.register_count(), 2);  // add + mul
    EXPECT_EQ(prog.input_count(), 2);
    EXPECT_EQ(prog.constant_count(), 1);
    EXPECT_EQ(prog.depth(), 2);
    EXPECT_EQ(prog.outputs().size(), 1u);
}

TEST_F(Ir_fixture, program_run_matches_direct_evaluation) {
    // Build a nontrivial expression with every operator.
    const Expr_id x = in(0, 0);
    const Expr_id y = in(1, 0);
    const Expr_id z = in(0, 1);
    const Expr_id e = pool.select(
        pool.less(x, y),
        pool.div(pool.add(pool.mul(x, y), pool.sqrt_of(pool.abs_of(z))),
                 pool.max_of(y, pool.constant(0.25))),
        pool.sub(pool.min_of(x, z), pool.neg(y)));
    const Register_program prog = build_program(pool, {e});
    const std::vector<Instruction> ports = input_instructions(prog);

    Prng rng(2024);
    for (int trial = 0; trial < 200; ++trial) {
        double vals[3] = {rng.next_in(-10, 10), rng.next_in(-10, 10),
                          rng.next_in(-10, 10)};
        auto resolve = [&](int, int dx, int dy) {
            if (dx == 0 && dy == 0) return vals[0];
            if (dx == 1) return vals[1];
            return vals[2];
        };
        const double direct = evaluate(pool, e, resolve);
        std::vector<double> inputs;
        for (const Instruction& port : ports) {
            inputs.push_back(resolve(port.field, port.dx, port.dy));
        }
        const double via_program =
            run_trace(prog, inputs)[static_cast<std::size_t>(prog.outputs()[0])];
        EXPECT_EQ(direct, via_program) << "trial " << trial;
    }
}

TEST_F(Ir_fixture, evaluate_many_shares_common_subtrees) {
    const Expr_id s = pool.add(in(0, 0), in(1, 0));
    const Expr_id e1 = pool.mul(s, pool.constant(2.0));
    const Expr_id e2 = pool.mul(s, pool.constant(3.0));
    int resolver_calls = 0;
    auto resolve = [&](int, int, int) {
        ++resolver_calls;
        return 1.0;
    };
    const auto out = evaluate_many(pool, {e1, e2}, resolve);
    EXPECT_EQ(out[0], 4.0);
    EXPECT_EQ(out[1], 6.0);
    EXPECT_EQ(resolver_calls, 2);  // each distinct input resolved exactly once
}

TEST_F(Ir_fixture, apply_op_semantics) {
    const double ab[2] = {3.0, -4.0};
    EXPECT_EQ(apply_op(Op_kind::add, ab), -1.0);
    EXPECT_EQ(apply_op(Op_kind::sub, ab), 7.0);
    EXPECT_EQ(apply_op(Op_kind::mul, ab), -12.0);
    EXPECT_EQ(apply_op(Op_kind::min_op, ab), -4.0);
    EXPECT_EQ(apply_op(Op_kind::max_op, ab), 3.0);
    EXPECT_EQ(apply_op(Op_kind::lt, ab), 0.0);
    EXPECT_EQ(apply_op(Op_kind::le, ab), 0.0);
    EXPECT_EQ(apply_op(Op_kind::eq, ab), 0.0);
    const double sel_true[3] = {2.0, 10.0, 20.0};
    const double sel_false[3] = {0.0, 10.0, 20.0};
    EXPECT_EQ(apply_op(Op_kind::select, sel_true), 10.0);
    EXPECT_EQ(apply_op(Op_kind::select, sel_false), 20.0);
}

// Randomized DAG property: program lowering preserves evaluation for any DAG
// built from random operations.
class Random_dag : public ::testing::TestWithParam<int> {};

TEST_P(Random_dag, lowering_preserves_semantics) {
    Expr_pool pool;
    const int u = pool.intern_field("u");
    Prng rng(static_cast<std::uint64_t>(GetParam()));
    std::vector<Expr_id> nodes;
    for (int dx = -2; dx <= 2; ++dx) nodes.push_back(pool.input(u, dx, 0));
    nodes.push_back(pool.constant(0.5));
    nodes.push_back(pool.constant(2.0));
    for (int step = 0; step < 40; ++step) {
        const Expr_id a = nodes[static_cast<std::size_t>(
            rng.next_int(0, static_cast<int>(nodes.size()) - 1))];
        const Expr_id b = nodes[static_cast<std::size_t>(
            rng.next_int(0, static_cast<int>(nodes.size()) - 1))];
        switch (rng.next_int(0, 5)) {
            case 0: nodes.push_back(pool.add(a, b)); break;
            case 1: nodes.push_back(pool.sub(a, b)); break;
            case 2: nodes.push_back(pool.mul(a, b)); break;
            case 3: nodes.push_back(pool.min_of(a, b)); break;
            case 4: nodes.push_back(pool.max_of(a, b)); break;
            default: nodes.push_back(pool.abs_of(a)); break;
        }
    }
    const std::vector<Expr_id> roots{nodes.back(), nodes[nodes.size() / 2]};
    const Register_program prog = build_program(pool, roots);
    const std::vector<Instruction> ports = input_instructions(prog);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> cell(5);
        for (double& v : cell) v = rng.next_in(-4.0, 4.0);
        auto resolve = [&](int, int dx, int) { return cell[static_cast<std::size_t>(dx + 2)]; };
        const auto direct = evaluate_many(pool, roots, resolve);
        std::vector<double> inputs;
        for (const Instruction& port : ports) {
            inputs.push_back(resolve(port.field, port.dx, port.dy));
        }
        const auto regs = run_trace(prog, inputs);
        ASSERT_EQ(direct.size(), prog.outputs().size());
        for (std::size_t i = 0; i < direct.size(); ++i) {
            EXPECT_EQ(direct[i], regs[static_cast<std::size_t>(prog.outputs()[i])]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Random_dag, ::testing::Range(1, 11));

}  // namespace
}  // namespace islhls
