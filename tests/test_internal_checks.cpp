// Invariant checks on hot paths build their message only when they fail.
// These tests pin that every such check still fires, as an Internal_error
// carrying the full message, when its invariant is broken.
#include <gtest/gtest.h>

#include <string>

#include "grid/frame.hpp"
#include "ir/expr.hpp"
#include "support/error.hpp"
#include "symexec/stencil_step.hpp"

namespace islhls {

struct Expr_pool_test_access {
    static Expr_id raw_unary(Expr_pool& pool, Op_kind k, Expr_id a) {
        return pool.raw_unary(k, a);
    }
    static Expr_id raw_binary(Expr_pool& pool, Op_kind k, Expr_id a, Expr_id b) {
        return pool.raw_binary(k, a, b);
    }
};

namespace {

// The message of the Internal_error `action` throws ("" when it does not).
template <class Action>
std::string internal_error_of(Action&& action) {
    try {
        action();
    } catch (const Internal_error& e) {
        return e.what();
    }
    return "";
}

TEST(Internal_checks, expr_pool_raw_constructors_reject_wrong_arity) {
    Expr_pool pool;
    const Expr_id one = pool.constant(1.0);
    EXPECT_EQ(internal_error_of([&] {
                  Expr_pool_test_access::raw_unary(pool, Op_kind::add, one);
              }),
              "internal invariant violated: raw_unary() called with add");
    EXPECT_EQ(internal_error_of([&] {
                  Expr_pool_test_access::raw_binary(pool, Op_kind::sqrt_op, one, one);
              }),
              "internal invariant violated: raw_binary() called with sqrt");
    // In range, the same calls intern nodes.
    EXPECT_NE(Expr_pool_test_access::raw_unary(pool, Op_kind::neg, one), one);
}

TEST(Internal_checks, frame_at_rejects_out_of_range_cells) {
    Frame frame(4, 3);
    const Frame& view = frame;
    EXPECT_EQ(internal_error_of([&] { frame.at(4, 0) = 1.0; }),
              "internal invariant violated: Frame::at out of range (4,0) in 4x3");
    EXPECT_EQ(internal_error_of([&] { (void)view.at(0, -1); }),
              "internal invariant violated: Frame::at out of range (0,-1) in 4x3");
    EXPECT_EQ(internal_error_of([&] { frame.at(3, 2) = 1.0; }), "");
}

TEST(Internal_checks, stencil_step_rejects_duplicate_and_unknown_fields) {
    Stencil_step step;
    step.add_state_field("u");
    step.add_const_field("f");
    EXPECT_EQ(internal_error_of([&] { step.add_state_field("f"); }),
              "internal invariant violated: field 'f' already exists");
    EXPECT_EQ(internal_error_of([&] { step.add_const_field("u"); }),
              "internal invariant violated: field 'u' already exists");
    EXPECT_EQ(internal_error_of([&] { step.set_update("v", no_expr); }),
              "internal invariant violated: set_update on unknown state field 'v'");
    EXPECT_EQ(internal_error_of([&] { (void)step.update("v"); }),
              "internal invariant violated: update() on unknown state field 'v'");
}

}  // namespace
}  // namespace islhls
