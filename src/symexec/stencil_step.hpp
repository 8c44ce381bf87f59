// The result of symbolically executing one ISL iteration.
//
// A Stencil_step captures the elementary transformation t as one expression
// per state field, written over *relative* reads of the previous-iteration
// fields (translational invariance means one expression describes every
// element — the key reduction of Sec. 3.2 of the paper). The contained
// Expr_pool also serves as the arena the cone builder extends when unrolling
// multiple iterations.
#pragma once

#include <string>
#include <vector>

#include "grid/tile.hpp"
#include "ir/expr.hpp"

namespace islhls {

class Stencil_step {
public:
    Stencil_step() = default;

    // --- construction (used by the symbolic executor) ---------------------------
    // Fields must be registered before updates referencing them are added.
    // Returns the pool field index.
    int add_state_field(const std::string& name);
    int add_const_field(const std::string& name);
    // Sets the update expression for a registered state field.
    void set_update(const std::string& state_field, Expr_id expr);

    // Marks the step as integer-native (every field of the source kernel was
    // declared int). All values are exact whole numbers in the double IR, so
    // a Q m.0 fixed-point format reproduces the double engine word for word
    // and the format search needs no fractional bits.
    void set_integer_native(bool value) { integer_native_ = value; }
    bool integer_native() const { return integer_native_; }

    // --- queries -----------------------------------------------------------------
    Expr_pool& pool() { return pool_; }
    const Expr_pool& pool() const { return pool_; }

    const std::vector<std::string>& state_fields() const { return state_fields_; }
    const std::vector<std::string>& const_fields() const { return const_fields_; }
    int state_field_count() const { return static_cast<int>(state_fields_.size()); }

    // Update expression of the i-th state field (declaration order).
    Expr_id update(int state_index) const;
    Expr_id update(const std::string& state_field) const;
    std::vector<Expr_id> updates() const { return updates_; }

    // Pool field index of a named field; -1 when unknown.
    int field_index(const std::string& name) const { return pool_.find_field(name); }
    // True when the pool field index refers to a state (advancing) field.
    bool is_state_index(int field) const;
    // Position of a pool field index within state_fields(); -1 for const fields.
    int state_position(int field) const;

    // Dependency footprint of one application (union over all state updates).
    Footprint footprint() const;

    // Largest single-direction extent (domain narrowness measure).
    int max_reach() const;

private:
    Expr_pool pool_;
    std::vector<std::string> state_fields_;
    std::vector<std::string> const_fields_;
    std::vector<Expr_id> updates_;  // parallel to state_fields_
    bool integer_native_ = false;
};

}  // namespace islhls
