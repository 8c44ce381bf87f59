// Cones: hardware modules computing a window of iteration i+depth directly
// from iteration i (Sec. 3.1/3.2 of the paper).
//
// A cone of depth d and output window w x h evaluates, for every state field
// and every element of the window, the composition of d applications of the
// stencil step. Construction unrolls the dependencies level by level through
// memoized substitution into the shared expression pool: a value needed by
// several consumers (Fig. 4's shared diagonal reads) is created once and
// referenced many times, which is exactly the register-reuse scheme the
// paper uses to keep the generated VHDL slim.
//
// A built cone keeps one lowered form: its register-allocated tape
// (ir/compiled.hpp), with its statistics and output roots. Synthesis
// costing, the fixed-point format search and the architecture simulator
// read the tape. The SSA Register_program it was compiled from is dropped
// when the build returns; the VHDL emitter and the test oracles, the only
// readers of SSA, re-lower it on demand through Cone::lower().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "grid/tile.hpp"
#include "ir/analysis.hpp"
#include "ir/compiled.hpp"
#include "ir/program.hpp"
#include "symexec/stencil_step.hpp"

namespace islhls {

// Geometry of a cone: output window size and number of iterations fused.
struct Cone_spec {
    int window_width = 1;
    int window_height = 1;
    int depth = 1;

    bool operator==(const Cone_spec&) const = default;
};

std::string to_string(const Cone_spec& spec);

// Aggregate numbers the estimators consume.
struct Cone_stats {
    Cone_spec spec;
    int register_count = 0;    // operation nodes == pipeline registers (Reg_i)
    int input_count = 0;       // distinct input elements (on-chip reads)
    int output_count = 0;      // state_fields * window elements
    int pipeline_depth = 0;    // levelized DAG depth
    Op_census census;          // per-kind operation counts
    Window input_window;       // bounding box of inputs incl. halo
    double naive_operation_count = 0.0;  // tree-expanded op count (no reuse)

    // How many raw operations each materialized register replaces on average;
    // > 1 whenever the unrolled dependencies overlap.
    double reuse_factor() const {
        return register_count > 0 ? naive_operation_count / register_count : 1.0;
    }
};

// The unrolled iteration space of one stencil step: the value of state field
// `s` at unrolling level `level` (level 0 = cone input) at position (x, y),
// as a node of the step's pool. A value depends only on the step, never on
// the cone asking for it, so one memo serves every cone of a kernel: each
// value is substituted once, and a cone built after another mostly reads
// values that are already there. Node ids still follow the order values
// were first computed in; the structural fingerprints kept beside the
// values let build_program() order commutative operands by structure
// instead, so no cone's register program depends on the build order. Not
// thread-safe; the owner serializes access together with the pool it
// extends.
class Cone_memo {
public:
    // The step must outlive the memo.
    explicit Cone_memo(Stencil_step& step);

    Expr_id value(int s, int level, int x, int y);

    // Structural fingerprints of every node of the step's pool so far
    // (extend_fingerprints()).
    const std::vector<std::uint64_t>& fingerprints();

private:
    Stencil_step& step_;
    std::vector<int> state_input_;     // state position -> pool field index
    std::vector<int> state_position_;  // pool field index -> state position or -1
    std::unordered_map<std::uint64_t, Expr_id> values_;
    std::vector<std::uint64_t> fingerprints_;
};

// A built cone. Shares (and extends) the Stencil_step's expression pool; the
// step must outlive the cone.
class Cone {
public:
    // Builds the cone for `spec` over the given stencil through `memo`,
    // which must belong to `step`. Throws on non-positive geometry.
    Cone(Stencil_step& step, const Cone_spec& spec, Cone_memo& memo);
    // Standalone build with a private memo.
    Cone(Stencil_step& step, const Cone_spec& spec);

    const Cone_spec& spec() const { return spec_; }
    const Stencil_step& step() const { return *step_; }

    // Output roots: field-major, then row-major inside the window
    // (field 0 row 0 col 0, field 0 row 0 col 1, ...).
    const std::vector<Expr_id>& outputs() const { return outputs_; }
    int output_index(int state_field, int x, int y) const;

    // The register-allocated tape of the cone's program (drives synthesis
    // costing, format search and simulation).
    const Compiled_program& tape() const { return *tape_; }

    // Re-lowers the output roots to the SSA register program the build
    // compiled tape() from, with freshly extended structural fingerprints:
    // the result equals the build's program instruction for instruction,
    // and Compiled_program(lower()) equals tape(). Feeds the VHDL emitter
    // and the test oracles. Reads the step's shared pool without a lock, so
    // it must not run while another cone's build extends that pool
    // (dse/cone_library.hpp).
    Register_program lower() const;

    const Cone_stats& stats() const { return stats_; }

    // Input bounding box relative to the output window origin; equals the
    // output window inflated by depth repetitions of the stencil footprint.
    const Window& input_window() const { return stats_.input_window; }

private:
    void build(Cone_memo& memo);

    Stencil_step* step_;
    Cone_spec spec_;
    std::vector<Expr_id> outputs_;
    std::shared_ptr<const Compiled_program> tape_;
    Cone_stats stats_;
};

}  // namespace islhls
