// Register programs: the scheduled, three-address form of an expression DAG.
//
// This is the paper's "slim VHDL with a high degree of resource reuse" made
// explicit: each DAG node becomes exactly one instruction whose destination
// is one hardware register; any further use of the value reads that register.
// The instruction vector drives the VHDL emitter; lowered once to a
// Compiled_program, the same structure drives the virtual synthesizer's
// netlist costing and the simulator's run_tape executor. A cone keeps only
// that tape and re-lowers its program on demand (Cone::lower()); an
// Exec_engine keeps one program per kernel. The scalar interpreter that
// walks the instruction vector directly, run_trace, and the SSA cost walk
// are test oracles (oracle/reference.hpp, oracle/cost_reference.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "ir/expr.hpp"

namespace islhls {

class Compiled_program;

// One instruction. `dest` is the register index (== position in the program's
// instruction vector). Leaves occupy instruction slots too: constants bind a
// literal, inputs bind an input port; neither consumes a hardware register.
//
// Packed to 32 bytes, because a large cone lowers to millions of them: the
// kind, the operand count, the field index, the offsets and the level are
// narrowed, and build_program() range-checks every narrowed value it writes.
struct Instruction {
    double value = 0.0;                                   // constant payload
    std::array<std::int32_t, 3> operands = {-1, -1, -1};  // register indices
    std::int16_t field = -1;                              // input payload
    std::int16_t dx = 0;
    std::int16_t dy = 0;
    std::uint16_t level = 0;  // ASAP pipeline stage; leaves at 0
    Op_kind kind = Op_kind::constant;
    std::uint8_t operand_count = 0;
};
static_assert(sizeof(Instruction) <= 32, "Instruction must pack into 32 bytes");

// A topologically ordered instruction sequence with designated outputs.
class Register_program {
public:
    Register_program() = default;

    const std::vector<Instruction>& instructions() const { return instrs_; }
    const std::vector<std::int32_t>& outputs() const { return output_regs_; }

    // Number of operation instructions == hardware registers (the Reg_i of
    // the paper's Eq. 1).
    int register_count() const { return register_count_; }
    // Distinct input ports.
    int input_count() const { return input_count_; }
    // Distinct literal constants.
    int constant_count() const { return constant_count_; }
    // Pipeline depth (maximum level over all instructions).
    int depth() const { return depth_; }

    // The scanline-compiled form of this program. Built eagerly by
    // build_program() (a single linear pass) and shared by copies, so this
    // accessor is a plain read — no synchronization, valid for the
    // program's lifetime. Throws on a default-constructed program.
    const Compiled_program& compiled() const;
    // The same tape as a shared handle, for an owner that keeps the tape
    // and drops the program (a Cone).
    std::shared_ptr<const Compiled_program> shared_compiled() const;

    friend Register_program build_program(const Expr_pool& pool,
                                          const std::vector<Expr_id>& roots,
                                          const std::vector<std::uint64_t>* fingerprints);

private:
    std::vector<Instruction> instrs_;
    std::vector<std::int32_t> output_regs_;
    int register_count_ = 0;
    int input_count_ = 0;
    int constant_count_ = 0;
    int depth_ = 0;
    // Set once by build_program(); immutable afterwards (which is what makes
    // the unsynchronized compiled() read safe).
    std::shared_ptr<const Compiled_program> compiled_;
};

// Lowers the DAG reachable from `roots` to a register program. Given
// structural fingerprints (extend_fingerprints() over `pool`), commutative
// operands are visited and emitted in ordered_args() order, so the program
// depends only on the DAG's structure, not on the order its nodes were
// interned in.
Register_program build_program(const Expr_pool& pool, const std::vector<Expr_id>& roots,
                               const std::vector<std::uint64_t>* fingerprints = nullptr);

}  // namespace islhls
