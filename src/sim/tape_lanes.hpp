// Explicit SIMD lane kernels for the compiled tape, and the lane block they
// walk.
//
// Every batched executor in the simulator family advances up to kTapeLane
// samples through the WHOLE tape in one call: the format search's range
// and reference walk (estimate/format_search.cpp), the batched fixed
// executor run_raw_batch (sim/fixed_exec.hpp), the lane-blocked frame
// engine of both domains (sim/exec_engine.cpp) and the region-row-tiled
// architecture simulator (sim/arch_sim.cpp). This header is the one home of
// those lane bodies, in both value domains; the tape names its domain:
//
//   - run_tape(const Fixed_tape&, ...): raw Qm.f words, case-for-case
//     identical to the reference interpreter's apply_op_fixed
//     (oracle/reference.hpp, a test oracle outside the product library);
//     the wrap width, fraction shift and raw 1.0 come from the Fixed_tape;
//   - run_tape(const Compiled_program&, ...): IEEE doubles, case-for-case
//     identical to the reference apply_op (oracle/reference.hpp). Each case
//     is a single elementwise operation, so vectorization cannot reassociate
//     or contract anything — results are bit-identical to the scalar
//     reference on every ISA.
//
// The tape walk and its op switch are compiled once per instruction-set
// level (baseline, AVX2, AVX-512 on x86-64) and resolved once per process
// against what the host actually supports — explicit, portable SIMD
// instead of hoping the baseline auto-vectorizer covers 64-bit integer
// arithmetic (it does not: plain x86-64 has no vector 64-bit multiply or
// arithmetic right shift). One lane block costs one indirect call, however
// long the tape. Non-x86 hosts transparently get the single baseline body.
//
// Operand layout: `slot[s]` points at the n <= stride live samples of tape
// slot s. A Lane_block owns the slot-major lanes and that slot table, with
// the constant lanes filled from the tape. Callers may repoint input slots
// straight into frame rows and output slots straight into destination rows
// (span(s) points a slot back at its own lanes). The walk reads input and
// constant slots and writes each op's dest slot once, in tape order; no
// dest span may overlap any other slot's span.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "ir/compiled.hpp"

namespace islhls {

inline constexpr int kTapeLane = 64;

// Runs the whole tape over one lane block of `n` samples.
void run_tape(const Compiled_program& tape, double* const* slot, int n);
void run_tape(const Fixed_tape& tape, std::int64_t* const* slot, int n);

// The lane word of a tape's value domain.
template <class Tape>
using Lane_word =
    std::conditional_t<std::is_same_v<Tape, Fixed_tape>, std::int64_t, double>;

// Slot stride of a lane block for a batch of `samples`: a whole lane when
// the batch fills one, else the batch rounded up to 8 words (one 64-byte
// cache line), so a short batch does not drag dead lanes through the walk.
inline std::size_t lane_stride(std::size_t samples) {
    return std::min<std::size_t>((samples + 7) / 8 * 8, kTapeLane);
}

// The slot-major lanes of one tape (`stride` words per slot) and the slot
// table run_tape walks. A walk over n samples needs stride >= n.
template <class Tape>
class Lane_block {
public:
    using Value = Lane_word<Tape>;

    Lane_block() = default;
    explicit Lane_block(const Tape& tape, std::size_t stride = kTapeLane) {
        bind(tape, stride);
    }

    // Points every slot at its own span and fills the constant lanes from
    // `tape`; slots are single-assignment, so those survive every later
    // walk. The lanes grow and are never shrunk, so a block rebound across
    // batches, formats and tapes allocates once.
    void bind(const Tape& tape, std::size_t stride = kTapeLane);

    Value** slot() { return slot_.data(); }
    Value* span(std::int32_t s) {
        return lanes_.data() + static_cast<std::size_t>(s) * stride_;
    }

private:
    std::vector<Value> lanes_;
    std::vector<Value*> slot_;
    std::size_t stride_ = 0;
};

extern template class Lane_block<Compiled_program>;
extern template class Lane_block<Fixed_tape>;

// "avx512" / "avx2" / "default" — which clone the host resolved to, for
// bench and CI logs (cross-host ratio drift is diagnosable from the log).
const char* tape_lane_isa();

}  // namespace islhls
