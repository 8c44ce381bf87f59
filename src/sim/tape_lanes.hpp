// Explicit SIMD lane kernels for the compiled tape, and the lane block they
// walk.
//
// Every batched executor in the simulator family advances up to kTapeLane
// samples through the WHOLE tape in one call: the format search's range
// and reference walk (estimate/format_search.cpp), the batched fixed
// executor run_raw_batch (sim/fixed_exec.hpp), the lane-blocked frame
// engine of both domains (sim/exec_engine.cpp) and the region-batched
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
// slot s. A Lane_block owns the slot-major lanes, each span 64-byte
// aligned, and that slot table, with the constant lanes filled from the
// tape. Callers may repoint input slots straight into frame rows and output
// slots straight into destination rows (span(s) points a slot back at its
// own lanes); those need no alignment, since the walks load and store
// unaligned. The tape is register-allocated (ir/compiled.hpp): the walk
// reads input and constant slots, never writes them, and writes the op
// results in tape order into slots that later ops may reuse; only the
// output slots hold a value (their output's) after the walk. No op's dest
// is one of its own sources, and no slot's span may overlap another's.
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

// The double walk that also folds |v| of every op result into range[l]
// (l < n) as it writes it: range[l] = range[l] < |v| ? |v| : range[l], so a
// NaN result keeps the running value. A reused slot is overwritten later
// in the walk, so this is the one place that sees every value.
void run_tape(const Compiled_program& tape, double* const* slot, int n, double* range);

// One ISA clone of the two lane walks, taking the tape's op list, the slot
// table, n and (fixed) the wrap, fraction shift and raw 1.0, or (double)
// the range lanes, nullptr for none.
struct Lane_clone {
    const char* isa;
    void (*fixed)(const Tape_op*, std::size_t, std::int64_t* const*, int, const Bit_wrap&,
                  int, std::int64_t);
    void (*dbl)(const Tape_op*, std::size_t, double* const*, int, double*);
};

// Every clone the host can execute, widest first; run_tape runs the first.
// Tests hold each one to the reference semantics.
const std::vector<Lane_clone>& lane_clones();

// The lane word of a tape's value domain.
template <class Tape>
using Lane_word =
    std::conditional_t<std::is_same_v<Tape, Fixed_tape>, std::int64_t, double>;

// Slot stride of a lane block for a batch of `samples`: a whole lane when
// the batch fills one, else the batch rounded up to 8 words (one 64-byte
// cache line), so a short batch does not drag dead lanes through the walk
// and every span of a Lane_block starts on a cache line.
inline std::size_t lane_stride(std::size_t samples) {
    return std::min<std::size_t>((samples + 7) / 8 * 8, kTapeLane);
}

// The slot-major lanes of one tape (`stride` words per slot) and the slot
// table run_tape walks. A walk over n samples needs stride >= n. The lanes
// start on a 64-byte boundary, so with a lane_stride() stride every span
// does too and no full-width vector access splits a cache line.
template <class Tape>
class Lane_block {
public:
    using Value = Lane_word<Tape>;

    Lane_block() = default;
    explicit Lane_block(const Tape& tape, std::size_t stride = kTapeLane) {
        bind(tape, stride);
    }

    // Points every slot at its own span and fills the constant lanes from
    // `tape`; constant slots are pinned (no op writes them), so those
    // survive every later walk. The block holds the tape's slot_count()
    // spans, one per value live at once, not one per instruction. The
    // lanes grow and are never shrunk, so a block rebound across batches,
    // formats and tapes allocates once.
    void bind(const Tape& tape, std::size_t stride = kTapeLane);

    Value** slot() { return slot_.data(); }
    Value* span(std::int32_t s) {
        return lanes_.data() + offset_ + static_cast<std::size_t>(s) * stride_;
    }

private:
    static constexpr std::size_t kLineWords = 64 / sizeof(Value);

    // Over-allocated by kLineWords - 1 words; offset_ words in, the lanes
    // reach the first 64-byte boundary of the buffer.
    std::vector<Value> lanes_;
    std::vector<Value*> slot_;
    std::size_t stride_ = 0;
    std::size_t offset_ = 0;
};

extern template class Lane_block<Compiled_program>;
extern template class Lane_block<Fixed_tape>;

// "avx512" / "avx2" / "default" — which clone the host resolved to, for
// bench and CI logs (cross-host ratio drift is diagnosable from the log).
const char* tape_lane_isa();

}  // namespace islhls
