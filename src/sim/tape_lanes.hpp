// Explicit SIMD lane kernels for the compiled tape.
//
// Every batched executor in the simulator family advances up to kTapeLane
// samples through the WHOLE tape in one call: the format-search batch
// executor (sim/fixed_exec.hpp), the lane-blocked frame interior of both
// domains (sim/exec_engine.cpp) and the region-row-tiled architecture
// simulator (sim/arch_sim.cpp). This header is the one home of those lane
// bodies, in both value domains:
//
//   - the fixed run_tape: raw Qm.f words, case-for-case identical to
//     apply_op_fixed (ir/compiled.hpp) and therefore to the run_fixed_raw
//     reference interpreter;
//   - the double run_tape: IEEE doubles, case-for-case identical to
//     apply_op (ir/eval.hpp). Each case is a single elementwise operation,
//     so vectorization cannot reassociate or contract anything — results
//     are bit-identical to the scalar path on every ISA.
//
// The tape walk and its op switch are compiled once per instruction-set
// level (baseline, AVX2, AVX-512 on x86-64) and resolved once per process
// against what the host actually supports — explicit, portable SIMD
// instead of hoping the baseline auto-vectorizer covers 64-bit integer
// arithmetic (it does not: plain x86-64 has no vector 64-bit multiply or
// arithmetic right shift). One lane block costs one indirect call, however
// long the tape. Non-x86 hosts transparently get the single baseline body.
//
// Operand layout: `slot[s]` points at the n <= kTapeLane live samples of
// tape slot s. The caller binds every slot the walk touches: constants and
// op results usually live in a slot-major lane block (lanes + s * stride,
// stride >= n), while input slots may point straight into frame rows and
// output slots straight into destination rows. The walk reads input and
// constant slots and writes each op's dest slot once, in tape order; no
// dest span may overlap any other slot's span.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ir/compiled.hpp"

namespace islhls {

inline constexpr int kTapeLane = 64;

// Runs `count` tape operations over one lane block of `n` samples.
void run_tape(const Tape_op* ops, std::size_t count, double* const* slot, int n);
void run_tape(const Tape_op* ops, std::size_t count, std::int64_t* const* slot, int n,
              const Bit_wrap& wrap, int frac, std::int64_t fixed_one);

// Points slot[s] at lanes + s * stride for each of `slots` slots of a
// slot-major lane block. A walk over n samples needs stride >= n.
template <class Value>
void bind_lane_slots(std::vector<Value*>& slot, Value* lanes, std::size_t slots,
                     std::size_t stride = kTapeLane) {
    slot.resize(slots);
    for (std::size_t s = 0; s < slots; ++s) slot[s] = lanes + s * stride;
}

// Slot stride of a lane block for a batch of `samples`: a whole lane when
// the batch fills one, else the batch rounded up to 8 words (one 64-byte
// cache line), so a short batch does not drag dead lanes through the walk.
inline std::size_t lane_stride(std::size_t samples) {
    return std::min<std::size_t>((samples + 7) / 8 * 8, kTapeLane);
}

// "avx512" / "avx2" / "default" — which clone the host resolved to, for
// bench and CI logs (cross-host ratio drift is diagnosable from the log).
const char* tape_lane_isa();

}  // namespace islhls
