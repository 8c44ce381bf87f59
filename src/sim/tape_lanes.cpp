#include "sim/tape_lanes.hpp"

#include <bit>
#include <cmath>

#include "support/error.hpp"

// Multi-ISA lane bodies: on x86-64 under gcc/clang the bodies are compiled
// three times (baseline, AVX2, AVX-512) via function target attributes and
// resolved once per process with __builtin_cpu_supports. This is plain
// function-pointer dispatch — no ifunc, so it stays friendly to sanitizers
// and static initialization order. Everywhere else the baseline body is the
// only clone and the resolver is a constant.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ISLHLS_LANE_MULTIARCH 1
#include <immintrin.h>
#endif

namespace islhls {

namespace lanes_base {
#define ISLHLS_LANE_ATTR
#if defined(ISLHLS_LANE_MULTIARCH)
#define ISLHLS_LANE_VECTOR_BITS 128  // SSE2, part of every x86-64
#else
#define ISLHLS_LANE_VECTOR_BITS 0
#endif
#include "sim/tape_lanes_body.inc"
#undef ISLHLS_LANE_VECTOR_BITS
#undef ISLHLS_LANE_ATTR
}  // namespace lanes_base

#if defined(ISLHLS_LANE_MULTIARCH)
namespace lanes_avx2 {
#define ISLHLS_LANE_ATTR __attribute__((target("avx2")))
#define ISLHLS_LANE_VECTOR_BITS 256
#include "sim/tape_lanes_body.inc"
#undef ISLHLS_LANE_VECTOR_BITS
#undef ISLHLS_LANE_ATTR
}  // namespace lanes_avx2

namespace lanes_avx512 {
// DQ provides the vector 64-bit multiply (vpmullq), VL the 128/256-bit
// forms of the EVEX ops the tail loops want.
#define ISLHLS_LANE_ATTR \
    __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw")))
#define ISLHLS_LANE_VECTOR_BITS 512
#include "sim/tape_lanes_body.inc"
#undef ISLHLS_LANE_VECTOR_BITS
#undef ISLHLS_LANE_ATTR
}  // namespace lanes_avx512
#endif  // ISLHLS_LANE_MULTIARCH

const std::vector<Lane_clone>& lane_clones() {
    // Magic statics: resolved exactly once, thread-safe.
    static const std::vector<Lane_clone> clones = [] {
        std::vector<Lane_clone> supported;
#if defined(ISLHLS_LANE_MULTIARCH)
        if (__builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl") &&
            __builtin_cpu_supports("avx512bw")) {
            supported.push_back({"avx512", &lanes_avx512::fixed_tape, &lanes_avx512::double_tape});
        }
        if (__builtin_cpu_supports("avx2")) {
            supported.push_back({"avx2", &lanes_avx2::fixed_tape, &lanes_avx2::double_tape});
        }
#endif
        supported.push_back({"default", &lanes_base::fixed_tape, &lanes_base::double_tape});
        return supported;
    }();
    return clones;
}

void run_tape(const Compiled_program& tape, double* const* slot, int n) {
    lane_clones().front().dbl(tape.ops().data(), tape.ops().size(), slot, n, nullptr);
}

void run_tape(const Compiled_program& tape, double* const* slot, int n, double* range) {
    check_internal(range != nullptr, "run_tape: null range lanes");
    lane_clones().front().dbl(tape.ops().data(), tape.ops().size(), slot, n, range);
}

void run_tape(const Fixed_tape& tape, std::int64_t* const* slot, int n) {
    const std::vector<Tape_op>& ops = tape.tape().ops();
    lane_clones().front().fixed(ops.data(), ops.size(), slot, n, tape.wrap(),
                                tape.frac_bits(), tape.fixed_one());
}

namespace {

const Compiled_program& program_of(const Compiled_program& tape) { return tape; }
const Compiled_program& program_of(const Fixed_tape& tape) { return tape.tape(); }
double constant_word(const Compiled_program& tape, std::size_t i) {
    return tape.constants()[i].value;
}
std::int64_t constant_word(const Fixed_tape& tape, std::size_t i) {
    return tape.constant_raw()[i];
}

}  // namespace

template <class Tape>
void Lane_block<Tape>::bind(const Tape& tape, std::size_t stride) {
    const Compiled_program& cp = program_of(tape);
    const auto slots = static_cast<std::size_t>(cp.slot_count());
    if (lanes_.size() < slots * stride + kLineWords - 1) {
        lanes_.resize(slots * stride + kLineWords - 1);
        const auto address = reinterpret_cast<std::uintptr_t>(lanes_.data());
        offset_ = (64 - address % 64) % 64 / sizeof(Value);
    }
    stride_ = stride;
    slot_.resize(slots);
    for (std::size_t s = 0; s < slots; ++s) slot_[s] = span(static_cast<std::int32_t>(s));
    const std::vector<Tape_constant>& constants = cp.constants();
    for (std::size_t i = 0; i < constants.size(); ++i) {
        Value* dst = slot_[static_cast<std::size_t>(constants[i].slot)];
        std::fill(dst, dst + stride, constant_word(tape, i));
    }
}

template class Lane_block<Compiled_program>;
template class Lane_block<Fixed_tape>;

const char* tape_lane_isa() { return lane_clones().front().isa; }

}  // namespace islhls
