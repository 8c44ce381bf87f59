#include "sim/tape_lanes.hpp"

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
#endif

namespace islhls {

namespace lanes_base {
#define ISLHLS_LANE_ATTR
#include "sim/tape_lanes_body.inc"
#undef ISLHLS_LANE_ATTR
}  // namespace lanes_base

#if defined(ISLHLS_LANE_MULTIARCH)
namespace lanes_avx2 {
#define ISLHLS_LANE_ATTR __attribute__((target("avx2")))
#include "sim/tape_lanes_body.inc"
#undef ISLHLS_LANE_ATTR
}  // namespace lanes_avx2

namespace lanes_avx512 {
// DQ provides the vector 64-bit multiply (vpmullq), VL the 128/256-bit
// forms of the EVEX ops the tail loops want.
#define ISLHLS_LANE_ATTR \
    __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw")))
#include "sim/tape_lanes_body.inc"
#undef ISLHLS_LANE_ATTR
}  // namespace lanes_avx512
#endif  // ISLHLS_LANE_MULTIARCH

namespace {

using Fixed_tape_fn = void (*)(const Tape_op*, std::size_t, std::int64_t* const*, int,
                               const Bit_wrap&, int, std::int64_t);
using Double_tape_fn = void (*)(const Tape_op*, std::size_t, double* const*, int);

struct Lane_dispatch {
    Fixed_tape_fn fixed;
    Double_tape_fn dbl;
    const char* isa;
};

Lane_dispatch resolve_lane_dispatch() {
#if defined(ISLHLS_LANE_MULTIARCH)
    if (__builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512bw")) {
        return {&lanes_avx512::fixed_tape, &lanes_avx512::double_tape, "avx512"};
    }
    if (__builtin_cpu_supports("avx2")) {
        return {&lanes_avx2::fixed_tape, &lanes_avx2::double_tape, "avx2"};
    }
#endif
    return {&lanes_base::fixed_tape, &lanes_base::double_tape, "default"};
}

const Lane_dispatch& lane_dispatch() {
    // Magic statics: resolved exactly once, thread-safe.
    static const Lane_dispatch dispatch = resolve_lane_dispatch();
    return dispatch;
}

}  // namespace

void run_tape(const Tape_op* ops, std::size_t count, double* const* slot, int n) {
    lane_dispatch().dbl(ops, count, slot, n);
}

void run_tape(const Tape_op* ops, std::size_t count, std::int64_t* const* slot, int n,
              const Bit_wrap& wrap, int frac, std::int64_t fixed_one) {
    lane_dispatch().fixed(ops, count, slot, n, wrap, frac, fixed_one);
}

const char* tape_lane_isa() { return lane_dispatch().isa; }

}  // namespace islhls
