// Lane-walk special values through every ISA clone the host can execute,
// and the 64-byte alignment of Lane_block spans.
//
// run_tape only ever reaches the widest clone, so the engine tests never
// run the narrower ones on a wide host. Here each clone of lane_clones()
// runs min, max, sqrt and div in both domains over IEEE special values and
// fixed operands around the double fast path's 2^52 bound (the edges of
// its exact int64 <-> double conversions included), on unaligned spans,
// for a full block and every tail length; every lane's raw word must equal
// the scalar reference (apply_op / apply_op_fixed), NaN sign and payload
// included, and no lane past n may be written.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "cone/cone.hpp"
#include "ir/compiled.hpp"
#include "kernels/kernels.hpp"
#include "oracle/reference.hpp"
#include "sim/tape_lanes.hpp"
#include "symexec/executor.hpp"

namespace islhls {
namespace {

constexpr Op_kind kOps[] = {Op_kind::min_op, Op_kind::max_op, Op_kind::sqrt_op,
                            Op_kind::div};

// One op on a three-slot tape: slots 0 and 1 are the operands, 2 the result.
Tape_op op_of(Op_kind kind) {
    Tape_op op;
    op.kind = kind;
    op.dest = 2;
    op.src = {0, 1, -1};
    op.src_count = kind == Op_kind::sqrt_op ? 1 : 2;
    return op;
}

template <class Word>
Word word_of(std::uint64_t bits) {
    Word w;
    std::memcpy(&w, &bits, sizeof w);
    return w;
}

template <class Word>
std::uint64_t bits_of(Word w) {
    std::uint64_t bits;
    std::memcpy(&bits, &w, sizeof bits);
    return bits;
}

// Runs `walk` over every (a, b) pair of `values`, n lanes at a time for
// every n in 1..kTapeLane, with all three spans one word past a 64-byte
// boundary, and compares each lane with `reference(a, b)` bit for bit. The
// word after lane n - 1 is a sentinel the walk must leave alone.
template <class Word, class Walk, class Reference>
void expect_lanes_match(const std::vector<Word>& values, Walk walk, Reference reference) {
    std::vector<std::array<Word, 2>> pairs;
    for (const Word a : values) {
        for (const Word b : values) pairs.push_back({a, b});
    }
    constexpr std::uint64_t kSentinel = 0x5A5A5A5A5A5A5A5AULL;
    alignas(64) Word a_lanes[kTapeLane + 2];
    alignas(64) Word b_lanes[kTapeLane + 2];
    alignas(64) Word d_lanes[kTapeLane + 2];
    Word* const slot[3] = {a_lanes + 1, b_lanes + 1, d_lanes + 1};
    for (int n = 1; n <= kTapeLane; ++n) {
        for (std::size_t first = 0; first < pairs.size(); first += static_cast<std::size_t>(n)) {
            for (int l = 0; l <= n; ++l) {
                const std::array<Word, 2>& p = pairs[(first + static_cast<std::size_t>(l)) %
                                                     pairs.size()];
                slot[0][l] = p[0];
                slot[1][l] = p[1];
                slot[2][l] = word_of<Word>(kSentinel);
            }
            walk(slot, n);
            for (int l = 0; l < n; ++l) {
                const Word expect = reference(slot[0][l], slot[1][l]);
                ASSERT_EQ(bits_of(slot[2][l]), bits_of(expect))
                    << "n " << n << " lane " << l << ": a bits " << std::hex
                    << bits_of(slot[0][l]) << " b bits " << bits_of(slot[1][l]);
            }
            ASSERT_EQ(bits_of(slot[2][n]), kSentinel) << "n " << n << " wrote lane n";
        }
    }
}

TEST(Lane_clones, the_widest_clone_is_the_one_run_tape_uses) {
    ASSERT_FALSE(lane_clones().empty());
    EXPECT_STREQ(lane_clones().front().isa, tape_lane_isa());
    EXPECT_STREQ(lane_clones().back().isa, "default");
}

TEST(Lane_clones, double_special_values_match_apply_op_bit_for_bit) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::vector<double> values = {
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -4.0,
        1e300,
        kInf,
        -kInf,
        word_of<double>(0x7FF8000000000000ULL),  // +qNaN
        word_of<double>(0xFFF8000000000000ULL),  // -qNaN (the default NaN)
        word_of<double>(0x7FF8000000000123ULL),  // payload NaNs
        word_of<double>(0xFFFC0000000ABCDEULL),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        word_of<double>(0x000FFFFFFFFFFFFFULL),  // largest subnormal
        -std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
    };
    for (const Lane_clone& clone : lane_clones()) {
        for (const Op_kind kind : kOps) {
            SCOPED_TRACE(std::string(clone.isa) + " " + to_string(kind));
            const Tape_op op = op_of(kind);
            expect_lanes_match<double>(
                values, [&](double* const* slot, int n) { clone.dbl(&op, 1, slot, n, nullptr); },
                [&](double a, double b) {
                    const double operands[2] = {a, b};
                    return apply_op(kind, operands);
                });
        }
    }
}

TEST(Lane_clones, fixed_special_values_match_apply_op_fixed_bit_for_bit) {
    // Formats from the 2-bit-fraction narrow one to Q62.0, whose raw words
    // reach past 2^52 without a shift.
    const Fixed_format formats[] = {{3, 2}, {10, 6}, {31, 30}, {40, 20}, {62, 0}};
    for (const Fixed_format& fmt : formats) {
        const Bit_wrap wrap(fmt.total_bits());
        const int frac = fmt.frac_bits;
        const std::int64_t one = wrap(std::int64_t{1} << frac);
        // a << frac on both sides of 2^52 (the double fast path's bound),
        // shifts that wrap negative, perfect squares around 2^52, divisors
        // past 2^53, and raw words at 2^51, 2^52, 2^52 + 1 and 2^53, so Q62.0
        // puts both num and the divisor on each edge of the exact
        // conversion range; every word wrapped into the format.
        const std::int64_t edge = (std::int64_t{1} << 52) >> frac;
        const auto wraps =
            static_cast<std::int64_t>((std::uint64_t{1} << (63 - frac)) + 3);
        const std::int64_t root = std::int64_t{1} << 26;
        std::vector<std::int64_t> values;
        for (const std::int64_t v :
             {std::int64_t{0}, std::int64_t{1}, std::int64_t{2}, std::int64_t{7}, edge - 1, edge,
              edge + 1, wraps, root * root - 1, root * root + 1, (std::int64_t{1} << 53) + 1,
              std::int64_t{1} << 60, std::int64_t{1} << 51, std::int64_t{1} << 52,
              (std::int64_t{1} << 52) + 1, std::int64_t{1} << 53}) {
            values.push_back(wrap(v));
            values.push_back(wrap(-v));
        }
        for (const Lane_clone& clone : lane_clones()) {
            for (const Op_kind kind : kOps) {
                SCOPED_TRACE(std::string(clone.isa) + " " + to_string(kind) + " " +
                             to_string(fmt));
                const Tape_op op = op_of(kind);
                expect_lanes_match<std::int64_t>(
                    values,
                    [&](std::int64_t* const* slot, int n) {
                        clone.fixed(&op, 1, slot, n, wrap, frac, one);
                    },
                    [&](std::int64_t a, std::int64_t b) {
                        const std::int64_t operands[2] = {a, b};
                        return apply_op_fixed(kind, operands, wrap, frac, one);
                    });
            }
        }
    }
}

template <class Tape>
void expect_spans_aligned(Lane_block<Tape>& block, const Tape& tape, int slots) {
    for (int n = 1; n <= kTapeLane; ++n) {
        block.bind(tape, lane_stride(static_cast<std::size_t>(n)));
        for (std::int32_t s = 0; s < slots; ++s) {
            ASSERT_EQ(reinterpret_cast<std::uintptr_t>(block.span(s)) % 64, 0u)
                << "n " << n << " slot " << s;
            ASSERT_EQ(block.slot()[s], block.span(s));
        }
    }
}

// Every span starts on a cache line for every lane_stride, also after a
// rebind to a larger tape regrows the block.
TEST(Lane_block, every_span_is_64_byte_aligned) {
    Stencil_step step = extract_stencil(kernel_by_name("heat").c_source);
    const Cone small(step, Cone_spec{1, 1, 1});
    const Cone large(step, Cone_spec{4, 4, 3});
    const Compiled_program& small_tape = small.tape();
    const Compiled_program& large_tape = large.tape();
    ASSERT_LT(small_tape.slot_count(), large_tape.slot_count());

    Lane_block<Compiled_program> block;
    expect_spans_aligned(block, small_tape, small_tape.slot_count());
    expect_spans_aligned(block, large_tape, large_tape.slot_count());

    const Fixed_format fmt{10, 6};
    const Fixed_tape small_fixed(small_tape, fmt);
    const Fixed_tape large_fixed(large_tape, fmt);
    Lane_block<Fixed_tape> fixed_block(small_fixed, lane_stride(1));
    expect_spans_aligned(fixed_block, small_fixed, small_tape.slot_count());
    expect_spans_aligned(fixed_block, large_fixed, large_tape.slot_count());
}

}  // namespace
}  // namespace islhls
