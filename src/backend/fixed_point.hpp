// Fixed-point number formats for the generated hardware.
//
// The VHDL backend and the virtual synthesizer agree on a signed Qm.f format
// (m integer bits including sign, f fraction bits). The simulator can run
// cones under quantization to measure the accuracy cost of a format choice.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

namespace islhls {

struct Fixed_format {
    int integer_bits = 10;  // includes the sign bit
    int frac_bits = 6;

    int total_bits() const { return integer_bits + frac_bits; }
    double scale() const;        // 2^frac_bits
    double max_value() const;    // largest representable value
    double min_value() const;    // smallest (most negative) representable value
    double resolution() const;   // value of one LSB

    bool operator==(const Fixed_format&) const = default;
};

std::string to_string(const Fixed_format& fmt);

// Rounds to the nearest representable value, saturating at the range ends.
double quantize(double value, const Fixed_format& fmt);

// Raw two's-complement integer for `value` (saturating).
std::int64_t to_raw(double value, const Fixed_format& fmt);

// Value of a raw integer in the format.
double from_raw(std::int64_t raw, const Fixed_format& fmt);

// Raw conversion with the format constants (scale, saturation bounds)
// resolved once, for loops that quantize whole sample buffers: one
// multiply-round-clamp per element instead of recomputing 2^f per call.
// operator() is bit-identical to to_raw (to_raw is implemented over it).
class Raw_quantizer {
public:
    explicit Raw_quantizer(const Fixed_format& fmt);  // checks 2..62 bits

    std::int64_t operator()(double value) const {
        // Saturating: a word past either end converts the bound itself.
        return static_cast<std::int64_t>(
            std::min(std::max(round_even(value * scale_), lo_), hi_));
    }

    // std::nearbyint under the default rounding mode (ties to even), which
    // x86-64's baseline ISA can only call into libm for: below 2^52, adding
    // 2^52 to |x| lands where the doubles are the integers and rounds |x|
    // to the nearest one (ties to even, as the parity of 2^52 + k is that
    // of k), subtracting it again is exact, and copysign restores the sign
    // (-0.25 rounds to -0.0). From 2^52 up every double is an integer, and
    // a NaN passes through as well.
    static double round_even(double x) {
        const double magnitude = std::fabs(x);
        return magnitude < 0x1p52 ? std::copysign((magnitude + 0x1p52) - 0x1p52, x) : x;
    }

private:
    double scale_ = 1.0;
    double hi_ = 0.0;
    double lo_ = 0.0;
    std::int64_t hi_raw_ = 0;
    std::int64_t lo_raw_ = 0;
};

// Precomputed wrap-around resize to one bit width (VHDL resize semantics).
// The width is validated once at construction; operator() is branch-light so
// the fixed-point tape loops can wrap every element without a per-call range
// check (wrap_to_bits below is the checked one-shot form).
class Bit_wrap {
public:
    explicit Bit_wrap(int bits);  // requires 2 <= bits <= 62

    int bits() const { return bits_; }

    std::int64_t operator()(std::int64_t v) const {
        // Branchless sign extension ((u ^ sign) - sign flips the sign bit
        // into a borrow), so wrapped operations stay one straight-line
        // expression inside the vectorized tape loops.
        const std::uint64_t u = static_cast<std::uint64_t>(v) & mask_;
        return static_cast<std::int64_t>((u ^ sign_) - sign_);
    }

private:
    int bits_ = 2;
    std::uint64_t mask_ = 0;
    std::uint64_t sign_ = 0;
};

// Wraps `v` into the two's-complement range of `bits` (VHDL resize semantics).
std::int64_t wrap_to_bits(std::int64_t v, int bits);

// The low 64 bits of a * b as a signed word: the product the fixed multiply
// shifts and wraps, defined even where the full product of two wide-format
// words overflows int64.
inline std::int64_t wrapping_mul(std::int64_t a, std::int64_t b) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

// Floor integer square root of a non-negative value.
std::int64_t isqrt_floor(std::int64_t v);

}  // namespace islhls
