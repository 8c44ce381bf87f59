#include "backend/fixed_point.hpp"

#include <bit>
#include <cmath>

#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

double Fixed_format::scale() const { return std::ldexp(1.0, frac_bits); }

double Fixed_format::max_value() const {
    return (std::ldexp(1.0, total_bits() - 1) - 1.0) / scale();
}

double Fixed_format::min_value() const {
    return -std::ldexp(1.0, total_bits() - 1) / scale();
}

double Fixed_format::resolution() const { return 1.0 / scale(); }

std::string to_string(const Fixed_format& fmt) {
    return cat("Q", fmt.integer_bits, ".", fmt.frac_bits);
}

double quantize(double value, const Fixed_format& fmt) {
    return from_raw(to_raw(value, fmt), fmt);
}

std::int64_t to_raw(double value, const Fixed_format& fmt) {
    return Raw_quantizer(fmt)(value);
}

Raw_quantizer::Raw_quantizer(const Fixed_format& fmt) {
    check_internal(fmt.total_bits() >= 2 && fmt.total_bits() <= 62,
                   "fixed format must have 2..62 bits");
    scale_ = fmt.scale();
    hi_ = std::ldexp(1.0, fmt.total_bits() - 1) - 1.0;
    lo_ = -std::ldexp(1.0, fmt.total_bits() - 1);
    hi_raw_ = static_cast<std::int64_t>(hi_);
    lo_raw_ = static_cast<std::int64_t>(lo_);
}

double from_raw(std::int64_t raw, const Fixed_format& fmt) {
    return static_cast<double>(raw) / fmt.scale();
}

Bit_wrap::Bit_wrap(int bits) : bits_(bits) {
    check_internal(bits >= 2 && bits <= 62, "Bit_wrap supports 2..62 bits");
    mask_ = (std::uint64_t{1} << bits) - 1;
    sign_ = std::uint64_t{1} << (bits - 1);
}

std::int64_t wrap_to_bits(std::int64_t v, int bits) { return Bit_wrap(bits)(v); }

std::int64_t isqrt_floor(std::int64_t v) {
    if (v <= 0) return 0;
    // Newton from above reaches floor(sqrt(v)) from any start at or above
    // it. 2^ceil(bits/2) is above sqrt(v) by less than a factor 2, so the
    // loop ends after a handful of divides.
    const int bits = std::bit_width(static_cast<std::uint64_t>(v));
    std::int64_t x = std::int64_t{1} << ((bits + 1) / 2);
    std::int64_t y = (x + v / x) / 2;
    while (y < x) {
        x = y;
        y = (x + v / x) / 2;
    }
    return x;
}

}  // namespace islhls
