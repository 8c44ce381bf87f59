// Numeric helpers: integer combinatorics used by the design space enumerator
// and least-squares fitting used by the area-model calibration.
#pragma once

#include <cstdint>
#include <vector>

namespace islhls {

// All positive divisors of n (n >= 1), ascending. divisors(10) = {1,2,5,10}.
std::vector<int> divisors(int n);

// Ceiling division for non-negative integers.
constexpr int ceil_div(int a, int b) { return (a + b - 1) / b; }

// All multisets (non-increasing sequences) of `n` into parts from `parts`:
// partitions_into(3, {1,2}) = {(2,1),(1,1,1)}. Used when level order is
// irrelevant for cost.
std::vector<std::vector<int>> partitions_into(int n, const std::vector<int>& parts);

// Fit of y ~ alpha * x through the origin (used for Eq. 1 alpha calibration
// in its through-origin variant). Requires at least one x != 0.
double fit_through_origin(const std::vector<double>& xs, const std::vector<double>& ys);

// Relative error |value - reference| / |reference|; returns |value - reference|
// when reference == 0.
double relative_error(double value, double reference);

// Deterministic 64-bit hash mix (SplitMix64 finalizer). Used to derive
// reproducible per-design perturbations in the virtual synthesizer.
std::uint64_t hash_mix(std::uint64_t x);

// Combines a hash state with a new value.
std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value);

// Maps a 64-bit hash to a double uniformly in [0,1).
double hash_to_unit(std::uint64_t h);

}  // namespace islhls
