#include "support/numeric.hpp"

#include <cmath>

#include "support/error.hpp"

namespace islhls {

std::vector<int> divisors(int n) {
    check_internal(n >= 1, "divisors() requires n >= 1");
    std::vector<int> small;
    std::vector<int> large;
    for (int d = 1; static_cast<long long>(d) * d <= n; ++d) {
        if (n % d != 0) continue;
        small.push_back(d);
        if (d != n / d) large.push_back(n / d);
    }
    for (auto it = large.rbegin(); it != large.rend(); ++it) small.push_back(*it);
    return small;
}

namespace {

void partitions_rec(int remaining, int max_part, const std::vector<int>& parts,
                    std::vector<int>& current,
                    std::vector<std::vector<int>>& out) {
    if (remaining == 0) {
        out.push_back(current);
        return;
    }
    // Parts are tried in descending order so sequences are non-increasing.
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
        const int p = *it;
        if (p <= 0 || p > remaining || p > max_part) continue;
        current.push_back(p);
        partitions_rec(remaining - p, p, parts, current, out);
        current.pop_back();
    }
}

}  // namespace

std::vector<std::vector<int>> partitions_into(int n, const std::vector<int>& parts) {
    std::vector<std::vector<int>> out;
    std::vector<int> current;
    partitions_rec(n, n, parts, current, out);
    return out;
}

double fit_through_origin(const std::vector<double>& xs, const std::vector<double>& ys) {
    check_internal(xs.size() == ys.size(), "fit_through_origin() size mismatch");
    double sum_xx = 0.0, sum_xy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sum_xx += xs[i] * xs[i];
        sum_xy += xs[i] * ys[i];
    }
    check_internal(sum_xx > 0.0, "fit_through_origin() needs a nonzero x");
    return sum_xy / sum_xx;
}

double relative_error(double value, double reference) {
    const double diff = std::fabs(value - reference);
    if (reference == 0.0) return diff;
    return diff / std::fabs(reference);
}

std::uint64_t hash_mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
    return hash_mix(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

double hash_to_unit(std::uint64_t h) {
    // Take the top 53 bits for a uniform double in [0,1).
    return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace islhls
