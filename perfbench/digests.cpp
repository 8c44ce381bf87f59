// sim_frames cells, their seeded inputs and the golden digests the frame
// engine's outputs must match.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "bench.hpp"
#include "digests.hpp"
#include "kernels/kernels.hpp"
#include "sim/golden.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "support/result_cache.hpp"
#include "support/text.hpp"
#include "symexec/executor.hpp"

namespace islbench {

using namespace islhls;

namespace {

std::uint64_t fnv_of(const void* data, std::size_t bytes) {
    return fnv1a64(std::string_view(static_cast<const char*>(data), bytes));
}

// Folds per-field hashes into one digest: fnv1a64 over their hex strings.
std::uint64_t fold(const std::vector<std::uint64_t>& field_hashes) {
    std::string joined;
    for (std::uint64_t h : field_hashes) joined += hex64(h);
    return fnv1a64(joined);
}

struct Committed {
    const char* cell;
    int variant;
    std::uint64_t digest;
};

// Derived once with `islbench --derive-digests` (reference interpreters).
constexpr Committed kCommitted[] = {
#include "digests.inc"
};

}  // namespace

std::string hex64(std::uint64_t value) {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

int scene_variant(std::uint64_t seed) {
    return static_cast<int>(seed % kSceneVariants);
}

std::vector<Digest_cell> sim_cells() {
    std::vector<Digest_cell> cells;
    for (const char* kernel : {"heat", "igf", "chambolle", "fdtd", "conway"}) {
        for (const auto& [w, h] : {std::pair{256, 192}, std::pair{2048, 1024}}) {
            for (bool fixed : {false, true}) cells.push_back({kernel, w, h, fixed});
        }
    }
    return cells;
}

std::string cell_name(const Digest_cell& cell) {
    return cat(cell.fixed ? "fixed" : "double", ".", cell.kernel, ".", cell.width,
               "x", cell.height);
}

Fixed_format cell_format(const std::string& kernel) {
    // Q10.6 for the real-valued kernels, Q5.0 for the integer-native one.
    return kernel == "conway" ? Fixed_format{5, 0} : Fixed_format{10, 6};
}

Frame bench_scene(int width, int height, std::uint64_t seed) {
    Frame f(width, height, 64.0);
    Prng rng(seed);
    std::vector<double> gx(static_cast<std::size_t>(width));
    std::vector<double> gy(static_cast<std::size_t>(height));
    // Factors below 1e-150 are flushed to zero so no product goes subnormal.
    auto gauss = [](double d, double sigma) {
        const double t = d * d / (2 * sigma * sigma);
        return t > 345.0 ? 0.0 : std::exp(-t);
    };
    for (int b = 0; b < 6; ++b) {
        const double cx = rng.next_in(0.0, width);
        const double cy = rng.next_in(0.0, height);
        const double sigma = rng.next_in(width / 16.0 + 1.0, width / 4.0 + 2.0);
        const double amp = rng.next_in(30.0, 120.0);
        for (int x = 0; x < width; ++x) gx[static_cast<std::size_t>(x)] = gauss(x - cx, sigma);
        for (int y = 0; y < height; ++y) gy[static_cast<std::size_t>(y)] = gauss(y - cy, sigma);
        double* row = f.data().data();
        for (int y = 0; y < height; ++y, row += width) {
            for (int x = 0; x < width; ++x) {
                row[x] += amp * gx[static_cast<std::size_t>(x)] *
                          gy[static_cast<std::size_t>(y)];
            }
        }
    }
    for (double& v : f.data()) {
        v += rng.next_gaussian() * 2.0;
        v = std::min(255.0, std::max(0.0, v));
    }
    return f;
}

Frame_set cell_initial(const std::string& kernel, int width, int height,
                       int variant) {
    return kernel_by_name(kernel).make_initial(
        bench_scene(width, height, 7919 + static_cast<std::uint64_t>(variant)));
}

std::uint64_t output_digest(const Frame_set& frames) {
    std::vector<std::uint64_t> hashes;
    for (std::size_t i = 0; i < frames.field_count(); ++i) {
        const std::vector<double>& data = frames.frame_at(i).data();
        hashes.push_back(fnv_of(data.data(), data.size() * sizeof(double)));
    }
    return fold(hashes);
}

std::uint64_t output_digest(const Fixed_frame_result& frames) {
    std::vector<std::uint64_t> hashes;
    for (const std::vector<std::int64_t>& raw : frames.raw) {
        hashes.push_back(fnv_of(raw.data(), raw.size() * sizeof(std::int64_t)));
    }
    return fold(hashes);
}

std::uint64_t reference_digest(const Digest_cell& cell, int variant) {
    const Kernel_def& def = kernel_by_name(cell.kernel);
    const Stencil_step step = extract_stencil(def.c_source);
    const Frame_set initial = cell_initial(cell.kernel, cell.width, cell.height, variant);
    if (cell.fixed) {
        return output_digest(run_ir_fixed_reference(step, initial, kSimIterations,
                                                    def.boundary,
                                                    cell_format(cell.kernel)));
    }
    return output_digest(run_ir_reference(step, initial, kSimIterations, def.boundary));
}

std::uint64_t committed_digest(const Digest_cell& cell, int variant) {
    const std::string name = cell_name(cell);
    for (const Committed& c : kCommitted) {
        if (c.variant == variant && name == c.cell) return c.digest;
    }
    throw Guard_error(cat("no committed digest for ", name, " variant ", variant));
}

}  // namespace islbench
