// Helpers shared by the sim_frames workload and the digest self-test.
#pragma once

#include <cstdint>
#include <string>

#include "backend/fixed_point.hpp"
#include "grid/frame_set.hpp"
#include "sim/exec_engine.hpp"

namespace islbench {

// Iterations every sim_frames cell advances (N = 8).
constexpr int kSimIterations = 8;

std::string hex64(std::uint64_t value);

// The fixed-point format of a kernel's fixed cells.
islhls::Fixed_format cell_format(const std::string& kernel);

// Seeded smooth test scene (the shape of make_synthetic_scene: six Gaussian
// blobs over a flat 64 plus noise, clipped to [0, 255]), built from
// separable blob factors so a 2048x1024 frame takes milliseconds.
islhls::Frame bench_scene(int width, int height, std::uint64_t seed);

// The seeded initial frames of one cell.
islhls::Frame_set cell_initial(const std::string& kernel, int width, int height,
                               int variant);

// fnv1a64 over the per-field fnv1a64 hashes of an output, fields in the
// engine's canonical order (double bit patterns or raw Qm.f words).
std::uint64_t output_digest(const islhls::Frame_set& frames);
std::uint64_t output_digest(const islhls::Fixed_frame_result& frames);

}  // namespace islbench
