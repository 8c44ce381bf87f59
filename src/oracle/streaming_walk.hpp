// Cycle-approximate walk of a streaming multi-PE configuration: the test
// oracle of the Streaming_backend's analytic throughput model
// (dse/streaming_backend.hpp).
//
// The walk runs the passes and row bands of the configuration cycle by
// cycle (rows stream through each PE in vector groups, halos clamp exactly
// at the frame edges, off-chip transfers cost ceil(elements / bandwidth)),
// without executing any arithmetic. The analytic model must stay within a
// gated tolerance of this walk on every kernel (tests/test_backends.cpp).
#pragma once

#include "dse/cone_library.hpp"
#include "dse/streaming_backend.hpp"
#include "sim/arch_sim.hpp"

namespace islhls {

struct Streaming_sim_options {
    int iterations = 1;   // N; the walk runs ceil(N / depth) passes
    int fields_in = 1;    // fields streamed in per element
    int fields_out = 1;   // state fields streamed back out
    // Total off-chip bandwidth of the configuration, elements per cycle
    // (device channel rate x Streaming_config::channels).
    double elems_per_cycle = 8.0;
};

struct Streaming_sim_result {
    int passes = 0;
    long long compute_cycles = 0;  // sum over passes of the slowest band
    long long memory_cycles = 0;   // sum over passes of the channel transfer
    long long total_cycles = 0;    // sum over passes of max(compute, memory)
    Transfer_stats stats;          // off-chip traffic of the walk
};

Streaming_sim_result simulate_streaming_cycles(
    Cone_library& library, const Streaming_config& config, int frame_width,
    int frame_height, const Streaming_sim_options& options);

}  // namespace islhls
