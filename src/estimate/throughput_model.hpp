// Throughput estimation (Sec. 3.3 of the paper): operator delays give the
// cone latency, core counts give the parallelism, and the architecture
// template's level structure gives the number of cone executions per output
// window. Three resources can bound a design:
//
//   1. cores    — each cone execution occupies a core for the cycles it takes
//                 to stream the cone's input window through the core's ports;
//   2. on-chip  — all executions share the global BRAM read bandwidth
//                 (shallow architectures re-read intermediate results every
//                 iteration and saturate this first — the paper's
//                 memory/performance conflict);
//   3. off-chip — the initial window (with its full N-iteration halo) is
//                 fetched from external memory once per output window, and
//                 the result written back.
//
// Time per output window is the max of the three; frame time multiplies by
// the window count. Depths that do not divide N need an extra remainder
// level whose distinct cone type competes for area — the paper's
// `missing_iterations` penalty visible in Figs. 7 and 10.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace islhls {

// Tunable resource parameters (defaults calibrated against the paper's
// Virtex-6 numbers; bench/ablation_params.cpp checks the claims' sensitivity
// to them).
struct Throughput_params {
    double core_read_ports = 8.0;        // elements/cycle into one cone core
    double global_read_ports = 32.0;     // total on-chip read elements/cycle
    double offchip_write_cost = 1.0;     // relative cost of result write-back
    // Pipeline drain + buffer turnover when a window pass hands over between
    // cone classes of different depths. Architectures whose depth divides N
    // use a single class and never pay it — the paper's "missing iterations"
    // penalty (Sec. 4.1).
    double class_switch_cycles = 120.0;
};

// One level of the architecture template, as the evaluator sees it.
struct Level_load {
    int depth = 0;                 // cone depth class used by this level
    long long executions = 0;      // cone runs needed per output window
    long long cone_inputs = 0;     // input elements per run
    int latency_cycles = 0;        // pipeline latency of the cone
};

struct Throughput_estimate {
    double cycles_per_window = 0.0;
    double core_bound_cycles = 0.0;
    double onchip_bound_cycles = 0.0;
    double offchip_bound_cycles = 0.0;
    std::string bottleneck;  // "core" | "onchip" | "offchip"
    double seconds_per_frame = 0.0;
    double fps = 0.0;
    // Occupancy cycles of each depth class (before the max over classes) —
    // what a core-allocation heuristic should grow next.
    std::map<int, double> class_cycles;
};

// Estimates the frame rate of an architecture instance.
//  `levels`            — deep-first level structure with per-level loads;
//  `cores_per_depth`   — how many cores of each depth class are instantiated;
//  `windows_per_frame` — number of output windows tiling the frame;
//  `offchip_elems_per_window` — external reads+writes per output window;
//  `f_max_mhz`         — design clock;
//  `offchip_elems_per_cycle`  — device external bandwidth.
Throughput_estimate estimate_throughput(const std::vector<Level_load>& levels,
                                        const std::map<int, int>& cores_per_depth,
                                        long long windows_per_frame,
                                        double offchip_elems_per_window,
                                        double f_max_mhz,
                                        double offchip_elems_per_cycle,
                                        const Throughput_params& params = {});

}  // namespace islhls
