#include "estimate/throughput_model.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

Throughput_estimate estimate_throughput(const std::vector<Level_load>& levels,
                                        const std::map<int, int>& cores_per_depth,
                                        long long windows_per_frame,
                                        double offchip_elems_per_window,
                                        double f_max_mhz,
                                        double offchip_elems_per_cycle,
                                        const Throughput_params& params) {
    check_internal(!levels.empty(), "estimate_throughput: empty level structure");
    check_internal(windows_per_frame > 0, "estimate_throughput: no windows");
    check_internal(f_max_mhz > 0.0, "estimate_throughput: f_max must be positive");

    Throughput_estimate est;

    // 1. Core bound: levels of the same depth class share that class's cores,
    //    so their occupancies accumulate; distinct classes work on different
    //    in-flight windows and the slowest class is the station bottleneck.
    double total_reads = 0.0;
    for (const Level_load& level : levels) {
        const auto it = cores_per_depth.find(level.depth);
        check_internal(it != cores_per_depth.end() && it->second > 0,
                       "no cores allocated for depth ", level.depth);
        const double occupancy_per_exec = std::max(
            1.0, std::ceil(static_cast<double>(level.cone_inputs) /
                           params.core_read_ports));
        est.class_cycles[level.depth] +=
            static_cast<double>(level.executions) * occupancy_per_exec /
            static_cast<double>(it->second);
        total_reads +=
            static_cast<double>(level.executions) * static_cast<double>(level.cone_inputs);
    }
    // Distinct classes serialize through the shared level buffers within a
    // window pass (sum, not max), and every extra class costs a drain.
    double core_bound = 0.0;
    for (const auto& [depth, cycles] : est.class_cycles) core_bound += cycles;
    core_bound += params.class_switch_cycles *
                  static_cast<double>(est.class_cycles.size() - 1);
    est.core_bound_cycles = core_bound;

    // 2. Shared on-chip read bandwidth.
    est.onchip_bound_cycles = total_reads / params.global_read_ports;

    // 3. Off-chip transfers for the window's initial halo and result.
    est.offchip_bound_cycles =
        offchip_elems_per_window * params.offchip_write_cost / offchip_elems_per_cycle;

    est.cycles_per_window = std::max(
        {est.core_bound_cycles, est.onchip_bound_cycles, est.offchip_bound_cycles});
    est.bottleneck = est.cycles_per_window == est.core_bound_cycles ? "core"
                     : est.cycles_per_window == est.onchip_bound_cycles ? "onchip"
                                                                        : "offchip";

    const double cycles_per_frame =
        est.cycles_per_window * static_cast<double>(windows_per_frame);
    est.seconds_per_frame = cycles_per_frame / (f_max_mhz * 1e6);
    est.fps = est.seconds_per_frame > 0.0 ? 1.0 / est.seconds_per_frame : 0.0;
    return est;
}

}  // namespace islhls
