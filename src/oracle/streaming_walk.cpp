#include "oracle/streaming_walk.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/numeric.hpp"

namespace islhls {

Streaming_sim_result simulate_streaming_cycles(
    Cone_library& library, const Streaming_config& config, int frame_width,
    int frame_height, const Streaming_sim_options& options) {
    check_internal(config.depth >= 1 && config.vector_width >= 1 &&
                       config.pe_count >= 1 && config.channels >= 1,
                   "malformed streaming config");
    check_internal(frame_width >= 1 && frame_height >= 1 &&
                       options.iterations >= 1 && options.elems_per_cycle > 0.0,
                   "malformed streaming sim options");

    // The PE datapath is the fused depth-`depth` cone over one output column;
    // its levelized depth is the pipeline fill the walk charges per band.
    const Cone_stats& stats = library.stats(1, config.depth);
    const Footprint footprint = library.step().footprint();
    const int halo_up = footprint.up * config.depth;
    const int halo_down = footprint.down * config.depth;

    Streaming_sim_result result;
    result.passes = ceil_div(options.iterations, config.depth);
    const int nominal_band = ceil_div(frame_height, config.pe_count);

    for (int pass = 0; pass < result.passes; ++pass) {
        long long slowest_band = 0;
        long long elements_read = 0;
        for (int band = 0; band < config.pe_count; ++band) {
            const int row_start = band * nominal_band;
            const int row_end = std::min(frame_height, row_start + nominal_band);
            if (row_start >= row_end) continue;
            // Halos clamp exactly at the frame boundary — edge bands stream
            // fewer extra rows than interior ones.
            const int halo_above = std::min(row_start, halo_up);
            const int halo_below = std::min(frame_height - row_end, halo_down);
            const int streamed_rows = (row_end - row_start) + halo_above + halo_below;
            // Each row enters the PE in vector groups, one group per cycle;
            // the band drains after the pipeline fill.
            long long band_cycles = 0;
            for (int row = 0; row < streamed_rows; ++row) {
                band_cycles += ceil_div(frame_width, config.vector_width);
            }
            band_cycles += stats.pipeline_depth;
            slowest_band = std::max(slowest_band, band_cycles);
            elements_read += static_cast<long long>(streamed_rows) * frame_width *
                             options.fields_in;
            result.stats.cone_executions +=
                static_cast<long long>(streamed_rows) *
                ceil_div(frame_width, config.vector_width);
        }
        const long long elements_written =
            static_cast<long long>(frame_height) * frame_width * options.fields_out;
        const long long transfer_cycles = static_cast<long long>(
            std::ceil(static_cast<double>(elements_read + elements_written) /
                      options.elems_per_cycle));
        result.compute_cycles += slowest_band;
        result.memory_cycles += transfer_cycles;
        result.total_cycles += std::max(slowest_band, transfer_cycles);
        result.stats.offchip_elements_read += elements_read;
        result.stats.offchip_elements_written += elements_written;
        result.stats.output_windows += 1;
    }
    result.stats.operations_executed =
        result.stats.cone_executions *
        static_cast<long long>(stats.register_count) * config.vector_width;
    return result;
}

}  // namespace islhls
