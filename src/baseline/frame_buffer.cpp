#include "baseline/frame_buffer.hpp"

#include <algorithm>
#include <cmath>

#include "ir/program.hpp"
#include "synth/synthesizer.hpp"

namespace islhls {

Frame_buffer_estimate estimate_frame_buffer(const Stencil_step& step, int iterations,
                                            int frame_width, int frame_height,
                                            const Fpga_device& device,
                                            const Frame_buffer_options& options) {
    Frame_buffer_estimate est;

    const Register_program program = build_program(step.pool(), step.updates());
    Synth_options synth_options;
    synth_options.format = options.format;
    const Synthesis_report pe =
        synthesize_program(program.compiled(), "frame_buffer_pe", device, synth_options);
    est.f_max_mhz = pe.f_max_mhz;

    const double fields = step.pool().field_count();
    est.onchip_kbits_needed = 2.0 * frame_width * frame_height * fields *
                              options.buffer_bits_per_element / 1024.0;
    est.frame_fits_onchip =
        est.onchip_kbits_needed <= static_cast<double>(device.bram_kbits);

    const double reads_per_element = program.input_count();
    double cycles_per_element = 0.0;
    if (est.frame_fits_onchip) {
        // Dual-port BRAM: two reads per cycle per buffer, pipelined compute.
        cycles_per_element = std::max(1.0, reads_per_element / 2.0) /
                             std::max(1, options.parallel_elements);
    } else {
        // Each stencil read is an external access; writes too. No reuse
        // across neighbouring elements (the paper's un-analyzed dependency
        // case), so performance is transfer-bound.
        cycles_per_element =
            (reads_per_element + 1.0) * options.offchip_access_cycles /
            std::max(1, options.parallel_elements);
    }
    est.cycles_per_element = cycles_per_element;

    const double elements = static_cast<double>(frame_width) * frame_height;
    const double cycles_per_frame = elements * cycles_per_element * iterations;
    est.seconds_per_frame = cycles_per_frame / (est.f_max_mhz * 1e6);
    est.fps = est.seconds_per_frame > 0 ? 1.0 / est.seconds_per_frame : 0.0;
    return est;
}

}  // namespace islhls
