#include "baseline/generic_hls.hpp"

#include <algorithm>
#include <cmath>

#include "baseline/frame_buffer.hpp"
#include "ir/program.hpp"
#include "support/error.hpp"
#include "support/text.hpp"
#include "synth/synthesizer.hpp"

namespace islhls {

std::string to_string(Hls_directive d) {
    switch (d) {
        case Hls_directive::none: return "none";
        case Hls_directive::unroll_inner: return "unroll_inner";
        case Hls_directive::array_partition: return "array_partition";
        case Hls_directive::pipeline_inner: return "pipeline_inner";
        case Hls_directive::partition_and_pipeline: return "partition_and_pipeline";
        case Hls_directive::loop_merge: return "loop_merge";
        case Hls_directive::flatten_and_pipeline: return "flatten_and_pipeline";
    }
    return "?";
}

Generic_hls_result run_generic_hls(const Stencil_step& step, int iterations,
                                   int frame_width, int frame_height,
                                   const Fpga_device& device, Hls_directive directive,
                                   const Generic_hls_options& options) {
    Generic_hls_result result;
    result.directive = directive;

    const Register_program program = build_program(step.pool(), step.updates());
    Synth_options synth_options;
    synth_options.format = options.format;
    const Synthesis_report pe =
        synthesize_program(program.compiled(), cat("generic_hls_", to_string(directive)),
                           device, synth_options);
    result.f_max_mhz = pe.f_max_mhz;
    result.lut_count = pe.lut_count;

    // --- failure modes ------------------------------------------------------------
    if (directive == Hls_directive::loop_merge) {
        // Merging the iteration loop with the spatial loops requires f(i+1)
        // elements to be computable before f(i) is complete — the tool's
        // dependence analysis rejects exactly this for ISL kernels.
        result.succeeded = false;
        result.failure =
            "loop merge rejected: carried dependency between iteration i and i+1 "
            "(each output element reads neighbours of the previous frame)";
        return result;
    }
    if (directive == Hls_directive::flatten_and_pipeline) {
        // Flattening N x H x W and pipelining asks the scheduler to hold the
        // whole unrolled dataflow graph: ops_per_element * H * W * N nodes.
        const double nodes = static_cast<double>(program.register_count()) *
                             frame_width * frame_height * iterations;
        const double bytes_per_node = 256.0;  // IR node + scheduling metadata
        const double needed_gb = nodes * bytes_per_node / (1024.0 * 1024.0 * 1024.0);
        if (needed_gb > options.host_memory_gb) {
            result.succeeded = false;
            result.failure = cat("out of memory while scheduling: ~",
                                 format_fixed(needed_gb, 0), " GB needed for ",
                                 format_grouped(static_cast<long long>(nodes)),
                                 " dataflow nodes, host has ",
                                 format_fixed(options.host_memory_gb, 0), " GB");
            return result;
        }
    }

    // --- performance of the succeeding configurations --------------------------------
    // All of them keep the two-frame-buffer structure; directives change the
    // inner-loop issue rate only.
    Frame_buffer_options fb;
    fb.format = options.format;
    const Frame_buffer_estimate base = estimate_frame_buffer(
        step, iterations, frame_width, frame_height, device, fb);

    double speedup = 1.0;
    switch (directive) {
        case Hls_directive::none:
            speedup = 1.0;
            break;
        case Hls_directive::unroll_inner:
            // Unrolling without partitioning fights over the two BRAM ports /
            // the external bus; modest gain.
            speedup = base.frame_fits_onchip ? 1.5 : 1.2;
            break;
        case Hls_directive::array_partition:
            // More banks help only the on-chip case.
            speedup = base.frame_fits_onchip ? options.partition_banks / 2.0 : 1.3;
            break;
        case Hls_directive::pipeline_inner:
            speedup = base.frame_fits_onchip ? 2.0 : 1.4;
            break;
        case Hls_directive::partition_and_pipeline:
            speedup = base.frame_fits_onchip
                          ? options.partition_banks
                          : 1.6;  // external accesses still serialize
            break;
        case Hls_directive::flatten_and_pipeline:
            speedup = base.frame_fits_onchip ? options.partition_banks : 1.6;
            break;
        case Hls_directive::loop_merge:
            break;  // unreachable
    }
    result.succeeded = true;
    result.seconds_per_frame = base.seconds_per_frame / speedup;
    result.fps = result.seconds_per_frame > 0 ? 1.0 / result.seconds_per_frame : 0.0;
    return result;
}

std::vector<Generic_hls_result> run_generic_hls_menu(
    const Stencil_step& step, int iterations, int frame_width, int frame_height,
    const Fpga_device& device, const Generic_hls_options& options) {
    std::vector<Generic_hls_result> menu;
    for (Hls_directive d :
         {Hls_directive::none, Hls_directive::unroll_inner, Hls_directive::array_partition,
          Hls_directive::pipeline_inner, Hls_directive::partition_and_pipeline,
          Hls_directive::loop_merge, Hls_directive::flatten_and_pipeline}) {
        menu.push_back(run_generic_hls(step, iterations, frame_width, frame_height,
                                       device, d, options));
    }
    return menu;
}

const Generic_hls_result& best_of(const std::vector<Generic_hls_result>& menu) {
    const Generic_hls_result* best = nullptr;
    for (const Generic_hls_result& r : menu) {
        if (!r.succeeded) continue;
        if (best == nullptr || r.fps > best->fps) best = &r;
    }
    if (best == nullptr) throw Dse_error("no generic HLS configuration succeeded");
    return *best;
}

}  // namespace islhls
