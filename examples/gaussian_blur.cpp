// IGF end to end: the paper's first case study as an application.
//
// Blurs a synthetic camera frame with 10 iterations of the 3x3 binomial
// kernel, three ways:
//   1. golden software reference (ghost semantics),
//   2. the generated cone architecture, simulated functionally (must match
//      the golden bit for bit),
//   3. the same architecture under Q14.6 fixed-point quantization (PSNR
//      reported), which is what the emitted VHDL computes.
// The architecture is the Virtex-6 device fit of a one-kernel
// Sweep_service request; the example finally writes the winning cone's VHDL
// next to the output images.
#include <fstream>
#include <iostream>

#include "backend/vhdl.hpp"
#include "core/service.hpp"
#include "grid/frame_io.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "sim/arch_sim.hpp"
#include "sim/golden.hpp"
#include "support/text.hpp"

int main() {
    using namespace islhls;

    Sweep_config config;
    config.kernels = {"igf"};
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {10};
    config.frame_width = 256;  // simulation-friendly frame
    config.frame_height = 192;

    const Kernel_def& kernel = kernel_by_name("igf");
    Sweep_service service;
    Cone_library& library = service.library(kernel.name);
    std::cout << describe(library) << "\n";

    // Workload.
    const int iterations = config.iteration_counts.front();
    const Frame scene = make_synthetic_scene(config.frame_width, config.frame_height,
                                             2026);
    const Frame_set initial = kernel.make_initial(scene);
    save_pgm(scene, "igf_input.pgm");

    // 1. Golden reference.
    const Frame_set golden =
        run_ghost_ir(library.step(), initial, iterations, kernel.boundary);

    // 2. Architecture simulation (best device fit, a one-kernel request).
    const Sweep_entry fit = service.run(config).entries.front();
    std::cout << "device fit: " << to_string(fit.best.instance) << " -> "
              << format_fixed(fit.best.throughput.fps, 1) << " fps estimated\n";
    Arch_instance instance = fit.best.instance;
    const Arch_sim_result sim = simulate_architecture(library, instance, initial, {});
    const double exact_diff = max_abs_diff(sim.final_state.field("u"),
                                           golden.field("u"));
    std::cout << "architecture vs golden max |diff| = " << exact_diff
              << (exact_diff == 0.0 ? "  (bit exact)" : "  (MISMATCH!)") << "\n";

    // 3. Fixed-point run.
    Arch_sim_options fx;
    fx.fixed_point = true;
    fx.format = Fixed_format{14, 6};
    const Arch_sim_result fixed =
        simulate_architecture(library, instance, initial, fx);
    std::cout << "fixed-point " << to_string(fx.format) << " PSNR vs golden = "
              << format_fixed(psnr(golden.field("u"), fixed.final_state.field("u")), 1)
              << " dB\n";
    save_pgm(fixed.final_state.field("u"), "igf_blurred.pgm");

    // Transfer statistics vs the naive approach.
    const long long elems = static_cast<long long>(config.frame_width) *
                            config.frame_height;
    std::cout << "off-chip reads: " << sim.stats.offchip_elements_read
              << " elements (" << format_fixed(static_cast<double>(
                                                   sim.stats.offchip_elements_read) /
                                                   (elems * iterations),
                                               2)
              << "x of the per-iteration streaming volume)\n";

    // VHDL artifacts.
    std::ofstream vhdl("igf_cone.vhdl");
    vhdl << emit_support_package() << "\n"
         << emit_cone(library.cone(instance.window, instance.level_depths.front()),
                      kernel.name);
    std::cout << "wrote igf_input.pgm, igf_blurred.pgm, igf_cone.vhdl\n";
    return 0;
}
