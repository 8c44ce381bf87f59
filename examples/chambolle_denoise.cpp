// Chambolle total-variation denoising: the paper's second case study.
//
// Runs the dual fixed-point iteration on a noisy image via the generated
// cone architecture (the device fit of a one-kernel Sweep_service
// request), recovers the primal (denoised) image
// u = g - lambda * div(p), and reports the total-variation decrease. Also
// demonstrates the flow on multi-field stencils (p1, p2 advance; g is a
// constant input).
#include <cmath>
#include <iostream>

#include "core/service.hpp"
#include "grid/frame_io.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "sim/arch_sim.hpp"
#include "support/text.hpp"

namespace {

using namespace islhls;

// Total variation (isotropic, forward differences, clamp boundary).
double total_variation(const Frame& u) {
    double tv = 0.0;
    for (int y = 0; y < u.height(); ++y) {
        for (int x = 0; x < u.width(); ++x) {
            const double gx = u.sample(x + 1, y, Boundary::clamp) - u.at(x, y);
            const double gy = u.sample(x, y + 1, Boundary::clamp) - u.at(x, y);
            tv += std::sqrt(gx * gx + gy * gy);
        }
    }
    return tv;
}

// Primal reconstruction u = g - lambda * div p (lambda = 8 as in the kernel).
Frame reconstruct(const Frame& g, const Frame& p1, const Frame& p2) {
    Frame u(g.width(), g.height());
    for (int y = 0; y < g.height(); ++y) {
        for (int x = 0; x < g.width(); ++x) {
            const double div = p1.at(x, y) - p1.sample(x - 1, y, Boundary::clamp) +
                               p2.at(x, y) - p2.sample(x, y - 1, Boundary::clamp);
            u.at(x, y) = g.at(x, y) - 8.0 * div;
        }
    }
    return u;
}

}  // namespace

int main() {
    Sweep_config config;
    config.kernels = {"chambolle"};
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {20};  // TV needs more fixed-point steps than blur
    config.frame_width = 192;
    config.frame_height = 144;
    config.space.max_depth = 4;

    const Kernel_def& kernel = kernel_by_name("chambolle");
    Sweep_service service;
    Cone_library& library = service.library(kernel.name);
    std::cout << describe(library) << "\n";

    // Clean scene + noise = the denoising workload.
    const Frame clean = make_synthetic_scene(config.frame_width, config.frame_height, 77);
    Frame noisy = clean;
    {
        const Frame noise = make_noise(config.frame_width, config.frame_height, 1234,
                                       -12.0, 12.0);
        for (std::size_t i = 0; i < noisy.data().size(); ++i) {
            noisy.data()[i] =
                std::min(255.0, std::max(0.0, noisy.data()[i] + noise.data()[i]));
        }
    }
    save_pgm(noisy, "chambolle_noisy.pgm");
    std::cout << "noisy PSNR vs clean: " << format_fixed(psnr(clean, noisy), 2)
              << " dB, TV = " << format_fixed(total_variation(noisy) / 1e3, 1)
              << "k\n";

    // Pick the best architecture (a one-kernel request) and run it.
    const Sweep_entry fit = service.run(config).entries.front();
    std::cout << "device fit: " << to_string(fit.best.instance) << " -> "
              << format_fixed(fit.best.throughput.fps, 1) << " fps estimated\n";
    const Frame_set initial = kernel.make_initial(noisy);
    const Arch_sim_result sim =
        simulate_architecture(library, fit.best.instance, initial, {});

    const Frame denoised = reconstruct(initial.field("g"),
                                       sim.final_state.field("p1"),
                                       sim.final_state.field("p2"));
    save_pgm(denoised, "chambolle_denoised.pgm");

    const double tv_before = total_variation(noisy);
    const double tv_after = total_variation(denoised);
    std::cout << "denoised PSNR vs clean: " << format_fixed(psnr(clean, denoised), 2)
              << " dB, TV = " << format_fixed(tv_after / 1e3, 1) << "k ("
              << format_fixed(100.0 * (1.0 - tv_after / tv_before), 1)
              << "% reduction)\n";
    std::cout << "wrote chambolle_noisy.pgm, chambolle_denoised.pgm\n";
    return tv_after < tv_before ? 0 : 1;
}
