// Scientific-computing ISL: explicit heat diffusion.
//
// Shows the flow on a numerical-PDE workload rather than a multimedia one:
// a hot spot diffusing through a plate, run through the cone architecture
// and checked for (a) agreement with the golden model and (b) the physics —
// heat is conserved away from the boundary and the peak decays
// monotonically. Also compares device fits across three FPGA generations,
// in one request to the sweep service.
#include <iostream>

#include "core/service.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "sim/arch_sim.hpp"
#include "sim/golden.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

int main() {
    using namespace islhls;

    Sweep_config config;
    config.kernels = {"heat"};
    config.devices = {"xc2vp30", "xc6vlx760", "xc7vx485t"};
    config.iteration_counts = {12};
    config.frame_width = 128;
    config.frame_height = 128;
    config.space.max_depth = 4;
    config.space.max_window = 6;

    const Kernel_def& kernel = kernel_by_name("heat");
    Sweep_service service;
    Cone_library& library = service.library(kernel.name);
    std::cout << describe(library) << "\n";
    const Sweep_report report = service.run(config);

    // A centered hot spot on a cold plate (zero-flux boundary via clamp).
    const Frame plate = make_impulse(128, 128, 64, 64, 10000.0);
    const Frame_set initial = kernel.make_initial(plate);

    const Sweep_entry& fit = report.entries.at(1);  // xc6vlx760
    const Arch_sim_result sim =
        simulate_architecture(library, fit.best.instance, initial, {});
    const Frame_set golden =
        run_ghost_ir(library.step(), initial, fit.iterations, kernel.boundary);
    std::cout << "architecture vs golden max |diff| = "
              << max_abs_diff(sim.final_state.field("u"), golden.field("u")) << "\n";

    // Physics checks on the simulated result.
    const Frame& u = sim.final_state.field("u");
    const double total = element_sum(u);
    double peak = 0.0;
    for (double v : u.data()) peak = std::max(peak, v);
    std::cout << "heat conserved: " << format_fixed(total, 1) << " / 10000.0 ("
              << format_fixed(100.0 * total / 10000.0, 2) << "%)\n"
              << "peak decayed from 10000 to " << format_fixed(peak, 1) << "\n";

    // The same kernel fitted to different devices.
    Table table({"device", "best architecture", "fps", "kLUTs"});
    for (const Sweep_entry& entry : report.entries) {
        if (entry.fits) {
            table.add(entry.device, to_string(entry.best.instance),
                      format_fixed(entry.best.throughput.fps, 1),
                      format_fixed(entry.best.estimated_area_luts / 1e3, 1));
        } else {
            table.add(entry.device, "no feasible design", "-", "-");
        }
    }
    std::cout << "\n" << table;
    return 0;
}
