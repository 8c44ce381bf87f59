// Bringing your own C kernel to the flow.
//
// The flow consumes plain C in the canonical ISL form; this example defines
// a sharpening diffusion the library does not ship, registers it with the
// sweep service (Sweep_service::add_kernel), walks through what the
// dependency analysis extracted, explores the design space with an Explorer
// over the kernel's resident cone library, and validates the fitted
// architecture against a direct software interpretation of the kernel.
#include <iostream>

#include "core/service.hpp"
#include "grid/frame_ops.hpp"
#include "sim/arch_sim.hpp"
#include "sim/golden.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace {

// An edge-enhancing ISL: unsharp masking with a clamp against overshoot.
const char* my_kernel = R"(
void unsharp_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float blur = (u[y-1][x-1] + 2.0f*u[y-1][x] + u[y-1][x+1]
                        + 2.0f*u[y][x-1] + 4.0f*u[y][x] + 2.0f*u[y][x+1]
                        + u[y+1][x-1] + 2.0f*u[y+1][x] + u[y+1][x+1]) * 0.0625f;
            float sharp = u[y][x] + 0.3f * (u[y][x] - blur);
            u_out[y][x] = fminf(fmaxf(sharp, 0.0f), 255.0f);
        }
    }
}
)";

}  // namespace

int main() {
    using namespace islhls;

    Sweep_config config;
    config.iteration_counts = {5};
    config.frame_width = 160;
    config.frame_height = 120;
    config.space.iterations = 5;
    config.space.max_window = 6;
    config.space.max_depth = 3;

    Sweep_service service;
    Cone_library& library = service.library(service.add_kernel(my_kernel));
    std::cout << "=== what the symbolic execution extracted ===\n"
              << describe(library) << "\n";
    const Fpga_device& device = device_by_name("xc6vlx760");
    Explorer explorer(library, device, evaluator_options_for(config), config.space);

    // Validate: cone architecture vs golden IR interpretation.
    const Frame scene = make_synthetic_scene(160, 120, 5);
    Frame_set initial(160, 120);
    initial.add_field("u", scene);
    const auto fit = explorer.fit_device();
    const Arch_sim_result sim =
        simulate_architecture(library, fit.best.instance, initial, {});
    const Frame_set golden =
        run_ghost_ir(library.step(), initial, config.space.iterations, Boundary::clamp);
    std::cout << "architecture vs golden max |diff| = "
              << max_abs_diff(sim.final_state.field("u"), golden.field("u")) << "\n\n";

    // The interesting cones at a glance.
    Table table({"cone", "registers", "inputs", "reuse", "est kLUT"});
    for (int d = 1; d <= 3; ++d) {
        const Cone_stats& stats = library.stats(4, d);
        table.add(to_string(stats.spec), stats.register_count, stats.input_count,
                  format_fixed(stats.reuse_factor(), 2),
                  format_fixed(explorer.evaluator().estimated_cone_area(4, d) / 1e3, 1));
    }
    std::cout << table << "\n";

    std::cout << "best fit on " << device.name << ": "
              << to_string(fit.best.instance) << " -> "
              << format_fixed(fit.best.throughput.fps, 1) << " fps\n";
    return 0;
}
