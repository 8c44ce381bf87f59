// Quickstart: run the full HLS flow on a small Jacobi kernel written in C.
//
//   1. give the sweep service a C stencil kernel (Sweep_service::add_kernel),
//   2. inspect the dependency analysis,
//   3. generate VHDL for one cone,
//   4. explore the design space and print the Pareto set,
//   5. pick the best design for a specific FPGA.
// Steps 4 and 5 are one one-kernel request, the same one
// `islhls kernel.c --pareto --fit` runs.
//
// Build: cmake --build build --target example_quickstart
// Run:   ./build/quickstart
#include <iostream>

#include "backend/vhdl.hpp"
#include "core/service.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace {

const char* jacobi_kernel = R"(
void jacobi_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            u_out[y][x] = 0.25f * (u[y-1][x] + u[y+1][x] + u[y][x-1] + u[y][x+1]);
        }
    }
}
)";

}  // namespace

int main() {
    using namespace islhls;

    // 1-2. Frontend + symbolic execution.
    Sweep_service service;
    const std::string kernel = service.add_kernel(jacobi_kernel);
    Cone_library& library = service.library(kernel);
    std::cout << "=== dependency analysis ===\n" << describe(library) << "\n";

    // 3. VHDL for a 3x3-window depth-2 cone.
    const std::string vhdl = emit_cone(library.cone(3, 2), kernel);
    std::cout << "=== generated VHDL (first lines) ===\n";
    std::size_t pos = 0;
    for (int line = 0; line < 8 && pos != std::string::npos; ++line) {
        const std::size_t next = vhdl.find('\n', pos);
        std::cout << vhdl.substr(pos, next - pos) << "\n";
        pos = next == std::string::npos ? next : next + 1;
    }
    std::cout << "... (" << vhdl.size() << " bytes total)\n\n";

    // 4-5. One request: the Pareto sweep and the device fit.
    Sweep_config config;
    config.kernels = {kernel};
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {8};
    config.frame_width = 640;
    config.frame_height = 480;
    config.space.max_window = 6;
    config.space.max_depth = 4;
    config.with_pareto = true;
    const Sweep_entry entry = service.run(config).entries.front();

    std::cout << "=== design space ===\n"
              << "evaluated " << entry.pareto_points << " design points, Pareto set "
              << entry.pareto_front_size << " points\n";
    Table table({"area (kLUT)", "ms/frame", "fps", "architecture"});
    for (const Front_point& p : entry.front_points) {
        table.add(format_fixed(p.area_luts / 1000.0, 1),
                  format_fixed(p.seconds_per_frame * 1000.0, 3), format_fixed(p.fps, 1),
                  p.config);
    }
    std::cout << table << "\n";

    if (entry.fits) {
        std::cout << "=== best design for " << entry.device << " ===\n"
                  << to_string(entry.best.instance) << "\n"
                  << format_fixed(entry.best.throughput.fps, 1) << " fps, "
                  << format_fixed(entry.best.estimated_area_luts / 1000.0, 1)
                  << " kLUTs (estimated), bottleneck: "
                  << entry.best.throughput.bottleneck << "\n";
    }
    return 0;
}
