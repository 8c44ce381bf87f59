// VHDL artifact export: what a user hands to the synthesis tool.
//
// Emits, for a chosen kernel and cone geometry (the cone comes from the
// kernel's resident library in a Sweep_service):
//   - the support package (fixed-point divider / sqrt entities),
//   - the cone entity itself,
//   - a self-checking testbench whose expected outputs come from the
//     bit-accurate fixed-point executor (so `ghdl` or any simulator can
//     verify the entity without this library).
#include <fstream>
#include <iostream>

#include "backend/vhdl.hpp"
#include "core/service.hpp"
#include "grid/frame_ops.hpp"
#include "oracle/reference.hpp"
#include "support/prng.hpp"
#include "support/text.hpp"

int main(int argc, char** argv) {
    using namespace islhls;

    const std::string kernel_name = argc > 1 ? argv[1] : "igf";
    const int window = argc > 2 ? std::atoi(argv[2]) : 4;
    const int depth = argc > 3 ? std::atoi(argv[3]) : 2;

    Sweep_service service;
    const Cone& cone = service.library(kernel_name).cone(window, depth);

    Vhdl_options vhdl_options;
    vhdl_options.format = Fixed_format{14, 6};

    const Register_program program = cone.lower();

    // Random (quantized) stimulus and its bit-exact expected response.
    Prng rng(42);
    std::vector<double> stimulus;
    for (int i = 0; i < program.input_count(); ++i) {
        stimulus.push_back(quantize(rng.next_in(0.0, 200.0), vhdl_options.format));
    }
    const std::vector<double> expected =
        run_fixed(program, stimulus, vhdl_options.format);

    const std::string base = cat(kernel_name, "_w", window, "_d", depth);
    {
        std::ofstream f(base + "_support.vhdl");
        f << emit_support_package(vhdl_options);
    }
    {
        std::ofstream f(base + ".vhdl");
        f << emit_cone(cone, kernel_name, vhdl_options);
    }
    {
        std::ofstream f(base + "_tb.vhdl");
        f << emit_cone_testbench(cone, kernel_name, stimulus, expected, vhdl_options);
    }

    std::cout << "cone " << to_string(cone.spec()) << " of kernel '" << kernel_name
              << "':\n"
              << "  " << cone.stats().register_count << " registers, "
              << cone.stats().input_count << " inputs, pipeline depth "
              << cone.stats().pipeline_depth << ", reuse factor "
              << format_fixed(cone.stats().reuse_factor(), 2) << "\n"
              << "wrote " << base << "_support.vhdl, " << base << ".vhdl, " << base
              << "_tb.vhdl\n"
              << "simulate with: ghdl -a --std=08 " << base << "_support.vhdl "
              << base << ".vhdl " << base << "_tb.vhdl && ghdl run tb_islhls_"
              << base << "\n";
    return 0;
}
