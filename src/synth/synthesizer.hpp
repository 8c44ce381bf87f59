// Virtual synthesis: the substitute for the Xilinx toolchain runs the paper
// performed (see DESIGN.md, substitution table).
//
// Given a cone's register-allocated tape, the synthesizer technology-maps every
// operation (cost_model), applies a logic-sharing discount that grows with
// design size (real tools find sharing beyond the explicit register reuse,
// which is why the paper's Eq. 1 needs the empirical alpha), adds packing
// overhead, and perturbs the result by a small deterministic per-design
// amount standing in for unmodelled tool behaviour. It also reports timing
// (f_max from the slowest pipeline stage) and a simulated tool runtime,
// which is what makes exhaustive synthesis of the whole design space
// impractical and motivates the estimation flow.
#pragma once

#include <string>

#include "backend/fixed_point.hpp"
#include "cone/cone.hpp"
#include "synth/cost_model.hpp"
#include "synth/device.hpp"

namespace islhls {

struct Synth_options {
    Fixed_format format;
    bool use_dsp = false;  // see Cost_options::use_dsp
    // Seed folded into the per-design perturbation; fixed default so every
    // run of the repo reproduces the same numbers.
    std::uint64_t seed = 0xD5C0DE5EEDULL;
};

struct Synthesis_report {
    std::string design_name;
    double lut_count = 0.0;      // post-optimization slice LUTs
    double raw_lut_count = 0.0;  // direct mapping before logic sharing
    double ff_count = 0.0;
    int dsp_count = 0;
    double bram_kbits = 0.0;     // input/output window buffers
    double f_max_mhz = 0.0;
    int latency_cycles = 0;      // pipeline fill latency of one cone pass
    int register_count = 0;      // the Reg_i the estimator sees
    double synthesis_cpu_seconds = 0.0;  // simulated tool runtime

    // True when the design fits the device (LUT/DSP/BRAM wise) on its own.
    bool fits = true;
};

// Synthesizes one cone for one device.
Synthesis_report synthesize_cone(const Cone& cone, const std::string& kernel_name,
                                 const Fpga_device& device,
                                 const Synth_options& options = {});

// Lower-level entry: synthesizes an arbitrary program's tape under a design
// name (used by tests and by the generic-HLS baseline).
Synthesis_report synthesize_program(const Compiled_program& tape,
                                    const std::string& design_name,
                                    const Fpga_device& device,
                                    const Synth_options& options = {});

}  // namespace islhls
