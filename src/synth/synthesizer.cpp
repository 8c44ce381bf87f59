#include "synth/synthesizer.hpp"

#include <algorithm>
#include <cmath>

#include "support/numeric.hpp"
#include "support/text.hpp"

namespace islhls {

namespace {

// Logic-sharing discount: big designs give the optimizer more sharing
// opportunities. The saturation range is mild — this is the systematic
// non-linearity Eq. 1's alpha cannot see, so it bounds the estimator's
// achievable accuracy (the paper observed ~3% average / ~6.5% max error).
double sharing_factor(int operation_count) {
    return 0.85 + 0.05 * std::exp(-static_cast<double>(operation_count) / 900.0);
}

// Deterministic per-design perturbation in [-2.5%, +2.5%]: the stand-in for
// unmodelled tool behaviour (placement luck, packing effects). Keyed by the
// design fingerprint so re-synthesis reproduces the same number.
double perturbation(const std::string& design_name, const Fpga_device& device,
                    std::uint64_t seed) {
    std::uint64_t h = seed;
    for (char c : design_name) h = hash_combine(h, static_cast<std::uint64_t>(c));
    for (char c : device.name) h = hash_combine(h, static_cast<std::uint64_t>(c));
    return (hash_to_unit(h) - 0.5) * 0.05;
}

}  // namespace

Synthesis_report synthesize_program(const Compiled_program& tape,
                                    const std::string& design_name,
                                    const Fpga_device& device,
                                    const Synth_options& options) {
    Cost_options cost_options{options.format, options.use_dsp};
    // DSP exhaustion: retry mapping multipliers to LUTs when the device has
    // too few blocks (matters on the small parts).
    Program_cost cost = cost_of_program(tape, cost_options);
    if (cost.dsps > device.dsp_count) {
        cost_options.use_dsp = false;
        cost = cost_of_program(tape, cost_options);
    }
    // One tape op per operation register, one binding per input port.
    const int register_count = static_cast<int>(tape.ops().size());
    const int input_count = static_cast<int>(tape.inputs().size());

    Synthesis_report report;
    report.design_name = design_name;
    report.register_count = register_count;
    report.raw_lut_count = cost.luts;

    const double share = sharing_factor(register_count);
    // Packing/control overhead: input bank addressing plus a fixed FSM.
    const double overhead = 120.0 + 0.8 * input_count;
    double luts = cost.luts * share + overhead;
    luts *= 1.0 + perturbation(design_name, device, options.seed);
    report.lut_count = luts;
    report.ff_count = cost.ff_bits;
    report.dsp_count = cost.dsps;

    // Double-buffered input and output windows in BRAM.
    const double bits_per_word = options.format.total_bits();
    report.bram_kbits =
        2.0 * bits_per_word *
        (input_count + static_cast<double>(tape.output_slots().size())) /
        1024.0;

    // Timing: slowest stage through fanout/routing derate that grows slowly
    // with design size, capped by the device grade.
    const double size_derate =
        1.0 + 0.18 * std::log10(1.0 + register_count / 100.0);
    const double stage_ns =
        cost.max_stage_delay_ns * 1.15 * size_derate * device.speed_factor;
    report.f_max_mhz = std::min(device.max_clock_mhz, 1000.0 / std::max(stage_ns, 0.5));
    report.latency_cycles = std::max(1, cost.latency_stages);

    // Simulated synthesis runtime: super-linear in design size — the reason
    // the paper estimates instead of synthesizing the whole space.
    report.synthesis_cpu_seconds =
        3.0 + 0.02 * std::pow(static_cast<double>(register_count), 1.25);

    report.fits = report.lut_count <= static_cast<double>(device.lut_count) &&
                  report.dsp_count <= device.dsp_count &&
                  report.bram_kbits <= static_cast<double>(device.bram_kbits);
    return report;
}

Synthesis_report synthesize_cone(const Cone& cone, const std::string& kernel_name,
                                 const Fpga_device& device,
                                 const Synth_options& options) {
    const std::string name =
        cat(kernel_name, "_w", cone.spec().window_width, "x",
            cone.spec().window_height, "_d", cone.spec().depth);
    return synthesize_program(cone.tape(), name, device, options);
}

}  // namespace islhls
