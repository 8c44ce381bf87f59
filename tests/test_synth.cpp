// Virtual synthesis substrate: device database, cost model behaviour and the
// properties the paper's estimation flow relies on.
#include <gtest/gtest.h>

#include <cmath>

#include "dse/cone_library.hpp"
#include "kernels/kernels.hpp"
#include "support/error.hpp"
#include "symexec/executor.hpp"
#include "synth/cost_model.hpp"
#include "synth/device.hpp"
#include "synth/synthesizer.hpp"

namespace islhls {
namespace {

TEST(Device, registry_contains_paper_parts) {
    EXPECT_EQ(device_by_name("xc6vlx760").family, "Virtex-6");
    EXPECT_EQ(device_by_name("xc2vp30").family, "Virtex-II Pro");
    EXPECT_GT(device_by_name("xc6vlx760").lut_count,
              device_by_name("xc2vp30").lut_count);
    EXPECT_THROW(device_by_name("xc9000"), Error);
    EXPECT_GE(all_devices().size(), 4u);
    for (const Fpga_device& d : all_devices()) {
        EXPECT_GT(d.lut_count, 0);
        EXPECT_GT(d.usable_luts(), 0);
        EXPECT_LE(d.usable_luts(), d.lut_count);
    }
}

class Synth_fixture : public ::testing::Test {
protected:
    Stencil_step step = extract_stencil(kernel_by_name("igf").c_source);
    const Fpga_device& v6 = device_by_name("xc6vlx760");
};

TEST_F(Synth_fixture, cost_model_charges_every_operation) {
    const Cone cone(step, Cone_spec{2, 2, 1});
    Cost_options options;
    const Program_cost cost = cost_of_program(cone.tape(), options);
    EXPECT_GT(cost.luts, 0.0);
    EXPECT_GT(cost.ff_bits, 0.0);
    EXPECT_GT(cost.max_stage_delay_ns, 0.0);
    EXPECT_GE(cost.latency_stages, 1);
}

TEST_F(Synth_fixture, constant_multiplier_cheaper_than_variable) {
    // igf multiplies by constants only -> no DSP blocks.
    const Cone cone(step, Cone_spec{2, 2, 1});
    const Synthesis_report r = synthesize_cone(cone, "igf", v6);
    EXPECT_EQ(r.dsp_count, 0);
}

TEST_F(Synth_fixture, synthesis_is_deterministic) {
    const Cone cone(step, Cone_spec{3, 3, 2});
    const Synthesis_report a = synthesize_cone(cone, "igf", v6);
    const Synthesis_report b = synthesize_cone(cone, "igf", v6);
    EXPECT_EQ(a.lut_count, b.lut_count);
    EXPECT_EQ(a.f_max_mhz, b.f_max_mhz);
}

TEST_F(Synth_fixture, perturbation_differs_per_design_but_stays_small) {
    const Cone c1(step, Cone_spec{3, 3, 2});
    const Cone c2(step, Cone_spec{3, 3, 2});
    const Synthesis_report r1 = synthesize_cone(c1, "igf", v6);
    const Synthesis_report under_other_name =
        synthesize_program(c2.tape(), "igf_w3x3_d2_alt", v6, {});
    // Same netlist, different design name -> only the perturbation differs.
    const double rel = std::fabs(r1.lut_count - under_other_name.lut_count) /
                       r1.lut_count;
    EXPECT_GT(rel, 0.0);
    EXPECT_LT(rel, 0.08);
}

TEST_F(Synth_fixture, area_tracks_register_count) {
    // The observation behind Eq. 1: more registers -> proportionally more
    // LUTs, up to the logic-sharing discount.
    std::vector<double> luts;
    std::vector<int> regs;
    for (int w : {1, 2, 3, 4, 5}) {
        const Cone cone(step, Cone_spec{w, w, 2});
        const Synthesis_report r = synthesize_cone(cone, "igf", v6);
        luts.push_back(r.lut_count);
        regs.push_back(r.register_count);
    }
    for (std::size_t i = 1; i < luts.size(); ++i) {
        EXPECT_GT(luts[i], luts[i - 1]);
        EXPECT_GT(regs[i], regs[i - 1]);
        // LUTs per register stay within a narrow band (the alpha the paper fits).
        const double ratio_i = luts[i] / regs[i];
        const double ratio_0 = luts[0] / regs[0];
        EXPECT_LT(std::fabs(ratio_i - ratio_0) / ratio_0, 0.35);
    }
}

TEST_F(Synth_fixture, fmax_degrades_gently_with_size) {
    const Cone small(step, Cone_spec{1, 1, 1});
    const Cone big(step, Cone_spec{6, 6, 4});
    const Synthesis_report rs = synthesize_cone(small, "igf", v6);
    const Synthesis_report rb = synthesize_cone(big, "igf", v6);
    EXPECT_GE(rs.f_max_mhz, rb.f_max_mhz);
    EXPECT_GT(rb.f_max_mhz, rs.f_max_mhz * 0.5);
}

TEST_F(Synth_fixture, slower_device_slower_clock) {
    const Cone cone(step, Cone_spec{3, 3, 2});
    const Synthesis_report v6_r = synthesize_cone(cone, "igf", v6);
    const Synthesis_report v2p_r =
        synthesize_cone(cone, "igf", device_by_name("xc2vp30"));
    EXPECT_GT(v6_r.f_max_mhz, v2p_r.f_max_mhz);
}

TEST_F(Synth_fixture, synthesis_runtime_motivates_estimation) {
    const Cone small(step, Cone_spec{1, 1, 1});
    const Cone big(step, Cone_spec{8, 8, 5});
    const Synthesis_report rs = synthesize_cone(small, "igf", v6);
    const Synthesis_report rb = synthesize_cone(big, "igf", v6);
    EXPECT_GT(rb.synthesis_cpu_seconds, 50.0 * rs.synthesis_cpu_seconds);
}

TEST_F(Synth_fixture, dsp_spill_to_luts_on_small_device) {
    // Shock filter has variable*variable products (gx*gx) that want DSPs.
    Stencil_step shock = extract_stencil(kernel_by_name("shock").c_source);
    const Cone cone(shock, Cone_spec{4, 4, 3});
    Synth_options options;
    options.use_dsp = true;
    const Synthesis_report on_v6 = synthesize_cone(cone, "shock", v6, options);
    const Fpga_device& tiny = device_by_name("generic_small");
    const Synthesis_report on_tiny = synthesize_cone(cone, "shock", tiny, options);
    EXPECT_GT(on_v6.dsp_count, 0);
    // generic_small has 40 DSPs; the deep cone needs more and spills.
    EXPECT_EQ(on_tiny.dsp_count, 0);
    EXPECT_GT(on_tiny.raw_lut_count, on_v6.raw_lut_count);
}

TEST_F(Synth_fixture, fits_flag_reflects_capacity) {
    const Cone big(step, Cone_spec{9, 9, 5});
    const Synthesis_report on_tiny =
        synthesize_cone(big, "igf", device_by_name("generic_small"));
    EXPECT_FALSE(on_tiny.fits);
    const Cone small(step, Cone_spec{1, 1, 1});
    EXPECT_TRUE(synthesize_cone(small, "igf", v6).fits);
}

TEST(Cone_library_cache, memoizes_cones_and_syntheses) {
    Stencil_step step = extract_stencil(kernel_by_name("jacobi").c_source);
    Cone_library lib(std::move(step), "jacobi");
    const Cone& c1 = lib.cone(3, 2);
    const Cone& c2 = lib.cone(3, 2);
    EXPECT_EQ(&c1, &c2);
    const Fpga_device& v6 = device_by_name("xc6vlx760");
    EXPECT_EQ(lib.synthesis_runs(), 0);
    lib.synthesis(3, 2, v6, {});
    lib.synthesis(3, 2, v6, {});
    EXPECT_EQ(lib.synthesis_runs(), 1);
    lib.synthesis(4, 2, v6, {});
    EXPECT_EQ(lib.synthesis_runs(), 2);
    EXPECT_GT(lib.synthesis_cpu_seconds(), 0.0);
}

}  // namespace
}  // namespace islhls
