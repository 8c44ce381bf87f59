// Format search as a DSE axis: the per-(window, depth) format grid, the
// per-architecture format column of the sweep report, the width-monotone
// area re-pricing, and the fixed-mode golden validation against the integer
// frame engine.
#include <gtest/gtest.h>

#include <string>

#include "core/service.hpp"
#include "core/sweep.hpp"
#include "support/error.hpp"
#include "dse/explorer.hpp"
#include "estimate/format_search.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "support/text.hpp"
#include "symexec/executor.hpp"
#include "synth/device.hpp"

namespace islhls {
namespace {

TEST(Format_dse, explorer_grid_matches_standalone_search_and_is_thread_invariant) {
    const Kernel_def& kernel = kernel_by_name("igf");
    Cone_library library(extract_stencil(kernel.c_source), kernel.name);
    const Fpga_device& device = device_by_name("xc6vlx760");
    Evaluator_options evaluator_options;
    Space_options space;
    space.iterations = 4;
    space.max_window = 3;
    space.max_depth = 2;
    const Frame_set content = kernel.make_initial(make_synthetic_scene(32, 24, 8));
    Format_search_options options;
    options.target_psnr_db = 45.0;

    Explorer explorer(library, device, evaluator_options, space);
    const Format_grid grid =
        explorer.search_formats(content, kernel.boundary, options);
    ASSERT_EQ(grid.cells.size(), 6u);

    // Every cell equals the standalone per-cone search (the grid adds
    // fan-out, never different numerics).
    for (const Format_cell& cell : grid.cells) {
        SCOPED_TRACE(cat("w", cell.window, " d", cell.depth));
        const Format_search_result direct = search_fixed_format(
            library.cone(cell.window, cell.depth), content, kernel.boundary, options);
        EXPECT_EQ(cell.result.format, direct.format);
        EXPECT_EQ(cell.result.psnr_db, direct.psnr_db);
        EXPECT_EQ(cell.result.max_abs_value, direct.max_abs_value);
        EXPECT_EQ(cell.result.formats_tried, direct.formats_tried);
        EXPECT_EQ(cell.result.satisfiable, direct.satisfiable);
        // Deeper cones grow the dynamic range, never shrink it: at fixed
        // window, depth-2 needs at least depth-1's integer bits.
        if (cell.depth == 2) {
            const Format_cell& shallower =
                grid.at(cell.window, 1, space.max_depth);
            EXPECT_GE(cell.result.format.integer_bits,
                      shallower.result.format.integer_bits);
        }
    }

    // Thread-count invariance of the whole grid, via the dump serialization.
    Space_options threaded = space;
    threaded.threads = 4;
    Explorer parallel_explorer(library, device, evaluator_options, threaded);
    EXPECT_EQ(dump(grid), dump(parallel_explorer.search_formats(
                              content, kernel.boundary, options)));
}

TEST(Format_dse, estimated_area_is_monotone_in_word_width) {
    // The whole point of the per-architecture format column: narrower words
    // mean cheaper operators everywhere in the area model, so the estimated
    // area must shrink monotonically with the format width.
    const Kernel_def& kernel = kernel_by_name("heat");
    Cone_library library(extract_stencil(kernel.c_source), kernel.name);
    const Fpga_device& device = device_by_name("xc6vlx760");
    Arch_instance instance;
    instance.window = 3;
    instance.level_depths = {2, 1};
    instance.cores_per_depth[1] = 1;
    instance.cores_per_depth[2] = 1;

    const Fixed_format formats[] = {{20, 12}, {12, 8}, {10, 6}, {6, 2}};
    double previous = 0.0;
    for (std::size_t i = 0; i < std::size(formats); ++i) {
        SCOPED_TRACE(to_string(formats[i]));
        Evaluator_options options;
        options.format = formats[i];
        options.synth.format = formats[i];
        const Arch_evaluator evaluator(library, device, options);
        const double area = evaluator.evaluate(instance).estimated_area_luts;
        ASSERT_GT(area, 0.0);
        if (i > 0) {
            EXPECT_LT(area, previous);
        }
        previous = area;
    }
}

TEST(Format_dse, fps_is_monotone_in_word_width) {
    // The other half of the full per-format evaluation: narrower operators
    // are faster, so f_max — and with it fps — must not drop when the word
    // shrinks, and must strictly rise across a wide-to-narrow span while the
    // design stays below the device clock cap.
    const Fixed_format formats[] = {{24, 16}, {12, 8}, {10, 6}, {6, 2}};
    for (const char* name : {"heat", "jacobi"}) {
        SCOPED_TRACE(name);
        const Kernel_def& kernel = kernel_by_name(name);
        Cone_library library(extract_stencil(kernel.c_source), kernel.name);
        const Fpga_device& device = device_by_name("xc6vlx760");
        Arch_instance instance;
        instance.window = 3;
        instance.level_depths = {2, 1};
        instance.cores_per_depth[1] = 1;
        instance.cores_per_depth[2] = 1;

        double previous_fps = 0.0;
        double previous_f_max = 0.0;
        for (std::size_t i = 0; i < std::size(formats); ++i) {
            SCOPED_TRACE(to_string(formats[i]));
            Evaluator_options options;
            options.format = formats[i];
            options.synth.format = formats[i];
            const Arch_evaluator evaluator(library, device, options);
            const Arch_evaluation eval = evaluator.evaluate(instance);
            ASSERT_GT(eval.throughput.fps, 0.0);
            if (i > 0) {
                EXPECT_GE(eval.throughput.fps, previous_fps);
                EXPECT_GE(eval.f_max_mhz, previous_f_max);
            }
            previous_fps = eval.throughput.fps;
            previous_f_max = eval.f_max_mhz;
        }

        // End to end the shrink buys real throughput, not just a tie at the
        // device clock cap.
        Evaluator_options wide;
        wide.format = formats[0];
        wide.synth.format = formats[0];
        const double wide_fps =
            Arch_evaluator(library, device, wide).evaluate(instance).throughput.fps;
        EXPECT_GT(previous_fps, wide_fps);
    }
}

TEST(Format_dse, sweep_reports_per_architecture_formats_and_exact_fixed_golden) {
    Sweep_config config;
    config.kernels = {"heat", "igf"};
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {3, 4};
    config.frame_width = 160;
    config.frame_height = 120;
    config.space.max_window = 4;
    config.space.max_depth = 2;
    config.search_formats = true;
    config.validate_fixed = true;
    Sweep_service service;
    const Sweep_report report = service.run(config);
    ASSERT_EQ(report.entries.size(), 4u);

    for (const Sweep_entry& e : report.entries) {
        SCOPED_TRACE(cat(e.kernel, " N=", e.iterations));
        ASSERT_TRUE(e.fits);
        // The format column is present, satisfiable and covering.
        ASSERT_TRUE(e.format_searched);
        EXPECT_TRUE(e.format_satisfiable);
        EXPECT_GE(e.fixed_format.total_bits(), 3);
        EXPECT_LE(e.fixed_format.total_bits(), 32);
        // Exact cells have no finite PSNR; non-exact ones must clear the bar.
        EXPECT_TRUE(e.format_exact ||
                    e.format_psnr_db >= config.format_search.target_psnr_db);
        // The re-priced point equals an independent full evaluation at that
        // width: area, f_max and fps all shifted together.
        Evaluator_options priced;
        priced.frame_width = config.frame_width;
        priced.frame_height = config.frame_height;
        priced.format = e.fixed_format;
        priced.synth.format = e.fixed_format;
        const Arch_evaluator pricer(service.library(e.kernel),
                                    device_by_name(e.device), priced);
        const Arch_evaluation repriced = pricer.evaluate(e.best.instance);
        EXPECT_EQ(e.searched_area_luts, repriced.estimated_area_luts);
        EXPECT_EQ(e.searched_fps, repriced.throughput.fps);
        EXPECT_EQ(e.searched_f_max_mhz, repriced.f_max_mhz);
        EXPECT_GT(e.searched_fps, 0.0);
        // Fixed-mode golden: the simulated architecture reproduces the
        // integer frame engine's raw words exactly.
        ASSERT_TRUE(e.validated_fixed);
        EXPECT_EQ(e.validation_max_raw_err, 0.0);
    }
    // The format grid is computed once per kernel: both N values of a kernel
    // carry the identical covering format.
    EXPECT_EQ(report.entries[0].kernel, report.entries[1].kernel);
    EXPECT_EQ(report.entries[0].fixed_format.integer_bits +
                  report.entries[0].fixed_format.frac_bits,
              report.entries[1].fixed_format.integer_bits +
                  report.entries[1].fixed_format.frac_bits);

    // The rendered report gains the three new columns.
    const std::string text = to_string(report);
    EXPECT_NE(text.find("format"), std::string::npos);
    EXPECT_NE(text.find("kLUTs@fmt"), std::string::npos);
    EXPECT_NE(text.find("golden(fx)"), std::string::npos);
    EXPECT_NE(text.find(to_string(report.entries[0].fixed_format)),
              std::string::npos);
    EXPECT_NE(text.find("exact"), std::string::npos);
}

TEST(Format_dse, fixed_validation_rejects_formats_beyond_double_exactness) {
    // Raw words above 53 bits are not exactly representable in double, so
    // the raw-word comparison would report phantom LSB errors; the config
    // check must refuse such configs up front instead.
    Sweep_config config;
    config.kernels = {"heat"};
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {2};
    config.validate_fixed = true;
    config.format = Fixed_format{30, 28};  // 58 bits
    EXPECT_THROW(validate_config(config), Error);
    config.format = Fixed_format{10, 6};
    config.search_formats = true;
    config.format_search.max_total_bits = 60;
    EXPECT_THROW(validate_config(config), Error);
    config.format_search.max_total_bits = 32;
    EXPECT_NO_THROW(validate_config(config));
}

TEST(Format_dse, plain_sweep_report_keeps_the_classic_columns) {
    Sweep_config config;
    config.kernels = {"jacobi"};
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {2};
    config.space.max_window = 3;
    config.space.max_depth = 2;
    const std::string text = to_string(Sweep_service().run(config));
    EXPECT_EQ(text.find("kLUTs@fmt"), std::string::npos);
    EXPECT_EQ(text.find("golden(fx)"), std::string::npos);
}

}  // namespace
}  // namespace islhls
