// Parallel exploration engine: byte-identical determinism across thread
// counts, concurrent cone-library access, and the batch sweep session.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "../bench/bench_common.hpp"
#include "core/service.hpp"
#include "core/sweep_records.hpp"
#include "core/sweep.hpp"
#include "dse/explorer.hpp"
#include "kernels/kernels.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "symexec/executor.hpp"
#include "synth/device.hpp"

namespace islhls {
namespace {

Evaluator_options small_evaluator_options() {
    Evaluator_options options;
    options.frame_width = 320;
    options.frame_height = 240;
    options.class_overhead_luts = 2000.0;
    return options;
}

Space_options small_space(int threads) {
    Space_options space;
    space.iterations = 6;
    space.max_window = 4;
    space.max_depth = 3;
    space.threads = threads;
    return space;
}

// Byte-identity of two serialized records. On a mismatch it names the
// first differing byte instead of printing gtest's line diff, whose memory
// grows with the product of the two line counts: a paper-size Pareto
// record has thousands of lines.
::testing::AssertionResult same_record(const std::string& actual,
                                       const std::string& expected) {
    if (actual == expected) return ::testing::AssertionSuccess();
    const auto at = std::mismatch(actual.begin(), actual.end(), expected.begin(),
                                  expected.end()).first - actual.begin();
    return ::testing::AssertionFailure()
           << "records differ at byte " << at << " (" << actual.size() << " vs "
           << expected.size() << " bytes): '" << actual.substr(at, 60) << "' vs '"
           << expected.substr(at, 60) << "'";
}

// Each run gets a cold cache so the serial baseline and the parallel runs
// exercise the same build/synthesis paths, not just cache lookups.
struct Run_records {
    std::string pareto;
    std::string fit;
    std::string validation;
};

Run_records run_explorer(const std::string& kernel, int threads,
                       const std::string& device) {
    Cone_library library(extract_stencil(kernel_by_name(kernel).c_source), kernel);
    Explorer explorer(library, device_by_name(device), small_evaluator_options(),
                      small_space(threads));
    Run_records records;
    records.pareto = serialize_record(explorer.explore_pareto());
    records.fit = serialize_record(explorer.fit_device());
    records.validation = serialize_record(explorer.validate_area_model());
    return records;
}

TEST(Parallel_dse, results_byte_identical_across_thread_counts) {
    const std::vector<std::string> kernels = kernel_names();
    ASSERT_GE(kernels.size(), 9u);
    for (const std::string& kernel : kernels) {
        SCOPED_TRACE(kernel);
        const Run_records serial = run_explorer(kernel, 1, "generic_small");
        EXPECT_FALSE(serial.pareto.empty());
        for (int threads : {2, 8}) {
            const Run_records parallel = run_explorer(kernel, threads, "generic_small");
            EXPECT_TRUE(same_record(parallel.pareto, serial.pareto)) << "threads " << threads;
            EXPECT_TRUE(same_record(parallel.fit, serial.fit)) << "threads " << threads;
            EXPECT_TRUE(same_record(parallel.validation, serial.validation))
                << "threads " << threads;
        }
    }
}

TEST(Parallel_dse, evaluator_pure_after_calibration) {
    Cone_library library(extract_stencil(kernel_by_name("jacobi").c_source),
                         "jacobi");
    Arch_evaluator evaluator(library, device_by_name("generic_small"),
                             small_evaluator_options());
    EXPECT_FALSE(evaluator.is_calibrated(2));
    // Calibrate the whole (window, depth) grid the instance below reaches:
    // evaluations after this are pure (no model fits, no pool growth).
    evaluator.calibrate(4, 3);
    for (int d = 1; d <= 3; ++d) EXPECT_TRUE(evaluator.is_calibrated(d));

    // Concurrent evaluations of the same instance agree exactly.
    Arch_instance instance;
    instance.window = 3;
    instance.level_depths = {2, 2, 2};
    instance.cores_per_depth = {{2, 2}};
    const std::string reference = serialize_record(evaluator.evaluate(instance));
    // The first evaluation priced the instance's cones; every later one
    // reads the price table and asks the library nothing.
    const long long synthesis_lookups = library.synthesis_lookups();
    const long long cone_lookups = library.cone_lookups();
    std::vector<std::string> seen(16);
    Thread_pool(8).for_each_index(seen.size(), [&](std::size_t i) {
        seen[i] = serialize_record(evaluator.evaluate(instance));
    });
    for (const std::string& s : seen) EXPECT_EQ(s, reference);
    EXPECT_EQ(library.synthesis_lookups() - synthesis_lookups, 0);
    EXPECT_EQ(library.cone_lookups() - cone_lookups, 0);
}

TEST(Parallel_dse, repeated_exploration_reads_only_the_price_table) {
    Cone_library library(extract_stencil(kernel_by_name("igf").c_source), "igf");
    Explorer explorer(library, device_by_name("xc6vlx760"), small_evaluator_options(),
                      small_space(4));
    const std::string first = serialize_record(explorer.explore_pareto());
    const long long synthesis_lookups = library.synthesis_lookups();
    const long long cone_lookups = library.cone_lookups();
    EXPECT_TRUE(same_record(serialize_record(explorer.explore_pareto()), first));
    EXPECT_EQ(library.synthesis_lookups() - synthesis_lookups, 0);
    EXPECT_EQ(library.cone_lookups() - cone_lookups, 0);
}

// The price table is a memo, not a second model: every point a calibrated
// explorer reports serializes exactly like a fresh, uncalibrated evaluator
// over a fresh library re-pricing its instance, which resolves each cone
// from the library on every use.
TEST(Parallel_dse, price_table_matches_unmemoized_evaluation) {
    for (const std::string& kernel : kernel_names()) {
        SCOPED_TRACE(kernel);
        const std::string source = kernel_by_name(kernel).c_source;
        Cone_library reference(extract_stencil(source), kernel);
        for (const std::string device : {"generic_small", "xc6vlx760"}) {
            SCOPED_TRACE(device);
            const Arch_evaluator fresh(reference, device_by_name(device),
                                       small_evaluator_options());
            for (int threads : {1, 8}) {
                SCOPED_TRACE(threads);
                Cone_library library(extract_stencil(source), kernel);
                Explorer explorer(library, device_by_name(device),
                                  small_evaluator_options(), small_space(threads));
                const Pareto_result pareto = explorer.explore_pareto();
                ASSERT_FALSE(pareto.points.empty());
                for (const Arch_evaluation& point : pareto.points) {
                    ASSERT_TRUE(same_record(serialize_record(point),
                                            serialize_record(fresh.evaluate(point.instance))));
                }
                for (const Fit_cell& cell : explorer.fit_device().grid) {
                    if (!cell.valid) continue;
                    ASSERT_TRUE(same_record(serialize_record(cell.eval),
                                            serialize_record(fresh.evaluate(cell.eval.instance))));
                }
                // Instances no exploration reports take evaluate()'s early
                // returns: a class without cores, a class with none allocated.
                Arch_instance idle;
                idle.window = 3;
                idle.level_depths = {3, 3};
                idle.cores_per_depth = {{3, 0}};
                Arch_instance missing = idle;
                missing.level_depths = {3, 2, 1};
                missing.cores_per_depth = {{1, 1}, {3, 1}};
                for (const Arch_instance& instance : {idle, missing}) {
                    const Arch_evaluation e = explorer.evaluator().evaluate(instance);
                    EXPECT_FALSE(e.feasible);
                    EXPECT_TRUE(same_record(serialize_record(e),
                                            serialize_record(fresh.evaluate(instance))));
                }
            }
        }
        // A device without the block RAM for the buffers: the last early
        // return, through a calibrated evaluator and a fresh one.
        Fpga_device no_bram = device_by_name("generic_small");
        no_bram.name = "generic_small_1kbit";
        no_bram.bram_kbits = 1;
        Cone_library library(extract_stencil(source), kernel);
        Arch_evaluator calibrated(library, no_bram, small_evaluator_options());
        calibrated.calibrate(4, 3);
        Arch_instance instance;
        instance.window = 4;
        instance.level_depths = {3, 3};
        instance.cores_per_depth = {{3, 2}};
        const Arch_evaluation e = calibrated.evaluate(instance);
        EXPECT_FALSE(e.feasible);
        EXPECT_NE(e.infeasible_reason.find("on-chip buffers"), std::string::npos);
        EXPECT_TRUE(same_record(
            serialize_record(e),
            serialize_record(
                Arch_evaluator(reference, no_bram, small_evaluator_options())
                    .evaluate(instance))));
    }
}

TEST(Parallel_dse, cone_library_survives_concurrent_hammering) {
    Cone_library library(extract_stencil(kernel_by_name("jacobi").c_source),
                         "jacobi");
    const Fpga_device& device = device_by_name("generic_small");
    const Synth_options synth;
    const int max_window = 4;
    const int max_depth = 3;

    // 8 threads race over the whole grid several times; every (w, d) cone and
    // synthesis must be built exactly once and stay stable.
    std::vector<const Cone*> first_pass(
        static_cast<std::size_t>(max_window * max_depth), nullptr);
    std::atomic<long long> checksum{0};
    Thread_pool(8).for_each_index(
        static_cast<std::size_t>(max_window * max_depth) * 8, [&](std::size_t i) {
            const std::size_t cell = i % (max_window * max_depth);
            const int w = static_cast<int>(cell) / max_depth + 1;
            const int d = static_cast<int>(cell) % max_depth + 1;
            const Cone& cone = library.cone(w, d);
            checksum.fetch_add(library.stats(w, d).register_count);
            const Synthesis_report& report = library.synthesis(w, d, device, synth);
            EXPECT_GT(report.lut_count, 0.0);
            // The first writer records the address; later readers of the
            // same cell must see the same object.
            const Cone* expected = nullptr;
            if (!std::atomic_ref<const Cone*>(first_pass[cell])
                     .compare_exchange_strong(expected, &cone)) {
                EXPECT_EQ(expected, &cone);
            }
        });

    EXPECT_EQ(library.cone_builds(), max_window * max_depth);
    EXPECT_EQ(library.synthesis_runs(), max_window * max_depth);
    // Exactly the two direct lookups per body run: a synthesis miss (racing
    // duplicates included) looks its cone up without touching the meter.
    EXPECT_EQ(library.cone_lookups(),
              static_cast<long long>(max_window * max_depth) * 8 * 2);
    // The meter equals the key-ordered sum of the cached costs regardless of
    // the schedule that filled the cache.
    double total = 0.0;
    for (double c : library.synthesis_costs()) total += c;
    EXPECT_DOUBLE_EQ(library.synthesis_cpu_seconds(), total);
}

TEST(Parallel_dse, sweep_session_matches_standalone_explorers) {
    Sweep_config config;
    config.kernels = {"jacobi", "igf"};
    config.devices = {"generic_small", "xc6vlx760"};
    config.iteration_counts = {4, 6};
    config.frame_width = 320;
    config.frame_height = 240;
    config.space = small_space(2);

    const Sweep_report report = Sweep_service().run(config);
    ASSERT_EQ(report.entries.size(), 8u);

    // Entries come back kernel-major, then device, then N.
    EXPECT_EQ(report.entries[0].kernel, "jacobi");
    EXPECT_EQ(report.entries[0].device, "generic_small");
    EXPECT_EQ(report.entries[0].iterations, 4);
    EXPECT_EQ(report.entries[7].kernel, "igf");
    EXPECT_EQ(report.entries[7].device, "xc6vlx760");
    EXPECT_EQ(report.entries[7].iterations, 6);

    // Each entry equals what a standalone explorer finds for that combo.
    for (const Sweep_entry& entry : report.entries) {
        Cone_library library(
            extract_stencil(kernel_by_name(entry.kernel).c_source), entry.kernel);
        Evaluator_options evaluator_options;
        evaluator_options.frame_width = config.frame_width;
        evaluator_options.frame_height = config.frame_height;
        Space_options space = config.space;
        space.iterations = entry.iterations;
        Explorer explorer(library, device_by_name(entry.device),
                          evaluator_options, space);
        const Fit_result fit = explorer.fit_device();
        ASSERT_EQ(entry.fits, fit.has_best);
        if (entry.fits) {
            EXPECT_EQ(serialize_record(entry.best), serialize_record(fit.best));
        }
    }

    // The shared cache builds each kernel's cone grid once, not once per
    // device x iteration-count combination.
    const int grid = config.space.max_window * config.space.max_depth;
    EXPECT_EQ(report.cone_builds, 2 * grid);
    // Syntheses are shared across iteration counts (keyed by device only).
    EXPECT_EQ(report.synthesis_runs,
              2 * grid * static_cast<int>(config.devices.size()));
    EXPECT_GT(report.synthesis_lookups, report.synthesis_runs);
}

TEST(Parallel_dse, sweep_validation_is_exact_and_changes_nothing_else) {
    Sweep_config config;
    config.kernels = {"jacobi", "life"};
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {3};
    config.frame_width = 320;
    config.frame_height = 240;
    config.space = small_space(2);
    config.validation_frame_width = 20;
    config.validation_frame_height = 14;

    const Sweep_report plain = Sweep_service().run(config);

    config.validate = true;
    const Sweep_report validated = Sweep_service().run(config);

    ASSERT_EQ(plain.entries.size(), validated.entries.size());
    for (std::size_t i = 0; i < plain.entries.size(); ++i) {
        const Sweep_entry& p = plain.entries[i];
        const Sweep_entry& v = validated.entries[i];
        SCOPED_TRACE(p.kernel);
        // Validation is additive: the exploration results are untouched.
        EXPECT_FALSE(p.validated);
        EXPECT_EQ(p.fits, v.fits);
        if (p.fits) {
            EXPECT_EQ(serialize_record(p.best), serialize_record(v.best));
            // Double-mode architecture simulation must reproduce the ghost
            // golden exactly — any deviation is a flow bug.
            EXPECT_TRUE(v.validated);
            EXPECT_EQ(v.validation_max_abs_err, 0.0);
        } else {
            EXPECT_FALSE(v.validated);
        }
    }
    // The report renders the golden column.
    EXPECT_NE(to_string(validated).find("exact"), std::string::npos);
}

TEST(Parallel_dse, explorer_shared_pool_results_are_byte_identical) {
    // An explorer on an injected pool must produce the records of a serial
    // explorer; the same pool serves several explorers in sequence (the
    // sweep session's usage pattern).
    const Kernel_def& kernel = kernel_by_name("igf");
    Thread_pool pool(4);
    for (const std::string device : {"generic_small", "xc6vlx760"}) {
        SCOPED_TRACE(device);
        Cone_library serial_lib(extract_stencil(kernel.c_source), kernel.name);
        Explorer serial(serial_lib, device_by_name(device),
                        small_evaluator_options(), small_space(1));
        Cone_library pooled_lib(extract_stencil(kernel.c_source), kernel.name);
        Explorer pooled(pooled_lib, device_by_name(device),
                        small_evaluator_options(), small_space(1), &pool);
        EXPECT_TRUE(same_record(serialize_record(pooled.explore_pareto()),
                                serialize_record(serial.explore_pareto())));
        EXPECT_TRUE(same_record(serialize_record(pooled.fit_device()),
                                serialize_record(serial.fit_device())));
    }
}

// One cold Pareto sweep and device fit of IGF at the paper's evaluation
// setup, the run bench/micro_dse_parallel reports, with its records and the
// synthesis workload the cone library discovered.
struct Paper_sweep {
    std::string pareto;
    std::string fit;
    double synthesis_cpu_seconds = 0.0;
    std::vector<double> synthesis_costs;
};

Paper_sweep run_paper_sweep(int threads) {
    Sweep_config config = islhls_bench::paper_config();
    config.space.threads = threads;
    Sweep_service service;  // a fresh library per run
    Explorer explorer = islhls_bench::explorer_for(service, "igf", config);
    Paper_sweep run;
    run.pareto = serialize_record(explorer.explore_pareto());
    run.fit = serialize_record(explorer.fit_device());
    run.synthesis_cpu_seconds = service.library("igf").synthesis_cpu_seconds();
    run.synthesis_costs = service.library("igf").synthesis_costs();
    return run;
}

// The parallel-DSE contract at the paper's setup: 8 threads change no byte
// of the records and discover the same synthesis jobs, and those jobs
// scheduled on 8 synthesis workers cut the serial synthesis time >= 3x.
// The costs are modeled tool runtimes, so the ratio does not depend on the
// host's cores.
TEST(Parallel_dse, paper_sweep_identical_and_synthesis_makespan_scales) {
    const Paper_sweep serial = run_paper_sweep(1);
    const Paper_sweep parallel = run_paper_sweep(8);
    EXPECT_TRUE(same_record(parallel.pareto, serial.pareto));
    EXPECT_TRUE(same_record(parallel.fit, serial.fit));
    EXPECT_EQ(parallel.synthesis_costs, serial.synthesis_costs);
    ASSERT_FALSE(parallel.synthesis_costs.empty());
    const double makespan = lpt_makespan(parallel.synthesis_costs, 8);
    ASSERT_GT(makespan, 0.0);
    EXPECT_GE(serial.synthesis_cpu_seconds / makespan, 3.0);
}

TEST(Parallel_dse, sweep_rejects_bad_config) {
    Sweep_config config;
    EXPECT_THROW(validate_config(config), Error);
    config.kernels = {"jacobi"};
    config.devices = {"generic_small"};
    config.iteration_counts = {4, 0};
    EXPECT_THROW(validate_config(config), Error);
    // A non-finite PSNR target would reject every format (NaN) or accept
    // any (-inf), so every caller's config is refused, not just request files.
    config.iteration_counts = {4};
    EXPECT_NO_THROW(validate_config(config));
    for (double target : {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()}) {
        config.format_search.target_psnr_db = target;
        EXPECT_THROW(validate_config(config), User_error) << target;
    }
}

}  // namespace
}  // namespace islhls
