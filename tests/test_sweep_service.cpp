// Sweep service tests: exact round-trip identity for every cached payload
// type, cache-key discipline, and the headline service contract — a warm
// cache re-serves a request byte-identically while running zero syntheses,
// zero cone builds and zero format searches, and a warm batch reads each
// distinct entry record once; batch mode dedups identical requests, retries
// timeouts with backoff on an injected clock and reports structured
// per-request failures; untrusted counts are bounded.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "core/sweep.hpp"
#include "core/sweep_records.hpp"
#include "kernels/kernels.hpp"
#include "support/result_cache.hpp"
#include "synth/device.hpp"
#include "support/text.hpp"

namespace islhls {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
    const std::string dir =
        (fs::temp_directory_path() / cat("islhls-service-test-", name)).string();
    fs::remove_all(dir);
    return dir;
}

// A small but fully populated sweep config exercising every cached payload
// type (entries, format grids, syntheses) in well under a second.
Sweep_config small_config() {
    Sweep_config config;
    config.kernels = {"igf"};
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {2};
    config.frame_width = 64;
    config.frame_height = 48;
    config.space.max_window = 3;
    config.space.max_depth = 2;
    config.validate = true;
    config.search_formats = true;
    config.format_search.target_psnr_db = 45.0;
    return config;
}

// --- payload round trips ----------------------------------------------------------

Sweep_entry make_full_entry() {
    Sweep_entry entry;
    entry.kernel = "igf";
    entry.device = "xc6vlx760";
    entry.iterations = 7;
    entry.fits = true;
    entry.best.instance.window = 3;
    entry.best.instance.level_depths = {2, 2, 2, 1};
    entry.best.instance.cores_per_depth = {{1, 3}, {2, 5}};
    entry.best.feasible = true;
    entry.best.infeasible_reason = "";
    entry.best.estimated_area_luts = 1.0 / 3.0;  // not exactly representable
    entry.best.actual_area_luts = -0.0;          // signed zero must survive
    entry.best.f_max_mhz = 212.0390625;
    entry.best.windows_per_frame = 123456789012LL;
    entry.best.throughput.cycles_per_window = 17.25;
    entry.best.throughput.core_bound_cycles = std::numeric_limits<double>::infinity();
    entry.best.throughput.onchip_bound_cycles = 5e-324;  // smallest denormal
    entry.best.throughput.offchip_bound_cycles = 0.1;
    entry.best.throughput.bottleneck = "core compute";
    entry.best.throughput.seconds_per_frame = 0.0042;
    entry.best.throughput.fps = 238.095238095238;
    entry.best.throughput.class_cycles = {{1, 2.5}, {2, 1.0 / 7.0}};
    entry.best.memory.input_buffer_kbits = 12.5;
    entry.best.memory.intermediate_kbits = 0.0;
    entry.best.memory.output_buffer_kbits = 99.0;
    entry.best.memory.total_kbits = 111.5;
    entry.best.memory.whole_frame_kbits = 4096.0;
    entry.best.memory.saving_factor = 36.735426008968610;
    entry.pareto_points = 421;
    entry.pareto_front_size = 17;
    entry.front_points.push_back(
        {"w=3 levels=[2 2 2 1] cores={1:3 2:5}", 12345.5, 0.0042, 238.095});
    entry.front_points.push_back({"w=5 levels=[7]", 1.0 / 3.0, -0.0, 3.0});
    entry.validated = true;
    entry.validation_max_abs_err = 0.0;
    entry.format_searched = true;
    entry.format_satisfiable = true;
    entry.fixed_format.integer_bits = 11;
    entry.fixed_format.frac_bits = 9;
    entry.format_exact = true;
    entry.format_psnr_db = 51.03125;
    entry.searched_area_luts = 54321.0;
    entry.searched_fps = 2.0 / 7.0;  // not exactly representable
    entry.searched_f_max_mhz = 187.59375;
    entry.validated_fixed = true;
    entry.validation_max_raw_err = 1.0;
    return entry;
}

TEST(Sweep_records, sweep_entry_round_trip_is_exact) {
    const Sweep_entry entry = make_full_entry();
    const std::string text = serialize_record(entry);
    Sweep_entry parsed;
    std::string error;
    ASSERT_TRUE(parse_record(text, &parsed, &error)) << error;
    // serialize(parse(s)) == s pins every field bit for bit (doubles travel
    // as their IEEE-754 bit patterns, so 1/3, -0.0, inf, denormals all
    // survive exactly).
    EXPECT_EQ(serialize_record(parsed), text);
    EXPECT_EQ(parsed.kernel, entry.kernel);
    EXPECT_EQ(parsed.iterations, entry.iterations);
    EXPECT_EQ(parsed.best.instance.level_depths, entry.best.instance.level_depths);
    EXPECT_EQ(parsed.best.instance.cores_per_depth,
              entry.best.instance.cores_per_depth);
    EXPECT_EQ(parsed.best.estimated_area_luts, entry.best.estimated_area_luts);
    EXPECT_TRUE(std::signbit(parsed.best.actual_area_luts));
    EXPECT_EQ(parsed.best.throughput.core_bound_cycles,
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(parsed.best.throughput.onchip_bound_cycles, 5e-324);
    EXPECT_EQ(parsed.best.throughput.class_cycles, entry.best.throughput.class_cycles);
    EXPECT_EQ(parsed.best.throughput.bottleneck, entry.best.throughput.bottleneck);
    EXPECT_EQ(parsed.pareto_points, entry.pareto_points);
    EXPECT_EQ(parsed.backend, "paper");
    ASSERT_EQ(parsed.front_points.size(), 2u);
    // Configs with internal spaces survive (they are the line's tail).
    EXPECT_EQ(parsed.front_points[0].config, entry.front_points[0].config);
    EXPECT_EQ(parsed.front_points[0].area_luts, entry.front_points[0].area_luts);
    EXPECT_TRUE(std::signbit(parsed.front_points[1].seconds_per_frame));
    EXPECT_EQ(parsed.fixed_format.integer_bits, 11);
    EXPECT_EQ(parsed.fixed_format.frac_bits, 9);
    EXPECT_TRUE(parsed.format_exact);
    EXPECT_EQ(parsed.searched_fps, entry.searched_fps);
    EXPECT_EQ(parsed.searched_f_max_mhz, entry.searched_f_max_mhz);
}

TEST(Sweep_records, streaming_entry_round_trip_is_exact) {
    Sweep_entry entry;
    entry.kernel = "heat";
    entry.device = "xc6vlx760";
    entry.iterations = 8;
    entry.backend = "streaming";
    entry.fits = true;
    entry.streaming_best.config = {2, 4, 2, 1};
    entry.streaming_best.feasible = true;
    entry.streaming_best.area_luts = 123456.75;
    entry.streaming_best.datapath_luts = 100000.0;
    entry.streaming_best.line_buffer_luts = 1.0 / 7.0;
    entry.streaming_best.line_buffer_kbits = 36.5;
    entry.streaming_best.f_max_mhz = 212.0390625;
    entry.streaming_best.passes = 4;
    entry.streaming_best.compute_cycles = 98304.0;
    entry.streaming_best.memory_cycles = 24576.0;
    entry.streaming_best.cycles_per_pass = 98304.0;
    entry.streaming_best.bottleneck = "compute";
    entry.streaming_best.seconds_per_frame = 0.00196;
    entry.streaming_best.fps = 510.2040816326531;
    entry.pareto_points = 12;
    entry.pareto_front_size = 3;
    entry.front_points.push_back({"stream(d=2,v=4,pe=2,ch=1)", 123456.75,
                                  0.00196, 510.2040816326531});
    const std::string text = serialize_record(entry);
    // A streaming entry carries the stream block, not the paper eval block.
    EXPECT_NE(text.find("stream."), std::string::npos);
    EXPECT_EQ(text.find("eval."), std::string::npos);
    Sweep_entry parsed;
    std::string error;
    ASSERT_TRUE(parse_record(text, &parsed, &error)) << error;
    EXPECT_EQ(serialize_record(parsed), text);
    EXPECT_EQ(parsed.backend, "streaming");
    EXPECT_EQ(parsed.streaming_best.config.vector_width, 4);
    EXPECT_EQ(parsed.streaming_best.config.channels, 1);
    EXPECT_EQ(parsed.streaming_best.line_buffer_luts, 1.0 / 7.0);
    EXPECT_EQ(parsed.streaming_best.bottleneck, "compute");
    ASSERT_EQ(parsed.front_points.size(), 1u);
    EXPECT_EQ(parsed.front_points[0].config, "stream(d=2,v=4,pe=2,ch=1)");
}

TEST(Sweep_records, nan_survives_the_round_trip) {
    Sweep_entry entry = make_full_entry();
    entry.best.f_max_mhz = std::numeric_limits<double>::quiet_NaN();
    const std::string text = serialize_record(entry);
    Sweep_entry parsed;
    std::string error;
    ASSERT_TRUE(parse_record(text, &parsed, &error)) << error;
    EXPECT_TRUE(std::isnan(parsed.best.f_max_mhz));
    EXPECT_EQ(serialize_record(parsed), text);
}

TEST(Sweep_records, unfit_entry_skips_the_evaluation_block) {
    Sweep_entry entry;
    entry.kernel = "k";
    entry.device = "d";
    entry.iterations = 1;
    entry.fits = false;
    const std::string text = serialize_record(entry);
    EXPECT_EQ(text.find("eval."), std::string::npos);
    Sweep_entry parsed;
    std::string error;
    ASSERT_TRUE(parse_record(text, &parsed, &error)) << error;
    EXPECT_EQ(serialize_record(parsed), text);
    EXPECT_FALSE(parsed.fits);
}

TEST(Sweep_records, format_grid_round_trip_is_exact) {
    Format_grid grid;
    for (int w = 1; w <= 2; ++w) {
        for (int d = 1; d <= 2; ++d) {
            Format_cell cell;
            cell.window = w;
            cell.depth = d;
            cell.result.format.integer_bits = 8 + w;
            cell.result.format.frac_bits = 4 + d;
            cell.result.psnr_db = 50.0 + 1.0 / (w + d);
            cell.result.exact = (w == 2 && d == 1);
            cell.result.max_abs_value = 255.96875 * w;
            cell.result.range_integer_bits = 9 + w;
            cell.result.formats_tried = w * 10 + d;
            cell.result.satisfiable = (w + d) % 2 == 0;
            // Satisfiable cells carry the full evaluation of their canonical
            // design point; the unsatisfiable ones stay unevaluated.
            cell.evaluated = cell.result.satisfiable;
            if (cell.evaluated) {
                cell.area_luts = 1000.0 * w + 1.0 / d;
                cell.f_max_mhz = 180.0 + 0.125 * d;
                cell.fps = 30.0 * w / 7.0;
            }
            grid.cells.push_back(cell);
        }
    }
    const std::string text = serialize_record(grid);
    Format_grid parsed;
    std::string error;
    ASSERT_TRUE(parse_record(text, &parsed, &error)) << error;
    EXPECT_EQ(serialize_record(parsed), text);
    ASSERT_EQ(parsed.cells.size(), grid.cells.size());
    EXPECT_EQ(parsed.cells[3].result.psnr_db, grid.cells[3].result.psnr_db);
    EXPECT_EQ(parsed.cells[3].result.satisfiable, grid.cells[3].result.satisfiable);
    EXPECT_EQ(parsed.cells[2].result.exact, grid.cells[2].result.exact);
    EXPECT_EQ(parsed.cells[3].result.range_integer_bits,
              grid.cells[3].result.range_integer_bits);
    EXPECT_EQ(parsed.cells[3].evaluated, grid.cells[3].evaluated);
    EXPECT_EQ(parsed.cells[3].area_luts, grid.cells[3].area_luts);
    EXPECT_EQ(parsed.cells[3].f_max_mhz, grid.cells[3].f_max_mhz);
    EXPECT_EQ(parsed.cells[3].fps, grid.cells[3].fps);
}

TEST(Sweep_records, synthesis_report_round_trip_is_exact) {
    Synthesis_report report;
    report.design_name = "igf cone w3 d2";
    report.lut_count = 1234.567;
    report.raw_lut_count = 1300.0;
    report.ff_count = 999.0;
    report.dsp_count = 12;
    report.bram_kbits = 36.125;
    report.f_max_mhz = 201.5;
    report.latency_cycles = 17;
    report.register_count = 421;
    report.synthesis_cpu_seconds = 3600.25;
    report.fits = true;
    const std::string text = serialize_record(report);
    Synthesis_report parsed;
    std::string error;
    ASSERT_TRUE(parse_record(text, &parsed, &error)) << error;
    EXPECT_EQ(serialize_record(parsed), text);
    EXPECT_EQ(parsed.design_name, report.design_name);
    EXPECT_EQ(parsed.lut_count, report.lut_count);
    EXPECT_EQ(parsed.dsp_count, report.dsp_count);
}

TEST(Sweep_records, strict_parsers_reject_mutations) {
    const std::string text = serialize_record(make_full_entry());
    Sweep_entry parsed;
    std::string error;
    // Truncated: drop the trailing "end\n".
    EXPECT_FALSE(parse_record(text.substr(0, text.size() - 4), &parsed, &error));
    // Trailing garbage after "end".
    EXPECT_FALSE(parse_record(text + "extra\n", &parsed, &error));
    // Renamed field.
    std::string renamed = text;
    renamed.replace(renamed.find("kernel "), 7, "kernle ");
    EXPECT_FALSE(parse_record(renamed, &parsed, &error));
    EXPECT_NE(error.find("expected"), std::string::npos);
    // Wrong version token (a stale v3-era record must degrade to a miss).
    std::string reversioned = text;
    ASSERT_NE(reversioned.find("v4"), std::string::npos);
    reversioned.replace(reversioned.find("v4"), 2, "v3");
    EXPECT_FALSE(parse_record(reversioned, &parsed, &error));
    // Malformed double (hex digits replaced).
    std::string bad_double = text;
    const auto pos = bad_double.find("validation_max_abs_err ");
    bad_double.replace(pos + 23, 4, "zzzz");
    EXPECT_FALSE(parse_record(bad_double, &parsed, &error));
    // Values in any spelling but the canonical one: a parser that accepted
    // them would re-serialize different bytes.
    const auto replaced = [&text](const std::string& from, const std::string& to) {
        const std::size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return text.substr(0, at) + to + text.substr(at + from.size());
    };
    for (const std::string& bad :
         {replaced("iterations 7\n", "iterations +7\n"),
          replaced("iterations 7\n", "iterations  7\n"),
          replaced("iterations 7\n", "iterations 07\n"),
          replaced("iterations 7\n", "iterations 4294967303\n"),  // 2^32 + 7
          replaced("pareto_points 421\n", "pareto_points -421\n"),
          replaced("eval.depths 2 2 2 1\n", "eval.depths 2 2 2 1 \n"),
          replaced("eval.cores 1:3 2:5\n", "eval.cores 2:5 1:3\n"),
          replaced("eval.cores 1:3 2:5\n", "eval.cores 1:3 1:5\n"),
          replaced("format 11 9\n", "format 11 +9\n"),
          replaced("validated 1\n", "validated 2\n"),
          replaced("validated_fixed 1\n", "validated_fixed 1 \n"),
          text.substr(0, text.size() - 1)}) {  // no final newline
        EXPECT_FALSE(parse_record(bad, &parsed, &error)) << bad;
    }
    // Wrong record type entirely.
    Format_grid grid;
    EXPECT_FALSE(parse_record(text, &grid, &error));
}

TEST(Sweep_records, double_bits_codec_is_exact_and_strict) {
    for (double v : {0.0, -0.0, 1.0 / 3.0, 5e-324,
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::max()}) {
        double decoded = 1.0;
        ASSERT_TRUE(decode_double_bits(encode_double_bits(v), &decoded));
        EXPECT_EQ(encode_double_bits(decoded), encode_double_bits(v));
    }
    double out;
    EXPECT_FALSE(decode_double_bits("", &out));
    EXPECT_FALSE(decode_double_bits("123", &out));                  // short
    EXPECT_FALSE(decode_double_bits("00000000000000000", &out));    // long
    EXPECT_FALSE(decode_double_bits("000000000000000G", &out));     // bad digit
    EXPECT_FALSE(decode_double_bits("3FF000000000000A", &out));     // upper case
}

// --- cache keys -------------------------------------------------------------------

TEST(Sweep_records, keys_track_results_not_thread_counts) {
    const Sweep_config base = small_config();
    const std::string ir = "kernel igf\n";
    const std::string key = sweep_entry_key(ir, base, "xc6vlx760", 2, "paper");
    // Result-affecting knobs change the key...
    Sweep_config changed = base;
    changed.format.frac_bits += 1;
    EXPECT_NE(sweep_entry_key(ir, changed, "xc6vlx760", 2, "paper"), key);
    changed = base;
    changed.frame_width = 128;
    EXPECT_NE(sweep_entry_key(ir, changed, "xc6vlx760", 2, "paper"), key);
    changed = base;
    changed.validate = false;
    EXPECT_NE(sweep_entry_key(ir, changed, "xc6vlx760", 2, "paper"), key);
    EXPECT_NE(sweep_entry_key(ir, base, "xc7vx485t", 2, "paper"), key);
    EXPECT_NE(sweep_entry_key(ir, base, "xc6vlx760", 3, "paper"), key);
    // ...as does the backend: paper and streaming entries never alias.
    EXPECT_NE(sweep_entry_key(ir, base, "xc6vlx760", 2, "streaming"), key);
    // The backend *list* lives in the request key, not the entry key: a
    // multi-backend request re-serves the single-backend run's paper entries.
    changed = base;
    changed.backends = {"paper", "streaming"};
    EXPECT_EQ(sweep_entry_key(ir, changed, "xc6vlx760", 2, "paper"), key);
    EXPECT_NE(sweep_request_key(changed), sweep_request_key(base));
    // ...thread counts do not (results are thread-invariant by contract).
    changed = base;
    changed.space.threads = 16;
    EXPECT_EQ(sweep_entry_key(ir, changed, "xc6vlx760", 2, "paper"), key);
    EXPECT_EQ(sweep_request_key(changed), sweep_request_key(base));
    EXPECT_EQ(format_grid_key(ir, changed, "xc6vlx760"),
              format_grid_key(ir, base, "xc6vlx760"));
    // The grid's per-cell evaluations are priced on a device, so grids from
    // different devices never alias; neither do shrink-on and shrink-off
    // searches.
    EXPECT_NE(format_grid_key(ir, base, "xc7vx485t"),
              format_grid_key(ir, base, "xc6vlx760"));
    changed = base;
    changed.format_search.shrink_integer_bits = false;
    EXPECT_NE(format_grid_key(ir, changed, "xc6vlx760"),
              format_grid_key(ir, base, "xc6vlx760"));
}

// --- the service ------------------------------------------------------------------

TEST(Sweep_service, warm_cache_is_byte_identical_and_runs_nothing) {
    const std::string dir = fresh_dir("warm");
    const Sweep_config config = small_config();

    // Reference: a plain in-memory service.
    const Sweep_report reference = Sweep_service().run(config);

    Service_options options;
    options.cache_dir = dir;
    std::string cold_table;
    {
        Sweep_service service(options);
        const Sweep_report cold = service.run(config);
        cold_table = report_table(cold);
        EXPECT_EQ(cold_table, report_table(reference));
        EXPECT_EQ(cold.entry_hits, 0);
        EXPECT_EQ(cold.entry_misses, 1);
        EXPECT_EQ(cold.entry_stores, 1);
        EXPECT_EQ(cold.grid_misses, 1);
        EXPECT_GT(cold.synthesis_runs, 0);
    }
    // A fresh service over the same directory (a new process, effectively).
    Sweep_service warm_service(options);
    const Sweep_report warm = warm_service.run(config);
    EXPECT_EQ(report_table(warm), cold_table);
    EXPECT_EQ(warm.entry_hits, static_cast<int>(warm.entries.size()));
    EXPECT_EQ(warm.entry_misses, 0);
    // The hit counters prove nothing was recomputed.
    EXPECT_EQ(warm.cone_builds, 0);
    EXPECT_EQ(warm.synthesis_runs, 0);
    EXPECT_EQ(warm.synthesis_loads, 0);  // entry hits short-circuit synthesis
    EXPECT_EQ(warm.synthesis_cpu_seconds, 0.0);
    fs::remove_all(dir);
}

TEST(Sweep_service, mixed_backend_cache_never_crosses_backends) {
    const std::string dir = fresh_dir("mixed");
    Sweep_config paper_only = small_config();
    paper_only.validate = false;
    paper_only.search_formats = false;
    paper_only.with_pareto = true;

    Service_options options;
    options.cache_dir = dir;
    {
        // A cold paper-only run seeds the cache.
        Sweep_service service(options);
        const Sweep_report cold = service.run(paper_only);
        EXPECT_EQ(cold.entry_hits, 0);
        EXPECT_EQ(cold.entry_stores, 1);
    }
    Sweep_config both = paper_only;
    both.backends = {"paper", "streaming"};
    std::string mixed_table;
    {
        // The multi-backend request re-serves the paper entry from the warm
        // cache but must compute the streaming one: the backend name is part
        // of the entry key, so a paper record can never answer a streaming
        // lookup.
        Sweep_service service(options);
        const Sweep_report mixed = service.run(both);
        ASSERT_EQ(mixed.entries.size(), 2u);
        EXPECT_EQ(mixed.entry_hits, 1);
        EXPECT_EQ(mixed.entry_misses, 1);
        EXPECT_EQ(mixed.entry_stores, 1);
        EXPECT_EQ(mixed.entries[0].backend, "paper");
        EXPECT_EQ(mixed.entries[1].backend, "streaming");
        ASSERT_EQ(mixed.merged_fronts.size(), 1u);
        EXPECT_GE(mixed.merged_fronts[0].points.size(), 1u);
        mixed_table = report_table(mixed);
    }
    // A fully warm mixed run serves both entries and rebuilds the merged
    // front from the cached front_points with zero recomputation.
    Sweep_service warm_service(options);
    const Sweep_report warm = warm_service.run(both);
    EXPECT_EQ(warm.entry_hits, 2);
    EXPECT_EQ(warm.entry_misses, 0);
    EXPECT_EQ(warm.cone_builds, 0);
    EXPECT_EQ(warm.synthesis_runs, 0);
    ASSERT_EQ(warm.merged_fronts.size(), 1u);
    EXPECT_EQ(report_table(warm), mixed_table);
    fs::remove_all(dir);
}

TEST(Sweep_service, same_service_memoizes_repeat_requests) {
    Sweep_service service;  // no persistent cache: in-memory only
    const Sweep_config config = small_config();
    const Sweep_report first = service.run(config);
    const Sweep_report second = service.run(config);
    EXPECT_EQ(report_table(first), report_table(second));
    // The resident libraries served the repeat: no new cones or syntheses.
    EXPECT_EQ(second.cone_builds, 0);
    EXPECT_EQ(second.synthesis_runs, 0);
}

TEST(Sweep_service, batch_dedups_and_isolates_failures) {
    Sweep_service service;
    std::vector<Sweep_config> requests;
    requests.push_back(small_config());
    requests.push_back(small_config());  // identical: must dedup
    Sweep_config bad = small_config();
    bad.kernels = {"no_such_kernel"};
    requests.push_back(bad);
    Sweep_config invalid = small_config();
    invalid.iteration_counts = {0};
    requests.push_back(invalid);

    const std::vector<Request_outcome> outcomes = service.run_requests(requests);
    ASSERT_EQ(outcomes.size(), 4u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[0].deduplicated);
    EXPECT_TRUE(outcomes[1].ok);
    EXPECT_TRUE(outcomes[1].deduplicated);
    EXPECT_EQ(report_table(outcomes[0].report), report_table(outcomes[1].report));
    EXPECT_FALSE(outcomes[2].ok);
    EXPECT_EQ(outcomes[2].kind, Error_kind::user);
    EXPECT_NE(outcomes[2].message.find("no_such_kernel"), std::string::npos);
    EXPECT_FALSE(outcomes[3].ok);
    EXPECT_EQ(outcomes[3].kind, Error_kind::user);
    EXPECT_NE(outcomes[3].message.find(">= 1"), std::string::npos);
}

// Real hooks that count whole-file reads of cache records (`.rec`).
struct Record_read_counter {
    int reads = 0;

    Env_hooks hooks() {
        Env_hooks hooks = real_env_hooks();
        hooks.read_file = [this](const std::string& path, std::string* out,
                                 std::string* error) {
            if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".rec") == 0) {
                ++reads;
            }
            return real_env_hooks().read_file(path, out, error);
        };
        return hooks;
    }
};

TEST(Sweep_service, warm_batch_reads_each_entry_record_once) {
    const std::string dir = fresh_dir("warm-batch");
    Sweep_config fill = small_config();
    fill.kernels = {"igf", "jacobi"};
    fill.iteration_counts = {2, 3};
    Service_options options;
    options.cache_dir = dir;
    Sweep_service(options).run(fill);

    // Overlapping requests over the four filled entries (two kernels x two
    // iteration counts): eight entry lookups in all.
    std::vector<Sweep_config> batch(4, small_config());
    batch[1].kernels = {"igf", "jacobi"};
    batch[2].kernels = {"jacobi"};
    batch[3].kernels = {"igf", "jacobi"};
    batch[3].iteration_counts = {3, 2};

    Record_read_counter counter;
    const Env_hooks hooks = counter.hooks();
    Service_options counted = options;
    counted.hooks = &hooks;
    const std::vector<Request_outcome> outcomes = Sweep_service(counted).run_requests(batch);
    // Every lookup is a hit, but each distinct entry record is read once.
    EXPECT_EQ(counter.reads, 4);
    ASSERT_EQ(outcomes.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok) << i << ": " << outcomes[i].message;
        const Sweep_report& report = outcomes[i].report;
        EXPECT_EQ(report.entry_hits, static_cast<int>(report.entries.size())) << i;
        EXPECT_EQ(report.entry_misses, 0) << i;
        EXPECT_EQ(report_table(report), report_table(Sweep_service(options).run(batch[i])))
            << i;
    }
    fs::remove_all(dir);
}

TEST(Sweep_service, repeated_kernel_reuses_the_stored_entry_exactly) {
    // A kernel listed twice on a cold cache: the first occurrence computes
    // and stores its entry, and the repeat is served the remembered entry,
    // which must be exactly what a load of the stored record returns.
    const std::string dir = fresh_dir("repeat");
    Sweep_config config = small_config();
    config.kernels = {"igf", "igf"};
    Service_options options;
    options.cache_dir = dir;
    Sweep_service service(options);
    const Sweep_report report = service.run(config);
    ASSERT_EQ(report.entries.size(), 2u);
    EXPECT_EQ(report.entry_misses, 1);
    EXPECT_EQ(report.entry_stores, 1);
    EXPECT_EQ(report.entry_hits, 1);

    const Kernel_def& igf = kernel_by_name("igf");
    const std::string key =
        sweep_entry_key(kernel_ir_key(igf.name, igf.boundary, service.library("igf").step()),
                        config, "xc6vlx760", 2, "paper");
    const std::optional<std::string> payload = Result_cache(dir).load(key);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(serialize_record(report.entries[1]), *payload);
    EXPECT_EQ(serialize_record(report.entries[0]), *payload);
    fs::remove_all(dir);
}

// --- batch loop on an injected clock -----------------------------------------------

// Deterministic clock: every now_ms read advances `tick` ms, and sleep_ms
// records its request and advances the clock by it. No real time passes.
// `unstick_on_sleep` drops the tick to 0 at the first sleep, so a request
// that timed out runs fast on its retry.
struct Fake_clock {
    std::int64_t now = 0;
    std::int64_t tick = 0;
    bool unstick_on_sleep = false;
    int reads = 0;
    std::vector<std::int64_t> sleeps;

    Env_hooks hooks() {
        Env_hooks hooks = real_env_hooks();
        hooks.now_ms = [this] {
            ++reads;
            return now += tick;
        };
        hooks.sleep_ms = [this](std::int64_t ms) {
            sleeps.push_back(ms);
            now += ms;
            if (unstick_on_sleep) tick = 0;
        };
        return hooks;
    }
};

// A request whose first checkpoint already comes after its library exists:
// one kernel, one combination, no Pareto sweep, format search or golden.
Sweep_config quick_config() {
    Sweep_config config = small_config();
    config.validate = false;
    config.search_formats = false;
    return config;
}

TEST(Sweep_service, batch_runs_requests_once_each_in_request_order) {
    Sweep_service service;
    Sweep_config heat = quick_config();
    heat.kernels = {"heat"};
    const std::vector<Request_outcome> outcomes =
        service.run_requests({quick_config(), heat});
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].key, sweep_request_key(quick_config()));
    EXPECT_EQ(outcomes[1].key, sweep_request_key(heat));
    for (const Request_outcome& outcome : outcomes) {
        EXPECT_TRUE(outcome.ok) << outcome.message;
        EXPECT_EQ(outcome.attempts, 1);
        EXPECT_FALSE(outcome.deduplicated);
    }
    EXPECT_EQ(outcomes[0].report.entries.at(0).kernel, "igf");
    EXPECT_EQ(outcomes[1].report.entries.at(0).kernel, "heat");
}

TEST(Sweep_service, identical_requests_execute_once) {
    // Every attempt reads the clock twice before it times out (its deadline,
    // then its first checkpoint), so the read count counts executions.
    Fake_clock clock;
    clock.tick = 50;
    const Env_hooks hooks = clock.hooks();
    Service_options options;
    options.hooks = &hooks;
    options.deadline_ms = 10;
    options.max_attempts = 1;
    Sweep_service service(options);
    const std::vector<Request_outcome> outcomes =
        service.run_requests(std::vector<Sweep_config>(5, quick_config()));
    EXPECT_EQ(clock.reads, 2);
    ASSERT_EQ(outcomes.size(), 5u);
    EXPECT_FALSE(outcomes[0].deduplicated);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].kind, Error_kind::timeout) << i;
        EXPECT_EQ(outcomes[i].message, outcomes[0].message) << i;
        EXPECT_EQ(outcomes[i].deduplicated, i > 0) << i;
    }
}

TEST(Sweep_service, timed_out_request_retries_after_one_backoff) {
    Fake_clock clock;
    clock.tick = 50;  // every clock read blows the 10 ms deadline...
    clock.unstick_on_sleep = true;  // ...until the first backoff sleep
    const Env_hooks hooks = clock.hooks();
    Service_options options;
    options.hooks = &hooks;
    options.deadline_ms = 10;
    Sweep_service service(options);
    const std::vector<Request_outcome> outcomes = service.run_requests({quick_config()});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].message;
    EXPECT_EQ(outcomes[0].attempts, 2);
    EXPECT_EQ(clock.sleeps, (std::vector<std::int64_t>{100}));
    EXPECT_EQ(report_table(outcomes[0].report),
              report_table(Sweep_service().run(quick_config())));
}

TEST(Sweep_service, timeouts_exhaust_into_a_structured_outcome) {
    Fake_clock clock;
    clock.tick = 50;
    const Env_hooks hooks = clock.hooks();
    Service_options options;
    options.hooks = &hooks;
    options.deadline_ms = 10;
    options.max_attempts = 3;
    Sweep_service service(options);
    const std::vector<Request_outcome> outcomes = service.run_requests({quick_config()});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].kind, Error_kind::timeout);
    EXPECT_EQ(outcomes[0].attempts, 3);
    EXPECT_EQ(clock.sleeps, (std::vector<std::int64_t>{100, 200}));
    // The message names the request by its key's 16-hex-digit FNV-1a 64
    // digest, not by the 17-line key itself.
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(sweep_request_key(quick_config()))));
    EXPECT_EQ(outcomes[0].message,
              cat("request ", digest, " exceeded its 10 ms deadline (attempt 3)"));
}

TEST(Sweep_service, fast_request_under_a_deadline_succeeds_first_time) {
    Fake_clock clock;
    clock.tick = 1;
    const Env_hooks hooks = clock.hooks();
    Service_options options;
    options.hooks = &hooks;
    options.deadline_ms = 1000;
    Sweep_service service(options);
    const std::vector<Request_outcome> outcomes = service.run_requests({quick_config()});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].message;
    EXPECT_EQ(outcomes[0].attempts, 1);
    EXPECT_TRUE(clock.sleeps.empty());
}

TEST(Sweep_service, user_errors_never_retry) {
    Fake_clock clock;
    const Env_hooks hooks = clock.hooks();
    Service_options options;
    options.hooks = &hooks;
    options.deadline_ms = 10;
    Sweep_service service(options);
    Sweep_config bad = quick_config();
    bad.kernels = {"no_such_kernel"};
    const std::vector<Request_outcome> outcomes = service.run_requests({bad});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].kind, Error_kind::user);
    EXPECT_EQ(outcomes[0].attempts, 1);
    EXPECT_TRUE(clock.sleeps.empty());
}

// --- bounds on untrusted counts -----------------------------------------------------

TEST(Sweep_service, thread_counts_are_bounded) {
    Sweep_config config = quick_config();
    for (int threads : {-1, -100000, max_threads + 1, 100000}) {
        config.space.threads = threads;
        EXPECT_THROW(validate_config(config), User_error) << threads;
        EXPECT_THROW(validate_thread_count(threads), User_error) << threads;
    }
    for (int threads : {0, 1, max_threads}) {
        config.space.threads = threads;
        EXPECT_NO_THROW(validate_config(config)) << threads;
    }
}

TEST(Sweep_service, batch_options_are_bounded) {
    auto rejects = [](std::int64_t deadline_ms, int max_attempts) {
        Service_options options;
        options.deadline_ms = deadline_ms;
        options.max_attempts = max_attempts;
        try {
            Sweep_service service(options);
        } catch (const User_error&) {
            return true;
        }
        return false;
    };
    EXPECT_TRUE(rejects(-1, 3));
    EXPECT_TRUE(rejects(0, 0));
    EXPECT_TRUE(rejects(0, max_request_attempts + 1));
    EXPECT_TRUE(rejects(0, 64));
    EXPECT_FALSE(rejects(0, 1));
    EXPECT_FALSE(rejects(60000, max_request_attempts));
}

// --- source kernels (add_kernel) ----------------------------------------------------

const char* const kBlurSource = R"(
void blur_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++)
        for (int x = 0; x < W; x++)
            u_out[y][x] = 0.5f * u[y][x] + 0.25f * (u[y][x-1] + u[y][x+1]);
}
)";

// Another update under the same function name.
const char* const kBlurVariant = R"(
void blur_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++)
        for (int x = 0; x < W; x++)
            u_out[y][x] = 0.2f * (u[y][x] + u[y-1][x] + u[y+1][x] + u[y][x-1] + u[y][x+1]);
}
)";

// A one-kernel request on a small space and device.
Sweep_config source_config(const std::string& kernel) {
    Sweep_config config;
    config.kernels = {kernel};
    config.devices = {"generic_small"};
    config.iteration_counts = {4};
    config.frame_width = 256;
    config.frame_height = 192;
    config.space.max_window = 3;
    config.space.max_depth = 2;
    return config;
}

TEST(Sweep_service, add_kernel_binds_a_source_to_its_function_name) {
    Sweep_service service;
    const std::string name = service.add_kernel(kBlurSource);
    EXPECT_EQ(name, "blur_step");
    Cone_library& library = service.library(name);
    EXPECT_EQ(library.kernel_name(), "blur_step");
    EXPECT_EQ(library.step().state_fields(), (std::vector<std::string>{"u"}));
    EXPECT_EQ(library.step().footprint(), (Footprint{1, 1, 0, 0}));
    // The same text again is a no-op: same name, same resident library.
    EXPECT_EQ(service.add_kernel(kBlurSource), name);
    EXPECT_EQ(&service.library(name), &library);
    // Different text under the bound name is refused, and the binding holds.
    EXPECT_THROW(service.add_kernel(kBlurVariant), User_error);
    EXPECT_EQ(&service.library(name), &library);
    // So is a function named like a registry kernel.
    EXPECT_THROW(service.add_kernel(R"(
void jacobi(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++)
        for (int x = 0; x < W; x++)
            u_out[y][x] = u[y][x];
}
)"),
                 User_error);
    // Registry kernels keep their registry names.
    EXPECT_EQ(service.library("jacobi").kernel_name(), "jacobi");
    EXPECT_EQ(service.library("jacobi").step().state_fields(),
              (std::vector<std::string>{"u"}));
}

TEST(Sweep_service, add_kernel_propagates_frontend_errors) {
    Sweep_service service;
    try {
        service.add_kernel("void f(");
        FAIL() << "expected a Parse_error";
    } catch (const Parse_error& e) {
        EXPECT_EQ(e.kind(), Error_kind::user);
        EXPECT_EQ(e.line(), 1);
        EXPECT_GT(e.column(), 0);
    }
    EXPECT_THROW(service.add_kernel("void f(float a[H][W]) { for(int y=0;y<H;y++) "
                                    "for(int x=0;x<W;x++) a[y][x] = 0.0f; }"),
                 Sema_error);
    const std::string escaping = "void f(float a_out[H][W], const float a[H][W]) "
                                 "{ for(int y=0;y<H;y++) for(int x=0;x<W;x++) "
                                 "a_out[y][x] = a[0][x]; }";
    EXPECT_THROW(service.add_kernel(escaping), Symexec_error);
    // A failed add binds nothing: the name is still free.
    EXPECT_EQ(service.add_kernel("void f(float a_out[H][W], const float a[H][W]) "
                                 "{ for(int y=0;y<H;y++) for(int x=0;x<W;x++) "
                                 "a_out[y][x] = a[y][x]; }"),
              "f");
}

TEST(Sweep_service, source_kernel_fit_covers_the_requested_iterations) {
    Sweep_service service;
    Sweep_config config = source_config(service.add_kernel(kBlurSource));
    config.iteration_counts = {6};
    config.space.iterations = 999;  // each combination sets its own count
    const Sweep_report report = service.run(config);
    ASSERT_EQ(report.entries.size(), 1u);
    const Sweep_entry& entry = report.entries[0];
    EXPECT_EQ(entry.kernel, "blur_step");
    EXPECT_EQ(entry.iterations, 6);
    ASSERT_TRUE(entry.fits);
    EXPECT_EQ(entry.best.instance.iterations(), 6);
}

// The paper entry a single-kernel run prints: its fit obeys the budget, and
// no point of its front beats the fit inside that budget.
TEST(Sweep_service, paper_entry_fit_is_consistent_with_its_front) {
    Sweep_config config = source_config("jacobi");
    config.with_pareto = true;
    const Sweep_report report = Sweep_service().run(config);
    ASSERT_EQ(report.entries.size(), 1u);
    const Sweep_entry& entry = report.entries[0];
    EXPECT_GT(entry.pareto_points, 5u);
    ASSERT_FALSE(entry.front_points.empty());
    EXPECT_EQ(entry.pareto_front_size, entry.front_points.size());
    ASSERT_TRUE(entry.fits);
    const double budget = static_cast<double>(device_by_name("generic_small").usable_luts());
    EXPECT_LE(entry.best.estimated_area_luts, budget);
    for (const Front_point& p : entry.front_points) {
        if (p.area_luts > budget) continue;
        EXPECT_GE(p.seconds_per_frame * 1.0001, entry.best.throughput.seconds_per_frame)
            << p.config << " beats the device fit inside the budget";
    }
}

TEST(Sweep_service, source_kernel_warm_cache_serves_everything) {
    const std::string dir = fresh_dir("source-warm");
    Service_options options;
    options.cache_dir = dir;
    std::string cold_table;
    {
        Sweep_service service(options);
        const Sweep_report cold = service.run(source_config(service.add_kernel(kBlurSource)));
        EXPECT_EQ(cold.entry_misses, 1);
        EXPECT_EQ(cold.entry_stores, 1);
        EXPECT_GT(cold.synthesis_runs, 0);
        cold_table = report_table(cold);
    }
    Sweep_service service(options);
    const Sweep_report warm = service.run(source_config(service.add_kernel(kBlurSource)));
    EXPECT_EQ(report_table(warm), cold_table);
    EXPECT_EQ(warm.entry_hits, 1);
    EXPECT_EQ(warm.entry_misses, 0);
    EXPECT_EQ(warm.cone_builds, 0);
    EXPECT_EQ(warm.synthesis_runs, 0);
    EXPECT_EQ(warm.synthesis_loads, 0);
    fs::remove_all(dir);
}

TEST(Sweep_service, same_name_different_sources_never_share_cache_records) {
    const std::string dir = fresh_dir("source-shared");
    auto in_memory = [](const char* source) {
        Sweep_service service;
        return report_table(service.run(source_config(service.add_kernel(source))));
    };
    const std::string blur_table = in_memory(kBlurSource);
    const std::string variant_table = in_memory(kBlurVariant);
    ASSERT_NE(blur_table, variant_table);

    Service_options options;
    options.cache_dir = dir;
    Sweep_service first(options);
    Sweep_service second(options);
    const Sweep_report blur = first.run(source_config(first.add_kernel(kBlurSource)));
    const Sweep_report variant =
        second.run(source_config(second.add_kernel(kBlurVariant)));
    EXPECT_EQ(report_table(blur), blur_table);
    EXPECT_EQ(report_table(variant), variant_table);
    // The second service found neither the first one's entry nor its syntheses.
    EXPECT_EQ(variant.entry_hits, 0);
    EXPECT_EQ(variant.entry_misses, 1);
    EXPECT_EQ(variant.synthesis_loads, 0);
    // A third service gets each source's own record back.
    for (const auto& [source, table] :
         {std::pair{kBlurSource, blur_table}, std::pair{kBlurVariant, variant_table}}) {
        Sweep_service third(options);
        const Sweep_report warm = third.run(source_config(third.add_kernel(source)));
        EXPECT_EQ(warm.entry_hits, 1);
        EXPECT_EQ(report_table(warm), table);
    }
    fs::remove_all(dir);
}

TEST(Sweep_service, simulation_options_refuse_source_kernels_up_front) {
    for (bool Sweep_config::*option : {&Sweep_config::validate, &Sweep_config::validate_fixed,
                                       &Sweep_config::search_formats}) {
        Sweep_service service;
        Sweep_config config = source_config(service.add_kernel(kBlurSource));
        config.*option = true;
        try {
            service.run(config);
            FAIL() << "expected a User_error";
        } catch (const User_error& e) {
            EXPECT_NE(std::string(e.what()).find("'blur_step'"), std::string::npos);
        }
        const std::vector<Request_outcome> outcomes = service.run_requests({config});
        ASSERT_EQ(outcomes.size(), 1u);
        EXPECT_FALSE(outcomes[0].ok);
        EXPECT_EQ(outcomes[0].kind, Error_kind::user);
        EXPECT_EQ(outcomes[0].attempts, 1);
        // Refused before any work: no cone was built.
        EXPECT_EQ(service.library("blur_step").cone_builds(), 0);
    }
}

TEST(Sweep_service, run_rejects_an_invalid_config_as_a_user_error) {
    Sweep_config config;  // empty: no kernels
    try {
        Sweep_service().run(config);
        FAIL();
    } catch (const Islhls_error& e) {
        EXPECT_EQ(e.kind(), Error_kind::user);
    }
}

}  // namespace
}  // namespace islhls
