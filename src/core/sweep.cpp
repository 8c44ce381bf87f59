#include "core/sweep.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace islhls {

const std::vector<std::string>& sweep_backends() {
    static const std::vector<std::string> kBackends = {"paper", "streaming"};
    return kBackends;
}

void validate_thread_count(int threads) {
    if (threads < 0 || threads > max_threads) {
        throw User_error(cat("thread count ", threads, " must be 0 (all cores) or 1..",
                             max_threads));
    }
}

void validate_config(const Sweep_config& config) {
    // User-facing configuration errors, not internal invariants.
    if (config.kernels.empty()) {
        throw User_error("sweep needs at least one kernel");
    }
    if (config.devices.empty()) {
        throw User_error("sweep needs at least one device");
    }
    if (config.iteration_counts.empty()) {
        throw User_error("sweep needs at least one iteration count");
    }
    for (int n : config.iteration_counts) {
        if (n < 1) {
            throw User_error(cat("sweep iteration count ", n, " must be >= 1"));
        }
    }
    if (config.frame_width < 1 || config.frame_height < 1) {
        throw User_error(cat("sweep frame ", config.frame_width, "x",
                             config.frame_height, " must be positive"));
    }
    validate_thread_count(config.space.threads);
    if (config.backends.empty()) {
        throw User_error("sweep needs at least one backend");
    }
    const std::vector<std::string>& known = sweep_backends();
    for (std::size_t i = 0; i < config.backends.size(); ++i) {
        const std::string& backend = config.backends[i];
        if (std::find(known.begin(), known.end(), backend) == known.end()) {
            throw User_error(cat("unknown sweep backend '", backend, "' (expected ",
                                 join(known, " or "), ")"));
        }
        for (std::size_t j = 0; j < i; ++j) {
            if (config.backends[j] == backend) {
                throw User_error(cat("sweep backend '", backend,
                                     "' listed more than once"));
            }
        }
    }
    if (!std::isfinite(config.format_search.target_psnr_db)) {
        throw User_error(cat("format search PSNR target ",
                             config.format_search.target_psnr_db, " must be finite"));
    }
    const Fixed_format& format = config.format;
    if (format.integer_bits < 1 || format.frac_bits < 0 || format.total_bits() < 2 ||
        format.total_bits() > 62) {
        throw User_error(cat("sweep format ", to_string(format),
                             " needs m >= 1 integer bits (the sign bit), f >= 0 and "
                             "2..62 bits in all"));
    }
    if (config.validate_fixed) {
        // The raw-word comparison reconstructs the simulator's words from
        // its from_raw outputs, which is exact only while every raw word
        // fits a double's 53-bit mantissa. Formats beyond that would report
        // phantom LSB errors, so reject them up front (the search side is
        // bounded by max_total_bits the same way).
        const int widest = std::max(config.format.total_bits(),
                                    config.search_formats
                                        ? config.format_search.max_total_bits
                                        : 0);
        if (widest > 53) {
            throw User_error(cat("--validate-fixed needs formats of at most 53 "
                                 "bits (raw words must be exactly representable "
                                 "in double), got ", widest));
        }
    }
}

Evaluator_options evaluator_options_for(const Sweep_config& config) {
    Evaluator_options options;
    options.frame_width = config.frame_width;
    options.frame_height = config.frame_height;
    options.format = config.format;
    options.synth.format = config.format;
    options.throughput = config.throughput;
    options.calibration_windows = config.calibration_windows;
    return options;
}

std::string report_table(const Sweep_report& report) {
    // The backend, format and fixed-golden columns only appear when some
    // entry carries them, so plain paper-only sweeps keep the classic
    // nine-column layout byte for byte.
    bool any_backend = false;
    bool any_format = false;
    bool any_fixed = false;
    for (const Sweep_entry& e : report.entries) {
        any_backend |= e.backend != "paper";
        any_format |= e.format_searched;
        any_fixed |= e.validated_fixed;
    }
    std::vector<std::string> header = {"kernel", "device", "N"};
    if (any_backend) header.push_back("backend");
    header.insert(header.end(), {"fit", "architecture", "fps", "kLUTs (est)",
                                 "pareto", "golden"});
    if (any_format) {
        header.push_back("format");
        header.push_back("kLUTs@fmt");
        header.push_back("fps@fmt");
        header.push_back("psnr@fmt");
    }
    if (any_fixed) header.push_back("golden(fx)");
    Table table(header);
    for (const Sweep_entry& e : report.entries) {
        const std::string pareto =
            e.pareto_points > 0
                ? cat(e.pareto_front_size, "/", e.pareto_points)
                : std::string("-");
        const std::string golden =
            e.validated ? (e.validation_max_abs_err == 0.0
                               ? std::string("exact")
                               : cat("err ", e.validation_max_abs_err))
                        : std::string("-");
        std::vector<std::string> row = {e.kernel, e.device, cat(e.iterations)};
        if (any_backend) row.push_back(e.backend);
        if (e.fits && e.backend == "streaming") {
            row.insert(row.end(),
                       {"yes", to_string(e.streaming_best.config),
                        format_fixed(e.streaming_best.fps, 1),
                        format_fixed(e.streaming_best.area_luts / 1e3, 1), pareto,
                        golden});
        } else if (e.fits) {
            row.insert(row.end(),
                       {"yes", to_string(e.best.instance),
                        format_fixed(e.best.throughput.fps, 1),
                        format_fixed(e.best.estimated_area_luts / 1e3, 1), pareto,
                        golden});
        } else {
            row.insert(row.end(), {"no", "-", "-", "-", pareto, golden});
        }
        if (any_format) {
            if (e.format_searched && e.format_satisfiable) {
                row.push_back(to_string(e.fixed_format));
                row.push_back(format_fixed(e.searched_area_luts / 1e3, 1));
                row.push_back(format_fixed(e.searched_fps, 1));
                // An exact covering format has no finite PSNR — the flag is
                // rendered, not a sentinel decibel number.
                row.push_back(e.format_exact
                                  ? std::string("exact")
                                  : cat(format_fixed(e.format_psnr_db, 1), " dB"));
            } else if (e.format_searched) {
                row.insert(row.end(), {"unsat", "-", "-", "-"});
            } else {
                row.insert(row.end(), {"-", "-", "-", "-"});
            }
        }
        if (any_fixed) {
            row.push_back(e.validated_fixed
                              ? (e.validation_max_raw_err == 0.0
                                     ? std::string("exact")
                                     : cat("err ", e.validation_max_raw_err, " lsb"))
                              : std::string("-"));
        }
        table.add_row(std::move(row));
    }
    std::string out = table.to_text();
    // Merged cross-backend fronts, one deterministic table per combination.
    for (const Merged_front& front : report.merged_fronts) {
        out += cat("\nmerged pareto front: ", front.kernel, " on ", front.device,
                   ", N=", front.iterations, " (", front.points.size(),
                   " points)\n");
        Table front_table({"backend", "architecture", "kLUTs (est)", "fps"});
        for (const Merged_front::Point& p : front.points) {
            front_table.add_row({p.backend, p.point.config,
                                 format_fixed(p.point.area_luts / 1e3, 1),
                                 format_fixed(p.point.fps, 1)});
        }
        out += front_table.to_text();
    }
    return out;
}

std::string to_string(const Sweep_report& report) {
    std::string out = report_table(report);
    const long long cone_hits = report.cone_lookups - report.cone_builds;
    const long long synth_hits = report.synthesis_lookups - report.synthesis_runs -
                                 report.synthesis_loads;
    out += cat("\ncache: ", report.cone_builds, " cones built, ", cone_hits,
               " cone hits; ", report.synthesis_runs, " syntheses run, ",
               synth_hits, " synthesis hits\n");
    if (report.entry_hits + report.entry_misses + report.grid_hits +
            report.grid_misses + report.synthesis_loads >
        0) {
        out += cat("result cache: ", report.entry_hits, " entry hits, ",
                   report.entry_misses, " entry misses, ", report.entry_stores,
                   " stored; ", report.grid_hits, " grid hits, ",
                   report.grid_misses, " grid misses; ", report.synthesis_loads,
                   " syntheses loaded\n");
    }
    out += cat("virtual synthesis time ",
               format_fixed(report.synthesis_cpu_seconds / 3600.0, 2),
               " tool-hours; sweep wall time ",
               format_fixed(report.wall_seconds, 2), " s\n");
    return out;
}

}  // namespace islhls
