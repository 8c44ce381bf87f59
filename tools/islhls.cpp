// islhls — command-line driver for the ISL HLS flow.
//
//   islhls <kernel.c | builtin:NAME> [options]   one kernel: dependency
//                                                analysis, Pareto set,
//                                                device fit, VHDL
//   islhls sweep --kernels A,B [sweep options]   kernels x devices x N
//   islhls serve --requests FILE [options]       a fault-tolerant batch
//   islhls cache --cache-dir DIR --verify|--gc   inspect or collect a cache
//
// Every command runs through the sweep service (core/service.hpp). The
// single-kernel command is a one-kernel request (a C file is registered
// with Sweep_service::add_kernel), so it takes the sweep options plus a few
// of its own. usage() below is the one option reference (islhls --help).
//
// Exit codes follow the error taxonomy: 0 ok, 2 user error, 3 I/O fault,
// 4 corrupt data, 5 timeout, 70 internal error.
//
// Examples:
//   islhls my_stencil.c --iterations 8 --fit
//   islhls builtin:chambolle --device xc7vx485t --emit-vhdl out/
//   islhls sweep --kernels igf,chambolle --devices all --iterations 4,10 --threads 0
//   islhls sweep --kernels all --cache-dir .islhls-cache
//   islhls serve --requests requests.txt --cache-dir .islhls-cache
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>

#include "backend/vhdl_toplevel.hpp"
#include "core/requests.hpp"
#include "core/service.hpp"
#include "core/sweep.hpp"
#include "kernels/kernels.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "support/text.hpp"
#include "synth/device.hpp"

namespace {

using namespace islhls;

[[noreturn]] void usage(int code) {
    std::cout <<
        R"(usage: islhls <kernel.c | builtin:NAME> [options]
       islhls sweep --kernels A,B|all [sweep options]
       islhls serve --requests FILE [service options]
       islhls cache --cache-dir DIR --verify|--gc
single-kernel options (a one-kernel sweep request: every sweep option but
--kernels, with one device and one iteration count, plus):
  --device NAME     target FPGA, same as --devices NAME (default xc6vlx760)
  --describe        print the dependency analysis
  --pareto          print the Pareto set (default)
  --fit             print the best design for the device
  --emit-vhdl DIR   write VHDL for the best fit into DIR
  --cache-dir DIR   persistent result cache; ends with the cache meters
  --list-kernels    list built-in kernels
  --list-devices    list known devices
  other backends, --validate, --search-formats and --validate-fixed add the
  request's sweep table (the last three need a built-in kernel)
sweep options:
  --kernels A,B|all    built-in kernels to sweep (required)
  --devices A,B|all    target FPGAs (default xc6vlx760)
  --iterations N1,N2   iteration counts (default 10)
  --frame WxH          frame size (default 1024x768)
  --format Qm.f        fixed-point format (default Q10.6)
  --threads N          fan-out threads, 0..256 (default 1; 0 = all cores)
  --backend B          architecture backends: paper (default), streaming, or
                       all; with --pareto and more than one backend, each
                       combination also prints the merged cross-backend front
  --pareto             additionally run the Pareto sweep per combination
  --validate           golden-check each feasible fit (simulated architecture
                       vs ghost golden on a small frame; must be exact)
  --search-formats     search the narrowest passing Qm.f per (window, depth)
                       (shrinking integer bits below the range floor when the
                       outputs stay exact); each fit reports its covering
                       format and the full evaluation at that width — area,
                       fps, f_max and PSNR (or "exact")
  --psnr DB            format search accuracy target (default 50)
  --validate-fixed     fixed-point golden check: simulate each feasible fit
                       under quantization vs the fixed frame engine (raw words
                       must match exactly)
  --cache-dir DIR      persistent result cache (created on first use)
service options (serve):
  --requests FILE      request file: `request` ... `end` blocks of sweep
                       options without the leading --, one per line
  --cache-dir DIR      persistent result cache shared by all requests
  --deadline-ms N      per-attempt deadline per request, >= 0 ms
                       (default 0: none)
  --retries N          max attempts per timed-out request, 1..10 (default 3)
cache options:
  --cache-dir DIR      the cache to inspect (required)
  --verify             validate every record; exit 4 if any is corrupt
  --gc                 verify, then remove corrupt records, quarantined
                       copies and orphaned temp files
  --max-bytes N        with --gc: additionally evict valid records, oldest
                       write first, until the survivors fit N bytes
exit codes: 0 ok, 2 user error, 3 I/O fault, 4 corrupt data, 5 timeout,
70 internal error
)";
    std::exit(code);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw Io_error(cat("cannot open '", path, "'"));
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void print_pareto(const Sweep_entry& entry) {
    std::cout << "evaluated " << entry.pareto_points << " design points\n";
    Table table({"kLUTs (est)", "ms/frame", "fps", "architecture"});
    for (const Front_point& p : entry.front_points) {
        table.add(format_fixed(p.area_luts / 1e3, 1),
                  format_fixed(p.seconds_per_frame * 1e3, 3), format_fixed(p.fps, 1),
                  p.config);
    }
    std::cout << table;
}

void print_fit(const Sweep_entry& entry) {
    if (!entry.fits) {
        std::cout << "no feasible design fits " << entry.device << "\n";
        return;
    }
    const Arch_evaluation& best = entry.best;
    std::cout << "best design for " << entry.device << ":\n  "
              << to_string(best.instance) << "\n  "
              << format_fixed(best.throughput.fps, 1) << " fps ("
              << format_fixed(best.throughput.seconds_per_frame * 1e3, 2)
              << " ms/frame), bottleneck: " << best.throughput.bottleneck << "\n  "
              << format_fixed(best.estimated_area_luts / 1e3, 1)
              << " kLUTs estimated (" << format_fixed(best.actual_area_luts / 1e3, 1)
              << " actual), f_max " << format_fixed(best.f_max_mhz, 1) << " MHz\n  "
              << "on-chip buffers " << format_fixed(best.memory.total_kbits, 1)
              << " kbit (" << format_fixed(best.memory.saving_factor, 0)
              << "x below whole-frame buffering)\n";
}

void emit_vhdl(Cone_library& library, const Sweep_entry& entry,
               const Fixed_format& format, const std::string& dir) {
    namespace fs = std::filesystem;
    fs::create_directories(dir);
    if (!entry.fits) {
        std::cout << "no feasible design; nothing emitted\n";
        return;
    }
    const Arch_instance& instance = entry.best.instance;
    const std::string& kernel = entry.kernel;
    Vhdl_options options;
    options.format = format;

    std::vector<std::string> files;
    auto write = [&](const std::string& name, const std::string& text) {
        std::ofstream(fs::path(dir) / name) << text;
        files.push_back(name);
    };
    write("islhls_support.vhdl", emit_support_package(options));
    for (int d : instance.depth_classes()) {
        const Cone& cone = library.cone(instance.window, d);
        write(cone_entity_name(kernel, cone.spec(), options) + ".vhdl",
              emit_cone(cone, kernel, options));
    }
    write(toplevel_entity_name(kernel, instance, options) + ".vhdl",
          emit_architecture_toplevel(library, instance, options));
    std::cout << "wrote " << files.size() << " files to " << dir << ":\n";
    for (const auto& f : files) std::cout << "  " << f << "\n";
}

// One command-line option: `arg` as given, and `value`, which yields the
// option's argument. Returns false for an unknown option.
using Option_handler =
    std::function<bool(const std::string& arg, const std::function<std::string()>& value)>;

// Walks argv[first..] through `handle`. --help prints the usage; an unknown
// option is a User_error naming the `command`'s options.
void walk_options(int argc, char** argv, int first, const std::string& command,
                  const Option_handler& handle) {
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw User_error(cat("option ", arg, " needs a value"));
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") usage(0);
        if (!handle(arg, value)) {
            throw User_error(cat("unknown ", command, "option '", arg,
                                 "' (see islhls --help)"));
        }
    }
}

// A --flag of the shared sweep option table (core/requests.hpp).
bool sweep_option(Sweep_config& config, const std::string& arg,
                  const std::function<std::string()>& value) {
    return arg.size() >= 3 && arg.compare(0, 2, "--") == 0 &&
           apply_sweep_option(config, arg.substr(2), value);
}

int run_sweep(int argc, char** argv) {
    Sweep_config config = default_sweep_config();
    Service_options options;
    walk_options(argc, argv, 2, "sweep ", [&](const std::string& arg, const auto& value) {
        if (arg != "--cache-dir") return sweep_option(config, arg, value);
        options.cache_dir = value();
        return true;
    });
    if (config.kernels.empty()) {
        throw User_error("sweep needs --kernels (see islhls --help)");
    }
    Sweep_service service(options);
    std::cout << to_string(service.run(config));
    return 0;
}

int exit_code_for(Error_kind kind) {
    switch (kind) {
        case Error_kind::user: return 2;
        case Error_kind::io: return 3;
        case Error_kind::corrupt: return 4;
        case Error_kind::timeout: return 5;
        case Error_kind::internal: return 70;
    }
    return 70;
}

int run_serve(int argc, char** argv) {
    std::string requests_path;
    Service_options options;
    walk_options(argc, argv, 2, "serve ", [&](const std::string& arg, const auto& value) {
        if (arg == "--requests") requests_path = value();
        else if (arg == "--cache-dir") options.cache_dir = value();
        else if (arg == "--deadline-ms") options.deadline_ms = parse_int(value(), "deadline");
        else if (arg == "--retries") options.max_attempts = parse_int(value(), "retry count");
        else return false;
        return true;
    });
    if (requests_path.empty()) {
        throw User_error("serve needs --requests FILE (see islhls --help)");
    }
    const std::vector<Sweep_config> requests =
        parse_requests(read_file(requests_path), requests_path);
    Sweep_service service(options);
    const std::vector<Request_outcome> outcomes = service.run_requests(requests);
    int failures = 0;
    int first_failure_code = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Request_outcome& outcome = outcomes[i];
        std::cout << "=== request " << i + 1 << "/" << outcomes.size()
                  << (outcome.deduplicated ? " (deduplicated)" : "")
                  << (outcome.attempts > 1
                          ? cat(" (", outcome.attempts, " attempts)")
                          : std::string())
                  << " ===\n";
        if (outcome.ok) {
            std::cout << to_string(outcome.report);
        } else {
            ++failures;
            if (first_failure_code == 0) {
                first_failure_code = exit_code_for(outcome.kind);
            }
            std::cout << "failed (" << to_string(outcome.kind)
                      << "): " << outcome.message << "\n";
        }
    }
    std::cout << outcomes.size() - failures << "/" << outcomes.size()
              << " requests succeeded\n";
    return first_failure_code;
}

int run_cache(int argc, char** argv) {
    std::string cache_dir;
    bool verify = false;
    bool gc = false;
    long long max_bytes = -1;
    walk_options(argc, argv, 2, "cache ", [&](const std::string& arg, const auto& value) {
        if (arg == "--cache-dir") cache_dir = value();
        else if (arg == "--verify") verify = true;
        else if (arg == "--gc") gc = true;
        else if (arg != "--max-bytes") return false;
        else {
            const std::string v = value();
            try {
                std::size_t consumed = 0;
                max_bytes = std::stoll(v, &consumed);
                if (consumed != v.size() || max_bytes < 0) throw Error("");
            } catch (const std::exception&) {
                throw User_error(cat("bad --max-bytes '", v,
                                     "', expected a non-negative integer"));
            }
        }
        return true;
    });
    if (cache_dir.empty()) {
        throw User_error("cache needs --cache-dir DIR (see islhls --help)");
    }
    if (!verify && !gc) {
        throw User_error("cache needs --verify or --gc (see islhls --help)");
    }
    if (max_bytes >= 0 && !gc) {
        throw User_error("--max-bytes needs --gc (eviction mutates the cache)");
    }
    Result_cache cache(cache_dir);
    const Result_cache::Verify_report report = cache.verify(gc, max_bytes);
    std::cout << "cache '" << cache_dir << "': " << report.records_ok
              << " records ok (" << report.record_bytes << " bytes), "
              << report.records_corrupt << " corrupt, "
              << report.quarantined_files << " quarantined, " << report.temp_files
              << " orphaned temp files\n";
    for (const std::string& note : report.notes) std::cout << "  " << note << "\n";
    if (gc) {
        std::cout << "removed " << report.removed_files << " files";
        if (max_bytes >= 0) {
            std::cout << ", evicted " << report.records_evicted
                      << " records for the " << max_bytes << "-byte budget";
        }
        std::cout << "\n";
    }
    // A verified-clean (or just-collected) cache exits 0; lingering
    // corruption is reported through the taxonomy's exit code.
    if (!gc && report.records_corrupt > 0) return exit_code_for(Error_kind::corrupt);
    return 0;
}

// The single-kernel command: a one-kernel, one-device, one-N request to the
// sweep service. --pareto, --fit and --emit-vhdl read its paper entry;
// whatever else the request computes prints as its sweep table.
int run_kernel(int argc, char** argv) {
    Sweep_config config = default_sweep_config();
    Service_options service_options;
    std::string input;
    bool do_describe = false;
    bool do_fit = false;
    std::string vhdl_dir;
    walk_options(argc, argv, 1, "", [&](const std::string& arg, const auto& value) {
        if (arg == "--list-kernels") {
            for (const Kernel_def& k : all_kernels()) {
                std::cout << pad_right(k.name, 14) << k.display_name << " — "
                          << k.description << "\n";
            }
            std::exit(0);
        }
        if (arg == "--list-devices") {
            for (const Fpga_device& d : all_devices()) {
                std::cout << pad_right(d.name, 14) << d.family << ", "
                          << format_grouped(d.lut_count) << " LUTs, "
                          << format_grouped(d.bram_kbits) << " kbit BRAM\n";
            }
            std::exit(0);
        }
        if (arg == "--device") config.devices = {value()};
        else if (arg == "--describe") do_describe = true;
        else if (arg == "--fit") do_fit = true;
        else if (arg == "--emit-vhdl") vhdl_dir = value();
        else if (arg == "--cache-dir") service_options.cache_dir = value();
        else if (!arg.empty() && arg[0] != '-') input = arg;
        else return sweep_option(config, arg, value);
        return true;
    });
    if (input.empty()) usage(2);
    if (!config.kernels.empty()) {
        throw User_error("the kernel is the input argument; use islhls sweep "
                         "--kernels for several kernels");
    }
    if (config.devices.size() != 1 || config.iteration_counts.size() != 1) {
        throw User_error("a single-kernel run takes one device and one iteration "
                         "count; use islhls sweep for lists");
    }
    const auto& backends = config.backends;
    if (std::find(backends.begin(), backends.end(), "paper") == backends.end()) {
        throw User_error("a single-kernel run prints the paper backend; add "
                         "--backend all or use islhls sweep");
    }
    const bool sweep_table = backends.size() > 1 || config.validate ||
                             config.validate_fixed || config.search_formats;
    if (!do_describe && !do_fit && vhdl_dir.empty()) config.with_pareto = true;

    Sweep_service service(service_options);
    const std::string kernel = starts_with(input, "builtin:")
                                   ? input.substr(8)
                                   : service.add_kernel(read_file(input));
    config.kernels = {kernel};
    // The request runs before any output, so every error comes first.
    std::optional<Sweep_report> report;
    if (config.with_pareto || do_fit || !vhdl_dir.empty() || sweep_table) {
        report = service.run(config);
    } else {
        validate_config(config);
        device_by_name(config.devices[0]);
    }
    Cone_library& library = service.library(kernel);

    std::cout << "kernel '" << kernel << "', " << config.iteration_counts[0]
              << " iterations, " << config.frame_width << "x" << config.frame_height
              << " frames, device " << config.devices[0] << ", format "
              << to_string(config.format) << "\n\n";
    if (do_describe) std::cout << describe(library) << "\n";
    if (!report) return 0;
    const Sweep_entry& entry = *std::find_if(
        report->entries.begin(), report->entries.end(),
        [](const Sweep_entry& e) { return e.backend == "paper"; });
    if (config.with_pareto) print_pareto(entry);
    if (do_fit) print_fit(entry);
    if (!vhdl_dir.empty()) emit_vhdl(library, entry, config.format, vhdl_dir);
    if (sweep_table) std::cout << "\n" << report_table(*report);
    // With a result cache, end with the request's meters (the sweep footer),
    // so a warm run shows what the cache served.
    if (!service_options.cache_dir.empty()) {
        std::cout << to_string(*report).substr(report_table(*report).size());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc >= 2 && std::string(argv[1]) == "sweep") return run_sweep(argc, argv);
        if (argc >= 2 && std::string(argv[1]) == "serve") return run_serve(argc, argv);
        if (argc >= 2 && std::string(argv[1]) == "cache") return run_cache(argc, argv);
        return run_kernel(argc, argv);
    } catch (const islhls::Error& e) {
        std::cerr << "islhls: error (" << to_string(classify_error(e))
                  << "): " << e.what() << "\n";
        return exit_code_for(classify_error(e));
    } catch (const std::exception& e) {
        std::cerr << "islhls: error (internal): " << e.what() << "\n";
        return exit_code_for(Error_kind::internal);
    }
}
