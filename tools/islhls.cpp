// islhls — command-line driver for the ISL HLS flow.
//
// Usage:
//   islhls <kernel.c> [options]
//   islhls sweep --kernels A,B [sweep options]
//   islhls serve --requests FILE [service options]
//   islhls cache --cache-dir DIR --verify|--gc
//
// Options:
//   --iterations N      ISL iteration count (default 10)
//   --frame WxH         frame size (default 1024x768)
//   --device NAME       target FPGA (default xc6vlx760; see --list-devices)
//   --format Qm.f       fixed-point format (default Q10.6)
//   --threads N         DSE fan-out threads, 0..256 (default 1; 0 = all cores)
//   --describe          print the dependency analysis and exit
//   --pareto            print the Pareto set (default action)
//   --fit               print the best design for the device
//   --emit-vhdl DIR     write support package + cone + top-level VHDL for
//                       the best device fit into DIR
//   --list-kernels      list built-in kernels (pass builtin:NAME as input)
//   --list-devices      list known devices
//
// The `sweep` subcommand batches many kernels × devices × iteration counts
// through one shared cone/synthesis cache (see core/sweep.hpp):
//   --kernels A,B|all     built-in kernels to sweep (required)
//   --devices A,B|all     target FPGAs (default xc6vlx760)
//   --iterations N1,N2    iteration counts (default 10)
//   --frame WxH, --format Qm.f, --threads N   as above
//   --backend B           architecture backends: paper (default), streaming,
//                         or all — every combination runs once per backend,
//                         and with --pareto plus several backends the report
//                         adds one merged cross-backend Pareto front each
//   --pareto              additionally run the Pareto sweep per combination
//   --validate            golden-check each feasible fit against the simulator
//   --search-formats      per-(window, depth) fixed-point format search with
//                         integer-bit shrink; each fit reports its covering
//                         format plus area, fps and PSNR (or "exact")
//                         re-evaluated at that width
//   --psnr DB             format search accuracy target (default 50)
//   --validate-fixed      fixed-mode golden check against the integer frame
//                         engine (raw words must match exactly)
//   --cache-dir DIR       persistent result cache (created on first use): a
//                         warm cache serves repeats without recomputing
//
// The `serve` subcommand runs a batch of sweep requests from a file through
// the sweep service (core/service.hpp): identical requests run once, each
// attempt gets a deadline, a timed-out request is retried, and one bad
// request never takes down the batch (see README for the file format).
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
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "backend/vhdl_toplevel.hpp"
#include "core/flow.hpp"
#include "core/requests.hpp"
#include "core/service.hpp"
#include "core/sweep.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace {

using namespace islhls;

[[noreturn]] void usage(int code) {
    std::cout <<
        R"(usage: islhls <kernel.c | builtin:NAME> [options]
       islhls sweep --kernels A,B|all [sweep options]
       islhls serve --requests FILE [service options]
       islhls cache --cache-dir DIR --verify|--gc
  --iterations N    ISL iteration count (default 10)
  --frame WxH       frame size (default 1024x768)
  --device NAME     target FPGA (default xc6vlx760)
  --format Qm.f     fixed-point format (default Q10.6)
  --threads N       DSE fan-out threads, 0..256 (default 1; 0 = all cores)
  --describe        print the dependency analysis
  --pareto          print the Pareto set (default)
  --fit             print the best design for the device
  --emit-vhdl DIR   write VHDL for the best fit into DIR
  --list-kernels    list built-in kernels
  --list-devices    list known devices
sweep options:
  --kernels A,B|all    built-in kernels to sweep (required)
  --devices A,B|all    target FPGAs (default xc6vlx760)
  --iterations N1,N2   iteration counts (default 10)
  --frame WxH, --format Qm.f, --threads N   as above
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

void print_pareto(Hls_flow& flow) {
    const auto result = flow.pareto();
    std::cout << "evaluated " << result.points.size() << " design points\n";
    Table table({"kLUTs (est)", "ms/frame", "fps", "architecture"});
    for (std::size_t idx : result.front) {
        const auto& p = result.points[idx];
        table.add(format_fixed(p.estimated_area_luts / 1e3, 1),
                  format_fixed(p.throughput.seconds_per_frame * 1e3, 3),
                  format_fixed(p.throughput.fps, 1), to_string(p.instance));
    }
    std::cout << table;
}

void print_fit(Hls_flow& flow) {
    const auto fit = flow.device_fit();
    if (!fit.has_best) {
        std::cout << "no feasible design fits " << flow.device().name << "\n";
        return;
    }
    const auto& best = fit.best;
    std::cout << "best design for " << flow.device().name << ":\n  "
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

void emit_vhdl(Hls_flow& flow, const std::string& dir) {
    namespace fs = std::filesystem;
    fs::create_directories(dir);
    const auto fit = flow.device_fit();
    if (!fit.has_best) {
        std::cout << "no feasible design; nothing emitted\n";
        return;
    }
    const Arch_instance& instance = fit.best.instance;
    Vhdl_options options;
    options.format = flow.options().format;

    const fs::path base(dir);
    {
        std::ofstream f(base / "islhls_support.vhdl");
        f << emit_support_package(options);
    }
    std::vector<std::string> files{"islhls_support.vhdl"};
    for (int d : instance.depth_classes()) {
        const Cone& cone = flow.cones().cone(instance.window, d);
        const std::string name =
            cone_entity_name(flow.kernel_name(), cone.spec(), options) + ".vhdl";
        std::ofstream f(base / name);
        f << emit_cone(cone, flow.kernel_name(), options);
        files.push_back(name);
    }
    {
        const std::string name =
            toplevel_entity_name(flow.kernel_name(), instance, options) + ".vhdl";
        std::ofstream f(base / name);
        f << emit_architecture_toplevel(flow.cones(), instance, options);
        files.push_back(name);
    }
    std::cout << "wrote " << files.size() << " files to " << dir << ":\n";
    for (const auto& f : files) std::cout << "  " << f << "\n";
}

int run_sweep(int argc, char** argv) {
    Sweep_config config = default_sweep_config();
    std::string cache_dir;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw User_error(cat("option ", arg, " needs a value"));
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") usage(0);
        if (arg == "--cache-dir") {
            cache_dir = next_value();
            continue;
        }
        if (arg.size() < 3 || arg.compare(0, 2, "--") != 0 ||
            !apply_sweep_option(config, arg.substr(2), next_value)) {
            throw User_error(cat("unknown sweep option '", arg,
                                 "' (see islhls --help)"));
        }
    }
    if (config.kernels.empty()) {
        throw User_error("sweep needs --kernels (see islhls --help)");
    }
    Service_options service_options;
    service_options.cache_dir = cache_dir;
    Sweep_service service(service_options);
    const Sweep_report report = service.run(config);
    std::cout << to_string(report);
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
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw User_error(cat("option ", arg, " needs a value"));
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") usage(0);
        else if (arg == "--requests") requests_path = next_value();
        else if (arg == "--cache-dir") options.cache_dir = next_value();
        else if (arg == "--deadline-ms") {
            options.deadline_ms = parse_int(next_value(), "deadline");
        } else if (arg == "--retries") {
            options.max_attempts = parse_int(next_value(), "retry count");
        } else {
            throw User_error(cat("unknown serve option '", arg,
                                 "' (see islhls --help)"));
        }
    }
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
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw User_error(cat("option ", arg, " needs a value"));
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") usage(0);
        else if (arg == "--cache-dir") cache_dir = next_value();
        else if (arg == "--verify") verify = true;
        else if (arg == "--gc") gc = true;
        else if (arg == "--max-bytes") {
            const std::string v = next_value();
            try {
                std::size_t consumed = 0;
                max_bytes = std::stoll(v, &consumed);
                if (consumed != v.size() || max_bytes < 0) throw Error("");
            } catch (const std::exception&) {
                throw User_error(cat("bad --max-bytes '", v,
                                     "', expected a non-negative integer"));
            }
        } else {
            throw User_error(cat("unknown cache option '", arg,
                                 "' (see islhls --help)"));
        }
    }
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

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc >= 2 && std::string(argv[1]) == "sweep") return run_sweep(argc, argv);
        if (argc >= 2 && std::string(argv[1]) == "serve") return run_serve(argc, argv);
        if (argc >= 2 && std::string(argv[1]) == "cache") return run_cache(argc, argv);

        std::string input;
        Flow_options options;
        bool do_describe = false;
        bool do_pareto = false;
        bool do_fit = false;
        std::string vhdl_dir;

        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next_value = [&]() -> std::string {
                if (i + 1 >= argc) {
                    throw User_error(cat("option ", arg, " needs a value"));
                }
                return argv[++i];
            };
            if (arg == "--help" || arg == "-h") usage(0);
            else if (arg == "--list-kernels") {
                for (const Kernel_def& k : all_kernels()) {
                    std::cout << pad_right(k.name, 14) << k.display_name << " — "
                              << k.description << "\n";
                }
                return 0;
            } else if (arg == "--list-devices") {
                for (const Fpga_device& d : all_devices()) {
                    std::cout << pad_right(d.name, 14) << d.family << ", "
                              << format_grouped(d.lut_count) << " LUTs, "
                              << format_grouped(d.bram_kbits) << " kbit BRAM\n";
                }
                return 0;
            } else if (arg == "--iterations") {
                options.iterations = parse_int(next_value(), "iteration count");
            } else if (arg == "--frame") {
                const std::string value = next_value();
                const auto x = value.find('x');
                if (x == std::string::npos) {
                    throw User_error(cat("bad frame '", value, "', expected WxH"));
                }
                options.frame_width = parse_int(value.substr(0, x), "frame width");
                options.frame_height = parse_int(value.substr(x + 1), "frame height");
            } else if (arg == "--device") {
                options.device = next_value();
            } else if (arg == "--format") {
                options.format = parse_format(next_value());
            } else if (arg == "--threads") {
                options.space.threads = parse_int(next_value(), "thread count");
                validate_thread_count(options.space.threads);
            } else if (arg == "--describe") {
                do_describe = true;
            } else if (arg == "--pareto") {
                do_pareto = true;
            } else if (arg == "--fit") {
                do_fit = true;
            } else if (arg == "--emit-vhdl") {
                vhdl_dir = next_value();
            } else if (!arg.empty() && arg[0] == '-') {
                throw User_error(cat("unknown option '", arg,
                                     "' (see islhls --help)"));
            } else {
                input = arg;
            }
        }
        if (input.empty()) usage(2);

        Hls_flow flow = [&] {
            if (starts_with(input, "builtin:")) {
                return Hls_flow::from_kernel(kernel_by_name(input.substr(8)), options);
            }
            return Hls_flow::from_source(read_file(input), options);
        }();

        std::cout << "kernel '" << flow.kernel_name() << "', " << options.iterations
                  << " iterations, " << options.frame_width << "x"
                  << options.frame_height << " frames, device " << options.device
                  << ", format " << to_string(options.format) << "\n\n";

        if (do_describe) std::cout << flow.describe() << "\n";
        if (!do_describe && !do_fit && vhdl_dir.empty()) do_pareto = true;
        if (do_pareto) print_pareto(flow);
        if (do_fit) print_fit(flow);
        if (!vhdl_dir.empty()) emit_vhdl(flow, vhdl_dir);
        return 0;
    } catch (const islhls::Error& e) {
        std::cerr << "islhls: error (" << to_string(classify_error(e))
                  << "): " << e.what() << "\n";
        return exit_code_for(classify_error(e));
    } catch (const std::exception& e) {
        std::cerr << "islhls: error (internal): " << e.what() << "\n";
        return exit_code_for(Error_kind::internal);
    }
}
