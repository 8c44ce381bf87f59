// islbench: runs one benchmark workload and prints its result.
//
//   islbench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//   islbench --derive-digests VARIANT
//
// Prints a host-facts JSON line, then as the last line one JSON object with
// the keys correct, attempted, failed and metrics. Exits 1 without a result
// when a noise guard trips or the run cannot complete. --derive-digests
// prints the golden digest table rows (digests.inc) of one scene variant,
// computed with the reference interpreters.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "digests.hpp"

namespace {

using namespace islbench;

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "islbench: " << problem
              << "\nusage: islbench --workload NAME --seed N --seconds S --trace 0|1"
                 " [--work-dir DIR]\n       islbench --derive-digests VARIANT\n";
    std::exit(2);
}

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
    Run_options options;
    options.work_dir = ".bench_build/work";
    bool have_workload = false;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc) usage("option " + arg + " needs a value");
            const std::string value = argv[++i];
            if (arg == "--workload") {
                options.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
                have_seed = true;
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
                have_seconds = options.seconds > 0.0;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                options.trace = value == "1";
                have_trace = true;
            } else if (arg == "--work-dir") {
                options.work_dir = value;
            } else if (arg == "--derive-digests") {
                const int variant = std::stoi(value);
                for (const Digest_cell& cell : sim_cells()) {
                    std::printf("    {\"%s\", %d, 0x%sull},\n", cell_name(cell).c_str(),
                                variant, hex64(reference_digest(cell, variant)).c_str());
                    std::fflush(stdout);
                }
                return 0;
            } else {
                usage("unknown option " + arg);
            }
        }
    } catch (const std::logic_error&) {
        usage("malformed number");
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        usage("--workload, --seed, --seconds and --trace are required");
    }
    try {
        const Run_result result = run_workload(options);
        std::string host = "{\"host\": {";
        bool first = true;
        for (const auto& [key, value] : result.facts) {
            host += (first ? "" : ", ") + json_string(key) + ": " + json_string(value);
            first = false;
        }
        std::cout << host << "}}\n";
        std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
                  << ", \"attempted\": " << result.attempted
                  << ", \"failed\": " << result.failed
                  << ", \"metrics\": " << result.metrics.json() << "}" << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "islbench: " << e.what() << "\n";
        return 1;
    }
}
