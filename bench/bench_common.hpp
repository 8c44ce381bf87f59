// Shared helpers of the benches: the DAC'13 paper's evaluation setup
// (1024x768 frames, N = 10 iterations, output windows 1..9, cone depths
// 1..5, Xilinx Virtex-6 XC6VLX760), which paper_claims reproduces and the
// micro benches reuse, the [PASS]/[DEVIATION] claim line, and the atomic
// BENCH_*.json writer.
#pragma once

#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>

#include "core/service.hpp"
#include "synth/device.hpp"

namespace islhls_bench {

// The paper's evaluation setup (Sec. 4) as a one-kernel sweep request.
inline islhls::Sweep_config paper_config() {
    islhls::Sweep_config config;
    config.iteration_counts = {10};
    config.frame_width = 1024;
    config.frame_height = 768;
    config.devices = {"xc6vlx760"};
    config.space.max_window = 9;
    config.space.max_depth = 5;
    return config;
}

// The Explorer a request of `config` (one device, one iteration count) runs
// on `kernel`, over the kernel's resident library in `service`.
inline islhls::Explorer explorer_for(islhls::Sweep_service& service,
                                     const std::string& kernel,
                                     const islhls::Sweep_config& config = paper_config()) {
    islhls::Space_options space = config.space;
    space.iterations = config.iteration_counts.at(0);
    return islhls::Explorer(service.library(kernel),
                            islhls::device_by_name(config.devices.at(0)),
                            islhls::evaluator_options_for(config), space);
}

// Uniform PASS/DEVIATION line formatting for the claim checks; returns 1 on
// a deviation, so callers can sum deviations into their exit status.
inline int report_claim(const std::string& claim, bool holds) {
    std::cout << (holds ? "[PASS] " : "[DEVIATION] ") << claim << "\n";
    return holds ? 0 : 1;
}

// Atomic perf-record writer shared by the BENCH_*.json producers: `body`
// streams the record into a temp file, which replaces `path` only on a
// fully flushed write — an aborted run never leaves a torn record. Returns
// false (after a diagnostic) when the record could not be written, so the
// caller can fail the bench rather than let CI pass on a stale file.
inline bool write_json_record(const std::string& path,
                              const std::function<void(std::ostream&)>& body) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        body(out);
        out.flush();
        if (!out) {
            std::cerr << "failed to write " << tmp << "\n";
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::cerr << "failed to move " << tmp << " to " << path << "\n";
        return false;
    }
    return true;
}

}  // namespace islhls_bench
