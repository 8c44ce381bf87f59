// Simulation throughput: compiled scanline engine vs the legacy per-pixel
// interpreter, and temporal-tiled vs double-buffered execution.
//
// Measures Mcells/s (one cell = one frame element advanced by one
// iteration) on the heat-equation, iterative-Gaussian-filter and Chambolle
// kernels, then checks the engine's contracts:
//
//   1. correctness — the engine's frames are byte-identical to the legacy
//      interpreter's on every kernel;
//   2. determinism — 2- and 8-thread runs are byte-identical to the serial
//      engine run;
//   3. speed — the single-thread engine is >= 5x the legacy interpreter;
//   4. tiling — on a frame pair that overflows the last-level cache,
//      temporal-tiled execution (iterations fused over row bands) is
//      >= 1.3x the untiled single-thread engine and byte-identical to it.
//
// Thread scaling at 8 threads is measured and recorded, but only gated when
// the host actually has >= 4 hardware threads (the same measured-not-gated
// policy micro_dse_parallel applies to wall times on small CI machines).
//
// With --json <path> the measurements are written as BENCH_sim.json-style
// records (via a temp file + rename, so aborted runs never leave a torn
// file); tools/run_benches.sh wires this into the repo's perf trajectory,
// and tools/check_bench.py gates CI on the host-portable ratios recorded
// under "gated_metrics".
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "sim/exec_engine.hpp"
#include "sim/fixed_exec.hpp"
#include "sim/golden.hpp"
#include "sim/tape_lanes.hpp"
#include "support/cache_info.hpp"
#include "support/parallel.hpp"
#include "support/text.hpp"
#include "symexec/executor.hpp"

namespace {

using namespace islhls;

struct Kernel_result {
    std::string name;
    double legacy_mcells = 0.0;         // interpreter, small frame
    double engine_small_mcells = 0.0;   // engine 1t on the SAME small workload
    double engine_1t_mcells = 0.0;      // engine 1t, large frame (headline)
    double engine_8t_mcells = 0.0;      // engine 8t, large frame
    bool engine_matches_legacy = false;
    bool threads_byte_identical = false;
    // Like-for-like: both sides measured on the identical frame and
    // iteration count.
    double speedup_1t() const {
        return legacy_mcells > 0.0 ? engine_small_mcells / legacy_mcells : 0.0;
    }
    double scaling_8t() const {
        return engine_1t_mcells > 0.0 ? engine_8t_mcells / engine_1t_mcells : 0.0;
    }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

// Minimum wall time of `reps` runs of `body`. The gated metrics are ratios
// of two such timings; min-of-N discards the one-sided noise a busy host
// injects (there is no mechanism that makes a run spuriously fast), which
// keeps the committed baselines comparable across reruns.
template <typename Fn>
double min_seconds(int reps, const Fn& body) {
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        body();
        best = std::min(best, seconds_since(t0));
    }
    return best;
}

bool sets_byte_identical(const Frame_set& a, const Frame_set& b) {
    if (a.names() != b.names()) return false;
    for (const std::string& name : a.names()) {
        const Frame& fa = a.field(name);
        const Frame& fb = b.field(name);
        if (fa.width() != fb.width() || fa.height() != fb.height()) return false;
        if (std::memcmp(fa.data().data(), fb.data().data(),
                        fa.element_count() * sizeof(double)) != 0) {
            return false;
        }
    }
    return true;
}

// The speedup gate compares both paths on the identical small workload
// (the interpreter is too slow for more); the engine is additionally
// measured on a larger frame for its headline and threaded throughput.
constexpr int kLegacyW = 320, kLegacyH = 240, kLegacyIters = 2;
constexpr int kEngineW = 512, kEngineH = 384, kEngineIters = 12;

// Temporal tiling is a memory-traffic optimization, so its measurement
// needs a frame pair that genuinely overflows the last-level cache (hosts
// in the fleet range up to 260 MiB of L3): 2048x12288 doubles are 192 MiB
// per buffer, 384 MiB double-buffered. Jacobi is the most memory-bound
// built-in kernel (4-point stencil, ~5 flops per cell), so it shows the
// traffic reduction most clearly; depth 8 empirically beats 16 and 32 on
// this shape (deeper fusing adds halo recompute faster than it removes
// traffic).
constexpr int kTiledW = 2048, kTiledH = 12288, kTiledIters = 32;
constexpr int kTiledDepth = 8;
constexpr const char* kTiledKernel = "jacobi";

struct Tiled_result {
    double untiled_mcells = 0.0;  // engine 1t, tile depth 1
    double tiled_mcells = 0.0;    // engine 1t, fused iterations
    int depth = 0;
    bool byte_identical = false;
    double speedup() const {
        return untiled_mcells > 0.0 ? tiled_mcells / untiled_mcells : 0.0;
    }
};

// Multi-thread tiled scaling: the same out-of-cache tiled workload fanned
// across 4 threads vs 1 thread. Only measured (and only gated, under
// "optional_gated_metrics") when the host actually has >= 4 hardware
// threads; smaller hosts skip it with a note and the committed baseline
// tolerates its absence.
struct Tiled_scaling_result {
    bool measured = false;
    double tiled_1t_mcells = 0.0;
    double tiled_4t_mcells = 0.0;
    bool byte_identical = false;
    double scaling() const {
        return tiled_1t_mcells > 0.0 ? tiled_4t_mcells / tiled_1t_mcells : 0.0;
    }
};

// Measured DRAM copy bandwidth (large-buffer memcpy, min-of-N), the roofline
// context for the streaming benches: an untiled double sweep moves ~3 words
// per cell per iteration (read + allocate + write back), so
// bandwidth / 24 B is the memory-bound Mcells/s ceiling the untiled tiled-
// workload numbers should be read against. Absolute and host-specific —
// reported, never gated.
struct Dram_result {
    double copy_gbps = 0.0;
    double untiled_roofline_mcells() const { return copy_gbps * 1e9 / 24.0 / 1e6; }
};

Dram_result bench_dram() {
    constexpr std::size_t kBytes = 128u << 20;
    std::vector<std::uint64_t> src(kBytes / sizeof(std::uint64_t), 1);
    std::vector<std::uint64_t> dst(src.size(), 0);
    const double best_s = min_seconds(3, [&] {
        std::memcpy(dst.data(), src.data(), kBytes);
        // Keep the copy observable so the optimizer cannot drop it.
        if (dst[dst.size() / 2] == ~std::uint64_t{0}) std::cout << "";
    });
    Dram_result r;
    // One memcpy moves 2 bytes per copied byte (read + write).
    r.copy_gbps = 2.0 * static_cast<double>(kBytes) / std::max(best_s, 1e-9) / 1e9;
    return r;
}

Tiled_result bench_tiled() {
    const Kernel_def& kernel = kernel_by_name(kTiledKernel);
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Exec_engine engine(step);

    Tiled_result r;
    r.depth = kTiledDepth;
    const Frame_set big =
        kernel.make_initial(make_synthetic_scene(kTiledW, kTiledH, 5));
    const double cells =
        static_cast<double>(kTiledW) * kTiledH * static_cast<double>(kTiledIters);

    // Pin the band budget to the historical 8 MiB so this anchor measures
    // the same schedule on every host regardless of what the cache probe
    // reports (results are byte-identical at any budget; only the timing
    // comparison needs the schedule held fixed).
    Exec_options tiled_opts{1, r.depth, 0};
    tiled_opts.budgets.band_bytes = 8u << 20;

    // The gated ratio takes min-of-2 per mode (each run is seconds long, so
    // two reps suffice to drop a one-off slow run); the identity-pair runs
    // double as the first timing sample of each mode.
    auto t0 = std::chrono::steady_clock::now();
    const Frame_set untiled =
        engine.run(big, kTiledIters, kernel.boundary, Exec_options{1, 1, 0});
    const double untiled_s =
        std::min(seconds_since(t0), min_seconds(1, [&] {
                     engine.run(big, kTiledIters, kernel.boundary, Exec_options{1, 1, 0});
                 }));
    t0 = std::chrono::steady_clock::now();
    const Frame_set tiled =
        engine.run(big, kTiledIters, kernel.boundary, tiled_opts);
    const double tiled_s =
        std::min(seconds_since(t0), min_seconds(1, [&] {
                     engine.run(big, kTiledIters, kernel.boundary, tiled_opts);
                 }));
    r.byte_identical = sets_byte_identical(untiled, tiled);
    r.untiled_mcells = cells / std::max(untiled_s, 1e-9) / 1e6;
    r.tiled_mcells = cells / std::max(tiled_s, 1e-9) / 1e6;
    return r;
}

Tiled_scaling_result bench_tiled_scaling(int hardware_threads) {
    Tiled_scaling_result r;
    if (hardware_threads < 4) return r;
    r.measured = true;
    const Kernel_def& kernel = kernel_by_name(kTiledKernel);
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Exec_engine engine(step);
    const Frame_set big =
        kernel.make_initial(make_synthetic_scene(kTiledW, kTiledH, 5));
    const double cells =
        static_cast<double>(kTiledW) * kTiledH * static_cast<double>(kTiledIters);

    // Same pinned band budget as bench_tiled, so 1t-vs-4t compares the same
    // schedule and only the thread count varies.
    Exec_options opts_1t{1, kTiledDepth, 0};
    opts_1t.budgets.band_bytes = 8u << 20;
    Exec_options opts_4t{4, kTiledDepth, 0};
    opts_4t.budgets.band_bytes = 8u << 20;

    auto t0 = std::chrono::steady_clock::now();
    const Frame_set tiled_1t = engine.run(big, kTiledIters, kernel.boundary, opts_1t);
    const double s_1t =
        std::min(seconds_since(t0), min_seconds(1, [&] {
                     engine.run(big, kTiledIters, kernel.boundary, opts_1t);
                 }));
    t0 = std::chrono::steady_clock::now();
    const Frame_set tiled_4t = engine.run(big, kTiledIters, kernel.boundary, opts_4t);
    const double s_4t =
        std::min(seconds_since(t0), min_seconds(1, [&] {
                     engine.run(big, kTiledIters, kernel.boundary, opts_4t);
                 }));
    r.byte_identical = sets_byte_identical(tiled_1t, tiled_4t);
    r.tiled_1t_mcells = cells / std::max(s_1t, 1e-9) / 1e6;
    r.tiled_4t_mcells = cells / std::max(s_4t, 1e-9) / 1e6;
    return r;
}

// Fixed vs double on a wide frame, both through the engine's interior fast
// path at one thread: the single-thread Mcells/s anchor of both domains and
// the gated interior ratio. The lane-blocked fixed interior runs the shared
// per-ISA kernels (sim/tape_lanes.hpp), which is what closes the historical
// gap to the double engine; the ratio is same-host and gated. The identity
// check reruns the fixed side through a second schedule — depth-2 temporal
// tiling over bands from a pinned budget — which must be invisible in the
// raw words.
constexpr int kWideW = 4096, kWideH = 512, kWideIters = 8;
constexpr const char* kWideKernel = "heat";
constexpr Fixed_format kWideFormat{10, 6};

struct Wide_result {
    double double_mcells = 0.0;
    double fixed_mcells = 0.0;
    bool word_identical = false;
    double ratio() const {
        return double_mcells > 0.0 ? fixed_mcells / double_mcells : 0.0;
    }
};

Wide_result bench_wide() {
    const Kernel_def& kernel = kernel_by_name(kWideKernel);
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Exec_engine engine(step);
    const Frame_set big = kernel.make_initial(make_synthetic_scene(kWideW, kWideH, 5));
    const double cells =
        static_cast<double>(kWideW) * kWideH * static_cast<double>(kWideIters);

    Wide_result r;
    const double double_s = min_seconds(3, [&] {
        engine.run(big, kWideIters, kernel.boundary, Exec_options{1, 1, 0});
    });
    r.double_mcells = cells / std::max(double_s, 1e-9) / 1e6;

    const Fixed_frame_result fixed_out =
        engine.run_fixed(big, kWideIters, kernel.boundary, kWideFormat);
    const double fixed_s = min_seconds(3, [&] {
        engine.run_fixed(big, kWideIters, kernel.boundary, kWideFormat);
    });
    r.fixed_mcells = cells / std::max(fixed_s, 1e-9) / 1e6;

    Exec_options tiled{1, 2, 0};
    tiled.budgets.band_bytes = 1u << 20;
    const Fixed_frame_result fixed_tiled =
        engine.run_fixed(big, kWideIters, kernel.boundary, kWideFormat, tiled);
    r.word_identical = true;
    for (std::size_t s = 0; s < step.state_fields().size(); ++s) {
        if (std::memcmp(fixed_out.raw[s].data(), fixed_tiled.raw[s].data(),
                        fixed_out.raw[s].size() * sizeof(std::int64_t)) != 0) {
            r.word_identical = false;
        }
    }
    return r;
}

// Fixed-point row engine vs the scalar reference: the per-pixel
// run_fixed_raw sweep (quantize once, interpret every pixel, fresh register
// file per call) against the integer row path over the same raw words. Both
// sides advance identical raw frames, so the word-identity check doubles as
// the correctness gate.
constexpr const char* kFixedKernel = "heat";
constexpr Fixed_format kFixedFormat{10, 6};

struct Fixed_result {
    double reference_mcells = 0.0;  // per-pixel run_fixed_raw sweep
    double engine_mcells = 0.0;     // integer row engine, 1 thread
    bool word_identical = false;
    double speedup() const {
        return reference_mcells > 0.0 ? engine_mcells / reference_mcells : 0.0;
    }
};

Fixed_result bench_fixed() {
    const Kernel_def& kernel = kernel_by_name(kFixedKernel);
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Exec_engine engine(step);
    const Frame_set small =
        kernel.make_initial(make_synthetic_scene(kLegacyW, kLegacyH, 5));
    const double cells = kLegacyW * kLegacyH * static_cast<double>(kLegacyIters);

    Fixed_result r;
    // The reference is the product's own per-pixel sweep (sim/golden.hpp),
    // shared with the row engine's memcmp test suite.
    auto t0 = std::chrono::steady_clock::now();
    const Fixed_frame_result reference = run_ir_fixed_reference(
        step, small, kLegacyIters, kernel.boundary, kFixedFormat);
    const double reference_s =
        std::min(seconds_since(t0), min_seconds(1, [&] {
                     run_ir_fixed_reference(step, small, kLegacyIters,
                                            kernel.boundary, kFixedFormat);
                 }));
    r.reference_mcells = cells / std::max(reference_s, 1e-9) / 1e6;

    constexpr int kRepeats = 10;
    const Fixed_frame_result engine_out =
        engine.run_fixed(small, kLegacyIters, kernel.boundary, kFixedFormat);
    const double engine_s = min_seconds(kRepeats, [&] {
        engine.run_fixed(small, kLegacyIters, kernel.boundary, kFixedFormat);
    });
    r.engine_mcells = cells / std::max(engine_s, 1e-9) / 1e6;

    r.word_identical = true;
    for (std::size_t s = 0; s < step.state_fields().size(); ++s) {
        if (std::memcmp(reference.raw[s].data(), engine_out.raw[s].data(),
                        reference.raw[s].size() * sizeof(std::int64_t)) != 0) {
            r.word_identical = false;
        }
    }
    return r;
}

Kernel_result bench_kernel(const std::string& name) {
    const Kernel_def& kernel = kernel_by_name(name);
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Exec_engine engine(step);

    Kernel_result r;
    r.name = name;

    // Legacy interpreter throughput + the correctness frame pair. The
    // legacy/engine pair feeds a gated ratio, so both sides are min-of-N;
    // the identity-pair run doubles as the first timing sample (comparing
    // frames afterwards does not perturb the run itself).
    const Frame_set small = kernel.make_initial(make_synthetic_scene(kLegacyW, kLegacyH, 5));
    auto legacy_t0 = std::chrono::steady_clock::now();
    const Frame_set legacy = run_ir_reference(step, small, kLegacyIters, kernel.boundary);
    const double legacy_s =
        std::min(seconds_since(legacy_t0), min_seconds(2, [&] {
                     run_ir_reference(step, small, kLegacyIters, kernel.boundary);
                 }));
    r.legacy_mcells =
        kLegacyW * kLegacyH * static_cast<double>(kLegacyIters) / legacy_s / 1e6;

    // Engine on the identical small workload: the like-for-like speedup
    // pair. Each rep is milliseconds, so many reps both outgrow the timer
    // resolution trap (the min is still a full run) and sample the noise.
    constexpr int kSmallRepeats = 10;
    const Frame_set engine_small = engine.run(small, kLegacyIters, kernel.boundary, 1);
    r.engine_matches_legacy = sets_byte_identical(legacy, engine_small);
    const double engine_small_s = min_seconds(kSmallRepeats, [&] {
        engine.run(small, kLegacyIters, kernel.boundary, 1);
    });
    const double cells_small = kLegacyW * kLegacyH * static_cast<double>(kLegacyIters);
    r.engine_small_mcells = cells_small / std::max(engine_small_s, 1e-9) / 1e6;

    // Engine throughput on the larger frame (single thread, then 8 threads).
    // Both feed the 8-thread scaling claim, so both are min-of-3 like the
    // other cells: the identity-pair run is the first sample.
    const Frame_set big = kernel.make_initial(make_synthetic_scene(kEngineW, kEngineH, 5));
    auto t0 = std::chrono::steady_clock::now();
    const Frame_set engine_1t = engine.run(big, kEngineIters, kernel.boundary, 1);
    const double engine_1t_s = std::min(seconds_since(t0), min_seconds(2, [&] {
        engine.run(big, kEngineIters, kernel.boundary, 1);
    }));
    const double cells_big = kEngineW * kEngineH * static_cast<double>(kEngineIters);
    r.engine_1t_mcells = cells_big / std::max(engine_1t_s, 1e-9) / 1e6;

    t0 = std::chrono::steady_clock::now();
    const Frame_set engine_8t = engine.run(big, kEngineIters, kernel.boundary, 8);
    const double engine_8t_s = std::min(seconds_since(t0), min_seconds(2, [&] {
        engine.run(big, kEngineIters, kernel.boundary, 8);
    }));
    r.engine_8t_mcells = cells_big / std::max(engine_8t_s, 1e-9) / 1e6;

    const Frame_set engine_2t = engine.run(big, kEngineIters, kernel.boundary, 2);
    r.threads_byte_identical = sets_byte_identical(engine_1t, engine_2t) &&
                               sets_byte_identical(engine_1t, engine_8t);
    return r;
}

// The bench fails when the record could not be written, so CI never passes
// with a missing or stale perf record.
//
// "gated_metrics" carries the values tools/check_bench.py diffs against the
// committed baseline. They are deliberately same-host ratios (engine vs
// interpreter, tiled vs untiled), not absolute Mcells/s: absolute numbers
// shift with whatever machine CI lands on, ratios only shift when the code
// regresses.
bool write_json(const std::string& path, const std::vector<Kernel_result>& results,
                const Tiled_result& tiled, const Fixed_result& fixed,
                const Wide_result& wide, const Dram_result& dram,
                const Tiled_scaling_result& scaling, int hardware_threads) {
    return islhls_bench::write_json_record(path, [&](std::ostream& out) {
        out << "{\n";
        out << "  \"bench\": \"micro_sim_throughput\",\n";
        out << "  \"unit\": \"Mcells/s\",\n";
        out << "  \"hardware_threads\": " << hardware_threads << ",\n";
        out << "  \"cache_topology\": \"" << to_string(cache_topology()) << "\",\n";
        out << "  \"tape_lane_isa\": \"" << tape_lane_isa() << "\",\n";
        out << "  \"legacy_frame\": [" << kLegacyW << ", " << kLegacyH << "],\n";
        out << "  \"engine_frame\": [" << kEngineW << ", " << kEngineH << "],\n";
        out << "  \"kernels\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const Kernel_result& r = results[i];
            out << "    {\"name\": \"" << r.name << "\", \"legacy\": "
                << format_fixed(r.legacy_mcells, 3) << ", \"engine_small_1t\": "
                << format_fixed(r.engine_small_mcells, 3) << ", \"engine_1t\": "
                << format_fixed(r.engine_1t_mcells, 3) << ", \"engine_8t\": "
                << format_fixed(r.engine_8t_mcells, 3) << ", \"speedup_1t\": "
                << format_fixed(r.speedup_1t(), 2) << ", \"scaling_8t\": "
                << format_fixed(r.scaling_8t(), 2) << ", \"byte_identical\": "
                << (r.engine_matches_legacy && r.threads_byte_identical ? "true"
                                                                        : "false")
                << "}" << (i + 1 < results.size() ? "," : "") << "\n";
        }
        out << "  ],\n";
        out << "  \"tiled\": {\"kernel\": \"" << kTiledKernel << "\", \"frame\": ["
            << kTiledW << ", "
            << kTiledH << "], \"iterations\": " << kTiledIters
            << ", \"tile_depth\": " << tiled.depth << ", \"untiled_1t\": "
            << format_fixed(tiled.untiled_mcells, 3) << ", \"tiled_1t\": "
            << format_fixed(tiled.tiled_mcells, 3) << ", \"speedup\": "
            << format_fixed(tiled.speedup(), 2) << ", \"byte_identical\": "
            << (tiled.byte_identical ? "true" : "false") << "},\n";
        out << "  \"fixed\": {\"kernel\": \"" << kFixedKernel << "\", \"format\": \""
            << to_string(kFixedFormat) << "\", \"reference_1t\": "
            << format_fixed(fixed.reference_mcells, 3) << ", \"engine_1t\": "
            << format_fixed(fixed.engine_mcells, 3) << ", \"speedup\": "
            << format_fixed(fixed.speedup(), 2) << ", \"word_identical\": "
            << (fixed.word_identical ? "true" : "false") << "},\n";
        // Single-thread Mcells/s anchors in both domains on the wide frame,
        // plus the measured memory-bandwidth roofline they sit under.
        // Absolute numbers are recorded for the log, only the same-host
        // fixed/double ratio is gated.
        out << "  \"wide\": {\"kernel\": \"" << kWideKernel << "\", \"format\": \""
            << to_string(kWideFormat) << "\", \"frame\": [" << kWideW << ", " << kWideH
            << "], \"iterations\": " << kWideIters << ", \"double_1t\": "
            << format_fixed(wide.double_mcells, 3) << ", \"fixed_1t\": "
            << format_fixed(wide.fixed_mcells, 3) << ", \"ratio\": "
            << format_fixed(wide.ratio(), 2) << ", \"word_identical\": "
            << (wide.word_identical ? "true" : "false") << "},\n";
        out << "  \"dram\": {\"copy_gbps\": " << format_fixed(dram.copy_gbps, 2)
            << ", \"untiled_roofline_mcells\": "
            << format_fixed(dram.untiled_roofline_mcells(), 1) << "},\n";
        if (scaling.measured) {
            out << "  \"tiled_threads\": {\"kernel\": \"" << kTiledKernel
                << "\", \"tiled_1t\": " << format_fixed(scaling.tiled_1t_mcells, 3)
                << ", \"tiled_4t\": " << format_fixed(scaling.tiled_4t_mcells, 3)
                << ", \"scaling\": " << format_fixed(scaling.scaling(), 2)
                << ", \"byte_identical\": "
                << (scaling.byte_identical ? "true" : "false") << "},\n";
        }
        out << "  \"gated_metrics\": {\n";
        for (const Kernel_result& r : results) {
            out << "    \"" << r.name << "_speedup_1t\": "
                << format_fixed(r.speedup_1t(), 2) << ",\n";
        }
        out << "    \"" << kTiledKernel
            << "_tiled_speedup_1t\": " << format_fixed(tiled.speedup(), 2) << ",\n";
        out << "    \"fixed_row_speedup_1t\": " << format_fixed(fixed.speedup(), 2)
            << ",\n";
        out << "    \"fixed_vs_double_wide_1t\": " << format_fixed(wide.ratio(), 2)
            << "\n";
        out << "  },\n";
        // Metrics that only exist on capable hosts: compared against the
        // baseline when present on both sides, tolerated when either side
        // lacks them (tools/check_bench.py "optional_gated_metrics").
        out << "  \"optional_gated_metrics\": {";
        if (scaling.measured) {
            out << "\n    \"tiled_scaling_4t\": " << format_fixed(scaling.scaling(), 2)
                << "\n  ";
        }
        out << "}\n}\n";
    });
}

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        }
    }

    std::cout << "micro_sim_throughput — compiled scanline engine vs per-pixel "
                 "interpreter\n\n";
    const int hw = resolve_thread_count(0);
    std::cout << "[INFO] host: " << hw << " hardware thread(s)\n";
    std::cout << "[INFO] cache: " << to_string(cache_topology()) << "\n";
    std::cout << "[INFO] tape lane ISA: " << tape_lane_isa() << "\n";

    std::vector<Kernel_result> results;
    for (const std::string name : {"heat", "igf", "chambolle"}) {
        results.push_back(bench_kernel(name));
        const Kernel_result& r = results.back();
        std::cout << "[INFO] " << r.name << ": legacy "
                  << format_fixed(r.legacy_mcells, 2) << " Mcells/s vs engine "
                  << format_fixed(r.engine_small_mcells, 2)
                  << " Mcells/s on the same workload ("
                  << format_fixed(r.speedup_1t(), 1) << "x); large frame: 1t "
                  << format_fixed(r.engine_1t_mcells, 2) << " Mcells/s, 8t "
                  << format_fixed(r.engine_8t_mcells, 2) << " Mcells/s (scaling "
                  << format_fixed(r.scaling_8t(), 2) << "x)\n";
    }
    std::cout << "\n";

    const Tiled_result tiled = bench_tiled();
    std::cout << "[INFO] temporal tiling (" << kTiledKernel << ", " << kTiledW << "x"
              << kTiledH << ", "
              << kTiledIters << " iterations, depth " << tiled.depth << "): untiled 1t "
              << format_fixed(tiled.untiled_mcells, 2) << " Mcells/s, tiled 1t "
              << format_fixed(tiled.tiled_mcells, 2) << " Mcells/s ("
              << format_fixed(tiled.speedup(), 2) << "x)\n";

    const Fixed_result fixed = bench_fixed();
    std::cout << "[INFO] fixed-point row engine (" << kFixedKernel << ", "
              << to_string(kFixedFormat) << "): per-pixel reference "
              << format_fixed(fixed.reference_mcells, 2) << " Mcells/s vs engine "
              << format_fixed(fixed.engine_mcells, 2) << " Mcells/s ("
              << format_fixed(fixed.speedup(), 1) << "x)\n";

    const Dram_result dram = bench_dram();
    std::cout << "[INFO] memory bandwidth: " << format_fixed(dram.copy_gbps, 1)
              << " GB/s copy -> untiled 3-stream roofline ~"
              << format_fixed(dram.untiled_roofline_mcells(), 0) << " Mcells/s\n";

    const Wide_result wide = bench_wide();
    std::cout << "[INFO] wide-frame anchor (" << kWideKernel << ", " << kWideW << "x"
              << kWideH << ", " << kWideIters << " iterations): double 1t "
              << format_fixed(wide.double_mcells, 2) << " Mcells/s, fixed "
              << to_string(kWideFormat) << " 1t "
              << format_fixed(wide.fixed_mcells, 2) << " Mcells/s (ratio "
              << format_fixed(wide.ratio(), 2) << ")\n";

    const Tiled_scaling_result scaling = bench_tiled_scaling(hw);
    if (scaling.measured) {
        std::cout << "[INFO] tiled thread scaling (" << kTiledKernel << "): 1t "
                  << format_fixed(scaling.tiled_1t_mcells, 2) << " Mcells/s, 4t "
                  << format_fixed(scaling.tiled_4t_mcells, 2) << " Mcells/s ("
                  << format_fixed(scaling.scaling(), 2) << "x)\n\n";
    } else {
        std::cout << "[INFO] tiled thread scaling skipped (host has " << hw
                  << " hardware thread(s), needs >= 4)\n\n";
    }

    int deviations = 0;
    for (const Kernel_result& r : results) {
        deviations += islhls_bench::report_claim(
            r.name + ": engine frames byte-identical to the legacy interpreter",
            r.engine_matches_legacy);
        deviations += islhls_bench::report_claim(
            r.name + ": 2- and 8-thread runs byte-identical to serial",
            r.threads_byte_identical);
        deviations += islhls_bench::report_claim(
            r.name + ": single-thread engine >= 5x the legacy interpreter",
            r.speedup_1t() >= 5.0);
        if (hw >= 4) {
            deviations += islhls_bench::report_claim(
                r.name + ": 8-thread engine >= 1.2x single-thread",
                r.scaling_8t() >= 1.2);
        } else {
            std::cout << "[INFO] " << r.name
                      << ": 8-thread scaling not gated (host has " << hw
                      << " hardware thread(s))\n";
        }
    }

    deviations += islhls_bench::report_claim(
        "tiled frames byte-identical to the untiled engine", tiled.byte_identical);
    deviations += islhls_bench::report_claim(
        "temporal tiling >= 1.3x the untiled single-thread engine on the "
        "out-of-cache frame",
        tiled.speedup() >= 1.3);
    deviations += islhls_bench::report_claim(
        "fixed row engine raw words identical to the per-pixel run_fixed_raw "
        "sweep",
        fixed.word_identical);
    deviations += islhls_bench::report_claim(
        "fixed row engine >= 5x the per-pixel fixed reference",
        fixed.speedup() >= 5.0);
    deviations += islhls_bench::report_claim(
        "wide-frame fixed raw words identical between untiled and depth-2 "
        "tiled runs",
        wide.word_identical);
    if (scaling.measured) {
        deviations += islhls_bench::report_claim(
            "4-thread tiled frames byte-identical to single-thread",
            scaling.byte_identical);
    }

    if (!json_path.empty()) {
        if (write_json(json_path, results, tiled, fixed, wide, dram, scaling, hw)) {
            std::cout << "\nwrote " << json_path << "\n";
        } else {
            deviations += 1;
        }
    }
    return deviations == 0 ? 0 : 1;
}
