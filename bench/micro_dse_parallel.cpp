// Serial vs parallel design-space exploration on the IGF kernel.
//
// Runs the paper's full Pareto sweep and device fit (1024x768, N = 10,
// windows 1..9, depths 1..5, XC6VLX760) twice from a cold cache: once with
// the serial explorer (threads = 1) and once fanned across 8 threads. The
// bench then checks the refactor's two contracts:
//
//   1. determinism — the parallel Pareto front and device-fit grid are
//      byte-identical to the serial results (serialize_record compare);
//   2. speedup — the sweep's synthesis workload (the dominating modeled
//      cost: the virtual tool runtimes are minutes to hours per cone, which
//      is exactly why the paper estimates instead of synthesizing) consists
//      of independent per-(window, depth) jobs, and scheduling those jobs
//      across 8 synthesis workers cuts the synthesis-phase makespan by >= 3x
//      versus the serial one-after-another order.
//
// Host wall times for the model-evaluation phase are reported as INFO: they
// track the thread count only when the host actually has spare cores, so
// they are measured but not gated on (CI machines are often 1-2 cores).
//
// With --json <path> the run is recorded as a BENCH_dse.json perf-trajectory
// record (temp file + rename, same discipline as micro_sim_throughput); the
// "gated_metrics" block carries the host-portable synthesis-makespan speedup
// that tools/check_bench.py diffs against the committed baseline in CI.
// It also times the multi-backend seam: one cold sweep over the paper
// backend alone vs the same sweep over paper + streaming through one shared
// Cone_library. The streaming backend's candidates are closed-form and its
// calibration reuses the paper backend's synthesis set, so the whole second
// backend must cost at most 1.5x the single-backend sweep; the gated
// "multi_backend_sweep_overhead" metric stores the INVERTED ratio
// t_paper/t_all (gates are higher-is-better).
#include <chrono>
#include <iostream>
#include <numeric>
#include <string>

#include "bench_common.hpp"
#include "core/service.hpp"
#include "core/sweep_records.hpp"
#include "dse/explorer.hpp"
#include "kernels/kernels.hpp"
#include "support/parallel.hpp"
#include "support/text.hpp"
#include "symexec/executor.hpp"
#include "synth/device.hpp"

namespace {

using namespace islhls;

struct Sweep_run {
    std::string pareto_record;
    std::string fit_record;
    double wall_ms = 0.0;
    double synthesis_cpu_seconds = 0.0;
    std::vector<double> synthesis_costs;
    std::size_t points = 0;
    std::size_t front = 0;
};

Sweep_run run_sweep(int threads) {
    Sweep_config paper = islhls_bench::paper_config();
    paper.space.threads = threads;
    Sweep_service service;  // a fresh library per run
    Explorer explorer = islhls_bench::explorer_for(service, "igf", paper);
    const Cone_library& library = service.library("igf");

    const auto start = std::chrono::steady_clock::now();
    const Pareto_result pareto = explorer.explore_pareto();
    const Fit_result fit = explorer.fit_device();
    const auto stop = std::chrono::steady_clock::now();

    Sweep_run run;
    run.pareto_record = serialize_record(pareto);
    run.fit_record = serialize_record(fit);
    run.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
    run.synthesis_cpu_seconds = library.synthesis_cpu_seconds();
    run.synthesis_costs = library.synthesis_costs();
    run.points = pareto.points.size();
    run.front = pareto.front.size();
    return run;
}

// Cold multi-backend sweep wall time (a fresh service per run, so each
// measurement pays its own cone builds and virtual syntheses).
double time_backend_sweep(const std::vector<std::string>& backends) {
    Sweep_config config;
    config.kernels = {"igf", "jacobi"};
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {10};
    config.frame_width = islhls_bench::paper_config().frame_width;
    config.frame_height = islhls_bench::paper_config().frame_height;
    config.with_pareto = true;
    config.backends = backends;
    Sweep_service service;
    const auto start = std::chrono::steady_clock::now();
    const Sweep_report report = service.run(config);
    const auto stop = std::chrono::steady_clock::now();
    if (report.entries.empty()) return 0.0;  // keeps the claim false below
    return std::chrono::duration<double, std::milli>(stop - start).count();
}

// The bench fails when the record could not be written, so CI never passes
// with a missing or stale perf record.
bool write_json(const std::string& path, const Sweep_run& serial,
                const Sweep_run& parallel, double serial_synth,
                double parallel_synth, double speedup, double overhead_inv) {
    return islhls_bench::write_json_record(path, [&](std::ostream& out) {
        out << "{\n";
        out << "  \"bench\": \"micro_dse_parallel\",\n";
        out << "  \"kernel\": \"igf\",\n";
        out << "  \"hardware_threads\": " << resolve_thread_count(0) << ",\n";
        out << "  \"design_points\": " << serial.points << ",\n";
        out << "  \"pareto_front\": " << serial.front << ",\n";
        out << "  \"synthesis_jobs\": " << parallel.synthesis_costs.size() << ",\n";
        out << "  \"serial_synthesis_hours\": " << format_fixed(serial_synth / 3600.0, 3)
            << ",\n";
        out << "  \"parallel_synthesis_hours\": "
            << format_fixed(parallel_synth / 3600.0, 3) << ",\n";
        out << "  \"model_eval_wall_ms\": {\"serial\": " << format_fixed(serial.wall_ms, 1)
            << ", \"threads_8\": " << format_fixed(parallel.wall_ms, 1) << "},\n";
        out << "  \"gated_metrics\": {\n";
        out << "    \"synthesis_makespan_speedup_8w\": " << format_fixed(speedup, 2)
            << ",\n";
        out << "    \"multi_backend_sweep_overhead\": "
            << format_fixed(overhead_inv, 2) << "\n";
        out << "  }\n}\n";
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

    std::cout << "micro_dse_parallel — serial vs 8-thread DSE on IGF\n\n";

    const Sweep_run serial = run_sweep(1);
    const Sweep_run parallel = run_sweep(8);

    std::cout << "Pareto sweep: " << serial.points << " design points, front of "
              << serial.front << "\n";
    std::cout << "[INFO] host: " << resolve_thread_count(0)
              << " hardware thread(s)\n";
    std::cout << "[INFO] model-evaluation wall: serial "
              << format_fixed(serial.wall_ms, 1) << " ms, 8-thread "
              << format_fixed(parallel.wall_ms, 1) << " ms\n";

    // The modeled synthesis workload, scheduled serially vs across 8 workers.
    const double serial_synth = serial.synthesis_cpu_seconds;
    const double parallel_synth = lpt_makespan(parallel.synthesis_costs, 8);
    const double speedup = parallel_synth > 0.0 ? serial_synth / parallel_synth : 0.0;
    std::cout << "[INFO] synthesis phase: " << parallel.synthesis_costs.size()
              << " independent jobs, " << format_fixed(serial_synth / 3600.0, 2)
              << " tool-hours serial, " << format_fixed(parallel_synth / 3600.0, 2)
              << " tool-hours across 8 workers (" << format_fixed(speedup, 2)
              << "x)\n\n";

    int deviations = 0;
    deviations += islhls_bench::report_claim(
        "parallel Pareto front is byte-identical to the serial sweep",
        parallel.pareto_record == serial.pareto_record);
    deviations += islhls_bench::report_claim(
        "parallel device-fit grid is byte-identical to the serial sweep",
        parallel.fit_record == serial.fit_record);
    deviations += islhls_bench::report_claim(
        "same synthesis workload discovered by both schedules",
        parallel.synthesis_costs == serial.synthesis_costs);
    deviations += islhls_bench::report_claim(
        "8-thread sweep cuts the synthesis-phase makespan by >= 3x",
        speedup >= 3.0);

    // The multi-backend seam: adding the streaming backend to a cold sweep
    // must ride the shared Cone_library instead of redoing the heavy work.
    const double t_paper = time_backend_sweep({"paper"});
    const double t_all = time_backend_sweep({"paper", "streaming"});
    const double overhead = t_paper > 0.0 ? t_all / t_paper : 0.0;
    const double overhead_inv = t_all > 0.0 ? t_paper / t_all : 0.0;
    std::cout << "\n[INFO] cold sweep (igf+jacobi, pareto): paper-only "
              << format_fixed(t_paper, 1) << " ms, paper+streaming "
              << format_fixed(t_all, 1) << " ms ("
              << format_fixed(overhead, 2) << "x)\n\n";
    deviations += islhls_bench::report_claim(
        "paper+streaming sweep costs <= 1.5x the paper-only sweep",
        t_paper > 0.0 && t_all > 0.0 && overhead <= 1.5);

    if (!json_path.empty()) {
        if (write_json(json_path, serial, parallel, serial_synth, parallel_synth,
                       speedup, overhead_inv)) {
            std::cout << "\nwrote " << json_path << "\n";
        } else {
            deviations += 1;
        }
    }
    return deviations == 0 ? 0 : 1;
}
