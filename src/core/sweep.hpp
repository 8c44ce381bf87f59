// Batch sweeps: many kernels × devices × iteration counts through one
// shared cache — the request, result and report types.
//
// A sweep keeps one Cone_library per kernel, so cones are built once per
// (window, depth) no matter how many devices or iteration counts ask for
// them, and virtual syntheses are shared across iteration counts (they are
// keyed by device inside the library). Each combination runs the full
// device fit — and optionally the Pareto sweep, the format search and the
// golden validations — of every selected backend.
//
// One Thread_pool (Space_options::threads wide) serves the whole request:
// the kernels with work left fan out across it, one task per kernel, and a
// kernel's combinations run in their nesting order inside its task. A lone
// task takes the pool for its own Explorer and frame-engine fan-outs
// (Exec_options::pool) instead. Entries merge in config order, so the
// report is deterministic at any thread count.
//
// The sweep machinery itself lives in Sweep_service (core/service.hpp), the
// one front door: constructed without a cache directory it runs in memory,
// with one it adds the persistent content-addressed result cache, and
// run_requests() is its fault-tolerant batch front-end.
#pragma once

#include <string>
#include <vector>

#include "backend/fixed_point.hpp"
#include "dse/explorer.hpp"
#include "dse/streaming_backend.hpp"
#include "estimate/throughput_model.hpp"

namespace islhls {

// Every architecture backend a sweep can explore, in the order
// `--backend all` runs them.
const std::vector<std::string>& sweep_backends();

struct Sweep_config {
    std::vector<std::string> kernels;    // registry names, e.g. "igf"
    std::vector<std::string> devices;    // device names, e.g. "xc6vlx760"
    std::vector<int> iteration_counts;   // N values to sweep
    int frame_width = 1024;
    int frame_height = 768;
    Fixed_format format;
    // `iterations` is overridden per combination; `threads` sets the fan-out
    // width of every exploration in the request.
    Space_options space;
    Throughput_params throughput;
    std::vector<int> calibration_windows = {1, 2};
    // Architecture backends to explore per combination (a subset of
    // sweep_backends()); each backend contributes its own report entry, and
    // with more than one backend plus `with_pareto`, the per-backend fronts
    // merge into one cross-backend front per combination.
    std::vector<std::string> backends = {"paper"};
    bool with_pareto = false;  // additionally run the Pareto sweep per combo
    // Golden validation of each feasible best fit: simulate the fitted
    // architecture functionally on a small frame and compare against the
    // ghost-zone golden (must agree bit for bit in double mode). The
    // validation frame is deliberately independent of the modeled
    // frame_width/height — simulation cost scales with frame area, and
    // exactness does not depend on it.
    bool validate = false;
    int validation_frame_width = 48;
    int validation_frame_height = 36;
    std::uint64_t validation_seed = 17;
    // Per-architecture fixed-point formats: run the format search over every
    // (window, depth) cell once per (kernel, device) — the grid is
    // N-independent but each cell carries a full evaluation of its canonical
    // design point at the searched format, so the session caches it per
    // device — record the narrowest format covering each feasible fit's
    // depth classes as a report column, and re-run the full evaluation of
    // the fit at that width (area, f_max and fps) instead of pricing at the
    // one global `format`.
    bool search_formats = false;
    Format_search_options format_search;
    // Fixed-mode golden check of each feasible fit: simulate the fitted
    // architecture under Qm.f quantization (the per-architecture format when
    // search_formats found one, else `format`) and compare raw words against
    // the fixed frame engine's ghost golden — must match word for word.
    bool validate_fixed = false;
};

// One Pareto-front point as cached entries carry it: enough to rebuild the
// cross-backend merged front without re-running any exploration, via the
// front-of-fronts identity front(A + B) == front(front(A) + front(B)).
struct Front_point {
    std::string config;  // human-readable candidate identity
    double area_luts = 0.0;
    double seconds_per_frame = 0.0;
    double fps = 0.0;
};

struct Sweep_entry {
    std::string kernel;
    std::string device;
    int iterations = 0;
    std::string backend = "paper";   // backend that produced this entry
    bool fits = false;               // a feasible device fit exists
    Arch_evaluation best;            // valid when `fits` and backend "paper"
    // Valid when `fits` and backend "streaming": the best-fps feasible
    // streaming configuration.
    Streaming_evaluation streaming_best;
    std::size_t pareto_points = 0;   // filled when with_pareto
    std::size_t pareto_front_size = 0;
    // The backend's own Pareto front, filled when with_pareto; feeds the
    // merged cross-backend front (warm cache included).
    std::vector<Front_point> front_points;
    // Filled when Sweep_config::validate and `fits`: max |sim - golden| over
    // all state fields (0.0 = the architecture reproduces the golden
    // exactly, which double mode must).
    bool validated = false;
    double validation_max_abs_err = 0.0;
    // Filled when Sweep_config::search_formats and `fits`: the narrowest
    // searched format covering every depth class of the best fit (for
    // streaming, the (window 1, fused depth) cell), and the best fit fully
    // re-evaluated at that width — area, f_max and fps all shift with the
    // word width, so the format columns are a true design point.
    bool format_searched = false;
    bool format_satisfiable = false;
    // Every covering depth class reproduced the double reference exactly at
    // the covering format. format_psnr_db is then meaningless (0.0): exact
    // is a flag, never a sentinel decibel value. When false, format_psnr_db
    // is the worst PSNR over the non-exact classes.
    bool format_exact = false;
    Fixed_format fixed_format;
    double format_psnr_db = 0.0;
    double searched_area_luts = 0.0;
    double searched_fps = 0.0;
    double searched_f_max_mhz = 0.0;
    // Filled when Sweep_config::validate_fixed and `fits`: max |sim - golden|
    // in raw-word LSBs over all state fields (0 = the fixed-point
    // architecture reproduces the frame engine's raw words exactly).
    bool validated_fixed = false;
    double validation_max_raw_err = 0.0;
};

// The merged cross-backend Pareto front of one kernel x device x N
// combination; built when with_pareto runs with more than one backend.
struct Merged_front {
    std::string kernel;
    std::string device;
    int iterations = 0;
    struct Point {
        std::string backend;
        Front_point point;
    };
    std::vector<Point> points;  // non-dominated set, ascending area
};

struct Sweep_report {
    std::vector<Sweep_entry> entries;  // kernel-major, then device, N, backend
    // One merged front per combination (empty unless with_pareto ran with
    // more than one backend); derived from the entries' front_points, so a
    // fully warm cache rebuilds them without recomputing anything.
    std::vector<Merged_front> merged_fronts;
    // Shared-cache effectiveness over this run (in-process memoization).
    int cone_builds = 0;
    long long cone_lookups = 0;
    int synthesis_runs = 0;
    long long synthesis_lookups = 0;
    double synthesis_cpu_seconds = 0.0;  // simulated tool time actually spent
    double wall_seconds = 0.0;           // host time for the whole run
    // Persistent result-cache effectiveness over this run (all zero when no
    // cache is attached). A fully warm run shows entry_hits == entries.size()
    // with zero synthesis_runs and zero cone_builds: every combination was
    // served without recomputing anything.
    int entry_hits = 0;
    int entry_misses = 0;
    int entry_stores = 0;
    int grid_hits = 0;
    int grid_misses = 0;
    int synthesis_loads = 0;  // syntheses served from the persistent cache
};

// The widest fan-out a request may ask for: thread counts come from
// untrusted flags and request files, and each one is a started thread.
constexpr int max_threads = 256;

// Throws a User_error unless `threads` is 0 (all hardware threads) or
// 1..max_threads.
void validate_thread_count(int threads);

// Validates a sweep configuration, throwing a named user error (kind
// Error_kind::user) for each way a config can be malformed. Sweep_service
// runs it on every request.
void validate_config(const Sweep_config& config);

// The deterministic per-combination table alone: byte-identical across
// reruns of the same config (cold or warm cache, any thread count).
std::string report_table(const Sweep_report& report);

// report_table() plus the volatile footer (cache meters, wall time).
std::string to_string(const Sweep_report& report);

}  // namespace islhls
