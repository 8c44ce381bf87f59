// The repository benchmark: seeded, closed-loop workloads over the public
// surfaces `islhls sweep` and `islhls serve` use, plus an outside-in layer
// trace. See README.md in this directory for the workloads and metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace islbench {

// A noise guard tripped or a metric was requested that the run did not
// produce: the benchmark refuses to print a number it cannot stand behind.
struct Guard_error : std::runtime_error {
    using std::runtime_error::runtime_error;
};

// --- statistics ------------------------------------------------------------------

// Linear-interpolated percentile q in (0, 1) of `samples`. Noise guard: at
// least ten samples must lie beyond the percentile (floor(n * (1 - q)) >=
// 10), except for the median of at least one second of timed work
// (`timed_seconds`), which a handful of long operations may carry.
double guarded_percentile(std::vector<double> samples, double q,
                          double timed_seconds);

// Plain median (no guard) for per-cell summaries that feed a geomean.
double median(std::vector<double> samples);
double geomean(const std::vector<double>& values);

// --- metrics ---------------------------------------------------------------------

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

// The metrics one run reports. Every metric must be backed by at least one
// sample of the workload's own traffic; emitting requires the exact set the
// run's mode declares, so a missing or stray metric fails the run loudly.
class Metric_set {
public:
    // Throws Guard_error when `samples` is 0 (the run did not produce the
    // metric), the value is not finite, or the name repeats.
    void add(const std::string& name, const std::string& unit, double value,
             long long samples);
    const std::vector<Metric>& metrics() const { return metrics_; }
    // Throws Guard_error unless the names are exactly `expected`.
    void require_exactly(const std::vector<std::string>& expected) const;
    std::string json() const;

private:
    std::vector<Metric> metrics_;
};

// The metric names of each mode, as BENCHMARK.json lists them.
const std::vector<std::string>& end_to_end_metric_names();
const std::vector<std::string>& per_layer_metric_names();

// --- tracing ---------------------------------------------------------------------

struct Span {
    std::string name;
    std::string request;  // spans of one request share this id
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;      // index into the tracer's spans, -1 for roots
    int thread = 0;
};

// In-memory span recorder. Spans nest per thread; a span opened on a thread
// with no open span of its own (a pool worker) is parented to the innermost
// span open on the thread that created the tracer.
class Tracer {
public:
    Tracer();

    class Scope {
    public:
        Scope(Tracer* tracer, std::string name, std::string request);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        // Seconds since the scope opened.
        double elapsed_s() const;

    private:
        Tracer* tracer_;
        int index_ = -1;
        int saved_ambient_ = -1;
        double start_us_ = 0.0;
    };

    // Records a span between two now_us() readings, for work whose start
    // and end are seen from different calls.
    void record(std::string name, std::string request, double start_us,
                double end_us);
    std::vector<Span> spans() const;
    double now_us() const;

private:
    friend class Scope;
    std::int64_t origin_ns_;
    std::thread::id owner_;
    std::atomic<int> ambient_{-1};
    mutable std::mutex mutex_;  // guards spans_
    std::vector<Span> spans_;
};

// A span's self time: its duration minus the union of its children's
// intervals clipped to it, in microseconds, per span index.
std::vector<double> self_times_us(const std::vector<Span>& spans);

// Chrome trace-event JSON ("X" events) with each span's parent, request and
// self time in its args.
std::string chrome_trace_json(const std::vector<Span>& spans);

// --- workloads -------------------------------------------------------------------

struct Run_options {
    std::string workload;  // dse_cold, serve_warm, sim_frames
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;  // scratch root inside the checkout
};

struct Run_result {
    bool correct = true;
    long long attempted = 0;
    long long failed = 0;
    Metric_set metrics;
    std::map<std::string, std::string> facts;  // host facts and digests
};

const std::vector<std::string>& workload_names();
Run_result run_workload(const Run_options& options);

// --- sim_frames golden digests ---------------------------------------------------

// The scene variant a seed selects; committed digests exist per variant.
int scene_variant(std::uint64_t seed);
constexpr int kSceneVariants = 2;

struct Digest_cell {
    std::string kernel;
    int width = 0;
    int height = 0;
    bool fixed = false;
};

// The (kernel, frame, domain) cells of the sim_frames mix.
std::vector<Digest_cell> sim_cells();
std::string cell_name(const Digest_cell& cell);

// fnv1a64 of the cell's output computed by the reference interpreters
// (run_ir_reference / run_ir_fixed_reference) on the variant's scene.
std::uint64_t reference_digest(const Digest_cell& cell, int variant);
// The committed digest (derived once with reference_digest).
std::uint64_t committed_digest(const Digest_cell& cell, int variant);

}  // namespace islbench
