// The three workloads and the outside-in layer trace.
//
// dse_cold    one cold 13-kernel DSE request per op on a fresh service and
//             an empty cache directory (what a DSE user waits on);
// serve_warm  one 64-request run_requests batch per op over a cache the
//             set-up filled (the read path: load, parse, dedup);
// sim_frames  one pass over the golden frame-engine mix per op.
// Each op's output is checked against an oracle that does not ask the
// program to agree with itself; see README.md.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>

#include "bench.hpp"
#include "core/service.hpp"
#include "core/sweep_records.hpp"
#include "digests.hpp"
#include "dse/architecture.hpp"
#include "dse/pareto.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "sim/arch_sim.hpp"
#include "sim/golden.hpp"
#include "sim/tape_lanes.hpp"
#include "support/cache_info.hpp"
#include "support/parallel.hpp"
#include "support/prng.hpp"
#include "support/result_cache.hpp"
#include "support/text.hpp"
#include "symexec/executor.hpp"
#include "synth/device.hpp"

#ifndef ISLBENCH_COMPILER
#define ISLBENCH_COMPILER "unknown"
#endif
#ifndef ISLBENCH_BUILD_TYPE
#define ISLBENCH_BUILD_TYPE "unknown"
#endif

namespace islbench {

using namespace islhls;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr const char* kDevice = "xc6vlx760";
constexpr int kIterations = 10;
constexpr int kBatchRequests = 64;
// Set-up repeats (setup_s is their median). A cold set-up is a fraction of
// a second, so several run before every cold op: the first ones move lazy
// one-time costs out of the timed ops, and spreading the rest over the run
// lets their median see the same host speed the ops see. A frame set-up
// takes a few seconds: three run before the warm-up and one more before
// every pass after the first.
constexpr int kColdSetupsPerOp = 4;
constexpr int kSimSetupsBeforeWarmUp = 3;
// A cold op takes about ten seconds; two of them bound a run's length
// while still giving a median of more than a second of work.
constexpr std::size_t kMinColdOps = 2;

// A directory tree removed when the owner goes out of scope.
class Scratch_tree {
public:
    explicit Scratch_tree(fs::path path) : path_(std::move(path)) {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~Scratch_tree() {
        std::error_code ignored;
        fs::remove_all(path_, ignored);
    }
    Scratch_tree(const Scratch_tree&) = delete;
    Scratch_tree& operator=(const Scratch_tree&) = delete;
    const fs::path& path() const { return path_; }
    std::string sub(const std::string& name) const { return (path_ / name).string(); }

private:
    fs::path path_;
};

// The paper's DSE request over `kernels`: N=10 on the xc6vlx760 at
// 1024x768, both backends, Pareto, format search and both validations.
Sweep_config dse_request(std::vector<std::string> kernels) {
    Sweep_config config;
    config.kernels = std::move(kernels);
    config.devices = {kDevice};
    config.iteration_counts = {kIterations};
    config.frame_width = 1024;
    config.frame_height = 768;
    config.backends = {"paper", "streaming"};
    config.with_pareto = true;
    config.search_formats = true;
    config.validate = true;
    config.validate_fixed = true;
    config.space.threads = 2;
    return config;
}

template <typename T>
void shuffle(std::vector<T>& items, Prng& prng) {
    for (int i = static_cast<int>(items.size()) - 1; i > 0; --i) {
        std::swap(items[static_cast<std::size_t>(i)],
                  items[static_cast<std::size_t>(prng.next_int(0, i))]);
    }
}

// Every registered kernel in a seeded order.
std::vector<std::string> seeded_kernels(std::uint64_t seed) {
    std::vector<std::string> kernels = kernel_names();
    Prng prng(seed ^ 0x6b65726e656c73ull);
    shuffle(kernels, prng);
    return kernels;
}

// One serve batch: 1-3 kernel subsets of the filled configuration, about a
// quarter of them repeats of an earlier request in the batch.
std::vector<Sweep_config> make_batch(Prng& prng) {
    const std::vector<std::string> names = kernel_names();
    std::vector<Sweep_config> batch;
    for (int i = 0; i < kBatchRequests; ++i) {
        if (i > 0 && prng.next_unit() < 0.25) {
            batch.push_back(batch[static_cast<std::size_t>(prng.next_int(0, i - 1))]);
            continue;
        }
        std::vector<std::string> subset = names;
        shuffle(subset, prng);
        subset.resize(static_cast<std::size_t>(prng.next_int(1, 3)));
        batch.push_back(dse_request(std::move(subset)));
    }
    return batch;
}

// User + system CPU seconds so far: of every thread of this process
// (RUSAGE_SELF) or of its reaped children (RUSAGE_CHILDREN).
double cpu_seconds(int who = RUSAGE_SELF) {
    rusage usage{};
    getrusage(who, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

// Wall and CPU time of one op or set-up.
struct Op_time {
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

class Stopwatch {
public:
    Op_time elapsed() const {
        return {seconds_since(wall_), cpu_seconds() - cpu_};
    }

private:
    Clock::time_point wall_ = Clock::now();
    double cpu_ = cpu_seconds();
};

// The ops of one run. The gated figure is wall time, what a user waits
// for; CPU time (user + system, all threads) is reported beside it as a
// fact, to tell host slowness from the program's own work.
struct Op_log {
    std::vector<double> wall_ms;
    std::vector<double> cpu_ms;
    double wall_s = 0.0;

    void add(const Op_time& t) {
        wall_ms.push_back(t.wall_s * 1e3);
        cpu_ms.push_back(t.cpu_s * 1e3);
        wall_s += t.wall_s;
    }
};

// Adds the end-to-end timing metrics of a run: the median set-up and op
// wall times, plus their CPU times as facts.
void report_ops(Run_result& result, const std::vector<Op_time>& setups,
                const Op_log& ops) {
    std::vector<double> setup_wall;
    std::vector<double> setup_cpu;
    for (const Op_time& t : setups) {
        setup_wall.push_back(t.wall_s);
        setup_cpu.push_back(t.cpu_s);
    }
    result.metrics.add("setup_s", "s", median(setup_wall),
                       static_cast<long long>(setups.size()));
    result.metrics.add("op_wall_ms_p50", "ms",
                       guarded_percentile(ops.wall_ms, 0.5, ops.wall_s),
                       static_cast<long long>(ops.wall_ms.size()));
    result.facts["ops"] = std::to_string(ops.wall_ms.size());
    result.facts["setup_cpu_s"] = std::to_string(median(setup_cpu));
    result.facts["op_cpu_ms_p50"] = std::to_string(median(ops.cpu_ms));
    if (ops.wall_ms.size() >= 100) {
        result.facts["op_wall_ms_p90"] =
            std::to_string(guarded_percentile(ops.wall_ms, 0.9, ops.wall_s));
    }
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string filesystem_type(const std::string& path) {
    struct statfs info {};
    if (statfs(path.c_str(), &info) != 0) return "unknown";
    switch (static_cast<unsigned long>(info.f_type)) {
        case 0xEF53: return "ext4";
        case 0x794c7630: return "overlayfs";
        case 0x01021994: return "tmpfs";
        case 0x58465342: return "xfs";
        case 0x9123683e: return "btrfs";
        case 0x6969: return "nfs";
        case 0x65735546: return "fuse";
        default: return cat("0x", hex64(static_cast<std::uint64_t>(info.f_type)));
    }
}

void record_host_facts(Run_result& result, const Run_options& options,
                       const std::string& cache_root) {
    result.facts["workload"] = options.workload;
    result.facts["seed"] = std::to_string(options.seed);
    result.facts["trace"] = options.trace ? "1" : "0";
    result.facts["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    result.facts["cache_topology"] = to_string(cache_topology());
    result.facts["lane_isa"] = tape_lane_isa();
    result.facts["compiler"] = ISLBENCH_COMPILER;
    result.facts["build_type"] = ISLBENCH_BUILD_TYPE;
    result.facts["cache_fs"] = filesystem_type(cache_root);
}

// Oracle of one cold request: every combination computed and stored once,
// and every feasible paper fit reproduces both goldens exactly.
bool cold_report_ok(const Sweep_report& report, std::size_t kernels,
                    std::string* why) {
    const auto expected = static_cast<int>(2 * kernels);
    if (static_cast<int>(report.entries.size()) != expected ||
        report.entry_stores != expected || report.entry_misses != expected) {
        *why = cat("entries ", report.entries.size(), " stores ", report.entry_stores,
                   " misses ", report.entry_misses, ", expected ", expected);
        return false;
    }
    int fitted = 0;
    for (const Sweep_entry& e : report.entries) {
        if (e.backend != "paper" || !e.fits) continue;
        ++fitted;
        if (!e.validated || !e.validated_fixed || e.validation_max_abs_err != 0.0 ||
            e.validation_max_raw_err != 0.0) {
            *why = cat(e.kernel, ": golden mismatch (abs ", e.validation_max_abs_err,
                       ", raw ", e.validation_max_raw_err, ")");
            return false;
        }
    }
    if (fitted == 0) {
        *why = "no feasible paper fit to validate";
        return false;
    }
    return true;
}

// Runs one cold request on a fresh service over a fresh cache directory;
// returns its time (service construction included).
Op_time cold_request(const Sweep_config& config, const std::string& dir,
                     Sweep_report* report) {
    fs::remove_all(dir);
    Op_time time;
    {
        const Stopwatch watch;
        Service_options options;
        options.cache_dir = dir;
        Sweep_service service(options);
        *report = service.run(config);
        time = watch.elapsed();
    }
    fs::remove_all(dir);
    return time;
}

// Each kernel's IR identity, the root of all its cache keys.
std::map<std::string, std::string> ir_keys(const std::vector<std::string>& kernels) {
    Sweep_service frontend;  // cache-less: frontend + symexec only
    std::map<std::string, std::string> keys;
    for (const std::string& k : kernels) {
        const Kernel_def& def = kernel_by_name(k);
        keys[k] = kernel_ir_key(def.name, def.boundary, frontend.library(k).step());
    }
    return keys;
}

std::string entry_key(const std::map<std::string, std::string>& ir,
                      const Sweep_config& config, const std::string& kernel,
                      const std::string& backend) {
    return sweep_entry_key(ir.at(kernel), config, kDevice, kIterations, backend);
}

// --- dse_cold --------------------------------------------------------------------

void run_dse_cold(const Run_options& options, const Scratch_tree& tree,
                  Run_result& result) {
    const Sweep_config setup_config = dse_request({"heat"});
    const Sweep_config config = dse_request(seeded_kernels(options.seed));
    std::vector<Op_time> setups;
    Op_log ops;
    const auto start = Clock::now();
    while (ops.wall_ms.size() < kMinColdOps || seconds_since(start) < options.seconds) {
        for (int i = 0; i < kColdSetupsPerOp; ++i) {
            Sweep_report report;
            setups.push_back(cold_request(setup_config, tree.sub("setup"), &report));
            std::string why;
            if (!cold_report_ok(report, 1, &why)) {
                result.correct = false;
                std::cerr << "setup request failed its check: " << why << "\n";
            }
        }
        Sweep_report report;
        const Op_time t = cold_request(config, tree.sub("op"), &report);
        ops.add(t);
        ++result.attempted;
        std::string why;
        if (!cold_report_ok(report, config.kernels.size(), &why)) {
            ++result.failed;
            std::cerr << "cold request failed its check: " << why << "\n";
        }
        std::cerr << "dse_cold op " << ops.wall_ms.size() << ": " << t.wall_s
                  << " s wall, " << t.cpu_s << " s cpu\n";
        result.facts["report_table_fnv1a64"] = hex64(fnv1a64(report_table(report)));
    }
    report_ops(result, setups, ops);
}

// --- serve_warm ------------------------------------------------------------------

// Fills `dir` with the full cold request in a child process, so the fill
// does not count toward this process's peak RSS. Returns the fill's time
// (the child's CPU time).
Op_time fill_cache(const Sweep_config& config, const std::string& dir) {
    const auto start = Clock::now();
    const double children_cpu = cpu_seconds(RUSAGE_CHILDREN);
    std::cout.flush();
    std::cerr.flush();
    const pid_t child = fork();
    if (child < 0) throw Guard_error(cat("fork failed: ", std::strerror(errno)));
    if (child == 0) {
        int code = 1;
        try {
            Service_options options;
            options.cache_dir = dir;
            Sweep_service service(options);
            std::string why;
            if (cold_report_ok(service.run(config), config.kernels.size(), &why)) {
                code = 0;
            } else {
                std::cerr << "cache fill failed its check: " << why << "\n";
            }
        } catch (const std::exception& e) {
            std::cerr << "cache fill failed: " << e.what() << "\n";
        }
        std::cerr.flush();
        _exit(code);
    }
    int status = 0;
    while (waitpid(child, &status, 0) < 0) {
        if (errno != EINTR) throw Guard_error("waitpid failed");
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw Guard_error("cache fill child failed");
    }
    return {seconds_since(start), cpu_seconds(RUSAGE_CHILDREN) - children_cpu};
}

// Oracle of one warm batch: every outcome ok and fully served from the
// cache with zero recompute, and every served entry byte-identical to the
// record the fill wrote.
bool warm_batch_ok(const std::vector<Sweep_config>& batch,
                   const std::vector<Request_outcome>& outcomes,
                   const std::map<std::string, std::string>& ir,
                   const std::map<std::string, std::string>& filled,
                   std::string* why) {
    if (outcomes.size() != batch.size()) {
        *why = "outcome count differs from request count";
        return false;
    }
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Request_outcome& o = outcomes[i];
        const Sweep_report& r = o.report;
        if (!o.ok) {
            *why = cat("request ", i, " failed: ", o.message);
            return false;
        }
        if (r.entries.size() != 2 * batch[i].kernels.size() ||
            r.entry_hits != static_cast<int>(r.entries.size()) || r.cone_builds != 0 ||
            r.synthesis_runs != 0 || r.grid_misses != 0) {
            *why = cat("request ", i, " was not a pure hit (hits ", r.entry_hits,
                       " of ", r.entries.size(), ", cones ", r.cone_builds,
                       ", syntheses ", r.synthesis_runs, ")");
            return false;
        }
        for (const Sweep_entry& e : r.entries) {
            const auto it = filled.find(entry_key(ir, batch[i], e.kernel, e.backend));
            if (it == filled.end() || serialize_record(e) != it->second) {
                *why = cat("request ", i, ": served ", e.kernel, "/", e.backend,
                           " differs from the filled record");
                return false;
            }
        }
    }
    return true;
}

// The payload the fill stored for every (kernel, backend) entry.
std::map<std::string, std::string> filled_records(
    const std::string& dir, const std::map<std::string, std::string>& ir) {
    Result_cache cache(dir);
    std::map<std::string, std::string> filled;
    const Sweep_config config = dse_request(kernel_names());
    for (const std::string& k : kernel_names()) {
        for (const std::string& backend : config.backends) {
            const std::string key = entry_key(ir, config, k, backend);
            std::optional<std::string> payload = cache.load(key);
            if (!payload) throw Guard_error(cat("fill lacks ", k, "/", backend));
            filled[key] = std::move(*payload);
        }
    }
    return filled;
}

void run_serve_warm(const Run_options& options, const Scratch_tree& tree,
                    Run_result& result) {
    const std::string dir = tree.sub("fill");
    const Op_time setup = fill_cache(dse_request(seeded_kernels(options.seed)), dir);
    const std::map<std::string, std::string> ir = ir_keys(kernel_names());
    const std::map<std::string, std::string> filled = filled_records(dir, ir);

    Prng prng(options.seed);
    Op_log ops;
    const auto start = Clock::now();
    while (ops.wall_ms.empty() || seconds_since(start) < options.seconds) {
        const std::vector<Sweep_config> batch = make_batch(prng);
        std::vector<Request_outcome> outcomes;
        {
            const Stopwatch watch;
            Service_options service_options;
            service_options.cache_dir = dir;
            Sweep_service service(service_options);
            outcomes = service.run_requests(batch);
            ops.add(watch.elapsed());
        }
        ++result.attempted;
        std::string why;
        if (!warm_batch_ok(batch, outcomes, ir, filled, &why)) {
            ++result.failed;
            std::cerr << "warm batch failed its check: " << why << "\n";
        }
    }
    report_ops(result, {setup}, ops);
}

// --- sim_frames ------------------------------------------------------------------

// Everything one sim_frames cell needs: its kernel's step and engine, the
// seeded initial frames and the golden digest its output must match.
struct Sim_kernel {
    const Kernel_def* def = nullptr;
    std::unique_ptr<Stencil_step> step;
    std::unique_ptr<Exec_engine> engine;
};

struct Sim_cell {
    Digest_cell cell;
    const Sim_kernel* kernel = nullptr;
    const Frame_set* initial = nullptr;
    std::uint64_t golden = 0;
    int reps = 1;  // repetitions per pass: equal cell-updates per cell
};

struct Sim_setup {
    std::map<std::string, Sim_kernel> kernels;
    std::map<std::string, Frame_set> frames;  // by "kernel WxH"
    std::vector<Sim_cell> cells;
};

void build_sim(int variant, Sim_setup& setup) {
    for (const Digest_cell& c : sim_cells()) {
        Sim_kernel& k = setup.kernels[c.kernel];
        if (!k.engine) {
            k.def = &kernel_by_name(c.kernel);
            k.step = std::make_unique<Stencil_step>(extract_stencil(k.def->c_source));
            k.engine = std::make_unique<Exec_engine>(*k.step);
        }
        const std::string frame_key = cat(c.kernel, " ", c.width, "x", c.height);
        if (!setup.frames.count(frame_key)) {
            setup.frames.emplace(frame_key,
                                 cell_initial(c.kernel, c.width, c.height, variant));
        }
        Sim_cell cell;
        cell.cell = c;
        cell.kernel = &k;
        cell.initial = &setup.frames.at(frame_key);
        cell.golden = committed_digest(c, variant);
        setup.cells.push_back(cell);
    }
    long long largest = 0;
    for (const Sim_cell& c : setup.cells) {
        largest = std::max(largest, 1LL * c.cell.width * c.cell.height);
    }
    for (Sim_cell& c : setup.cells) {
        const long long area = 1LL * c.cell.width * c.cell.height;
        c.reps = static_cast<int>((largest + area / 2) / area);
    }
}

// One run_ir call of a cell (auto tiling, `threads` wide); returns its
// time and whether the output matched the cell's golden digest.
Op_time run_cell(const Sim_cell& c, int threads, bool* ok) {
    const Exec_options exec{threads, 0, 0};
    const Boundary boundary = c.kernel->def->boundary;
    std::uint64_t digest = 0;
    Op_time time;
    if (c.cell.fixed) {
        const Stopwatch watch;
        const Fixed_frame_result out = c.kernel->engine->run_fixed(
            *c.initial, kSimIterations, boundary, cell_format(c.cell.kernel), exec);
        time = watch.elapsed();
        digest = output_digest(out);
    } else {
        const Stopwatch watch;
        const Frame_set out =
            c.kernel->engine->run(*c.initial, kSimIterations, boundary, exec);
        time = watch.elapsed();
        digest = output_digest(out);
    }
    *ok = digest == c.golden;
    if (!*ok) {
        std::cerr << cell_name(c.cell) << ": digest " << hex64(digest)
                  << " != golden " << hex64(c.golden) << "\n";
    }
    return time;
}

double cell_updates(const Sim_cell& c) {
    return static_cast<double>(c.cell.width) * c.cell.height * kSimIterations;
}

void run_sim_frames(const Run_options& options, Run_result& result) {
    const int variant = scene_variant(options.seed);
    std::vector<Op_time> setups;
    std::unique_ptr<Sim_setup> setup;
    // Builds and times a fresh set-up in place of the last one, so only one
    // is ever resident.
    auto rebuild = [&] {
        setup.reset();
        const Stopwatch watch;
        setup = std::make_unique<Sim_setup>();
        build_sim(variant, *setup);
        setups.push_back(watch.elapsed());
    };
    auto checked_run = [&](const Sim_cell& c) {
        bool ok = false;
        const Op_time t = run_cell(c, 1, &ok);
        ++result.attempted;
        if (!ok) ++result.failed;
        return t;
    };
    for (int i = 0; i < kSimSetupsBeforeWarmUp; ++i) rebuild();
    for (const Sim_cell& c : setup->cells) checked_run(c);  // untimed warm-up

    Prng prng(options.seed);
    Op_log passes;
    const auto start = Clock::now();
    while (passes.wall_ms.empty() || seconds_since(start) < options.seconds) {
        if (!passes.wall_ms.empty()) rebuild();
        std::vector<Sim_cell> order = setup->cells;
        shuffle(order, prng);
        Op_time pass;
        for (const Sim_cell& c : order) {
            for (int r = 0; r < c.reps; ++r) {
                const Op_time t = checked_run(c);
                pass.wall_s += t.wall_s;
                pass.cpu_s += t.cpu_s;
            }
        }
        passes.add(pass);
        std::cerr << "sim_frames pass " << passes.wall_ms.size() << ": " << pass.wall_s
                  << " s wall, set-up " << setups.back().wall_s << " s wall\n";
    }
    report_ops(result, setups, passes);
    result.facts["scene_variant"] = std::to_string(variant);
}

// --- traced run ------------------------------------------------------------------

// Spans that only enclose layers: the op itself and the service call that
// the cache seam and the re-drive split up.
bool is_envelope(const std::string& name) {
    return name == "dse_cold.op" || name == "service.run";
}

// Per-span-name totals of one request's spans.
struct Layer_totals {
    std::map<std::string, double> self_s;
    std::map<std::string, std::vector<double>> durations_us;
    double layer_s = 0.0;  // summed durations of every span but the envelopes
};

Layer_totals layer_totals(const std::vector<Span>& spans, const std::string& request) {
    const std::vector<double> self = self_times_us(spans);
    Layer_totals totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (s.request != request) continue;
        const double dur = s.end_us - s.start_us;
        totals.self_s[s.name] += self[i] / 1e6;
        totals.durations_us[s.name].push_back(dur);
        if (!is_envelope(s.name)) totals.layer_s += dur / 1e6;
    }
    return totals;
}

// One cache record: a key and the payload stored under it.
struct Record {
    std::string key;
    std::string payload;
};

// Splits an encoded cache record (the layout documented in
// support/result_cache.hpp: magic "ISLHLSC1", u32 version, u32 key length,
// u64 payload length, u64 checksum, key, payload; little-endian). False for
// any other file, such as the writability probe or the lock.
bool split_record(const std::string& raw, Record* record) {
    constexpr std::size_t kHeader = 32;
    if (raw.size() < kHeader || raw.compare(0, 8, "ISLHLSC1") != 0) return false;
    auto little_endian = [&raw](std::size_t at, int bytes) {
        std::uint64_t value = 0;
        for (int i = bytes - 1; i >= 0; --i) {
            value = value << 8 | static_cast<unsigned char>(raw[at + static_cast<std::size_t>(i)]);
        }
        return value;
    };
    const std::uint64_t key_len = little_endian(12, 4);
    const std::uint64_t payload_len = little_endian(16, 8);
    if (kHeader + key_len + payload_len != raw.size()) return false;
    record->key = raw.substr(kHeader, key_len);
    record->payload = raw.substr(kHeader + key_len);
    return true;
}

// Where this thread is inside a load-synthesize-store sequence.
thread_local double miss_end_us = -1.0;
thread_local double store_start_us = -1.0;

// Env_hooks around the real ones, which time the service's own cache
// traffic from outside (the only seam into a running sweep):
//   cache.load   each record read, hit or miss;
//   cache.store  each store, from taking the directory lock to releasing it
//                (lock file, fsync'd temp write, rename);
//   synth        each virtual synthesis: the library consults the store
//                right before synthesizing and stores right after, so the
//                time from a load miss to the store of a synthesis record on
//                one thread is the synthesis (plus any wait for another
//                thread's store).
// It keeps every record read and written, so parse and serialize times are
// taken on exactly the program's bytes.
class Cache_meter {
public:
    Cache_meter(Tracer& tracer, std::string request)
        : tracer_(tracer), request_(std::move(request)), hooks_(real_env_hooks()) {
        const Env_hooks& real = real_env_hooks();
        hooks_.read_file = [this, &real](const std::string& path, std::string* out,
                                         std::string* error) {
            const double start = tracer_.now_us();
            const Env_hooks::Read_result result = real.read_file(path, out, error);
            const double end = tracer_.now_us();
            if (!ends_with(path, ".rec")) return result;
            tracer_.record("cache.load", request_, start, end);
            Record record;
            const bool hit =
                result == Env_hooks::Read_result::ok && split_record(*out, &record);
            if (!hit) miss_end_us = end;
            std::lock_guard<std::mutex> lock(mutex_);
            ++loads_;
            if (hit) {
                bytes_read_ += static_cast<long long>(out->size());
                read_.push_back(std::move(record));
            }
            return result;
        };
        hooks_.create_exclusive = [this, &real](const std::string& path,
                                                const std::string& data, std::string* error) {
            if (ends_with(path, ".islhls.lock")) store_start_us = tracer_.now_us();
            return real.create_exclusive(path, data, error);
        };
        hooks_.write_file = [this, &real](const std::string& path, const std::string& data,
                                          std::string* error) {
            Record record;
            if (split_record(data, &record)) {
                if (starts_with(record.key, "synthesis-key") && miss_end_us >= 0.0 &&
                    store_start_us >= miss_end_us) {
                    tracer_.record("synth", request_, miss_end_us, store_start_us);
                }
                miss_end_us = -1.0;
                std::lock_guard<std::mutex> lock(mutex_);
                bytes_written_ += static_cast<long long>(data.size());
                written_.push_back(std::move(record));
            }
            return real.write_file(path, data, error);
        };
        hooks_.remove_file = [this, &real](const std::string& path) {
            const bool removed = real.remove_file(path);
            if (ends_with(path, ".islhls.lock") && store_start_us >= 0.0) {
                tracer_.record("cache.store", request_, store_start_us, tracer_.now_us());
                store_start_us = -1.0;
            }
            return removed;
        };
    }
    Cache_meter(const Cache_meter&) = delete;
    Cache_meter& operator=(const Cache_meter&) = delete;

    const Env_hooks* hooks() const { return &hooks_; }
    long long loads() const { return loads_; }
    long long bytes_read() const { return bytes_read_; }
    long long bytes_written() const { return bytes_written_; }
    const std::vector<Record>& read() const { return read_; }
    const std::vector<Record>& written() const { return written_; }

private:
    Tracer& tracer_;
    std::string request_;
    Env_hooks hooks_;
    std::mutex mutex_;  // guards the counters and records below
    long long loads_ = 0;
    long long bytes_read_ = 0;
    long long bytes_written_ = 0;
    std::vector<Record> read_;
    std::vector<Record> written_;
};

// Times serialize_record on a stored payload parsed back into its record
// type; true when the result is byte-identical to the stored payload.
template <typename T>
bool reserialize(Tracer& tracer, const std::string& payload) {
    T value;
    std::string error;
    if (!parse_record(payload, &value, &error)) return false;
    std::string again;
    {
        Tracer::Scope s(&tracer, "records.serialize", "dse_cold");
        again = serialize_record(value);
    }
    return again == payload;
}

bool reserialize(Tracer& tracer, const Record& record) {
    if (starts_with(record.key, "synthesis-key")) {
        return reserialize<Synthesis_report>(tracer, record.payload);
    }
    if (starts_with(record.key, "format-grid-key")) {
        return reserialize<Explorer::Format_grid>(tracer, record.payload);
    }
    if (starts_with(record.key, "sweep-entry-key")) {
        return reserialize<Sweep_entry>(tracer, record.payload);
    }
    return false;
}

// The evaluator options the service derives from a request.
Evaluator_options evaluator_options(const Sweep_config& config) {
    Evaluator_options options;
    options.frame_width = config.frame_width;
    options.frame_height = config.frame_height;
    options.format = config.format;
    options.synth.format = config.format;
    options.throughput = config.throughput;
    options.calibration_windows = config.calibration_windows;
    return options;
}

Frame_set validation_content(const Kernel_def& def, const Sweep_config& config) {
    return def.make_initial(make_synthetic_scene(config.validation_frame_width,
                                                 config.validation_frame_height,
                                                 config.validation_seed));
}

struct Dse_trace {
    long long cone_builds = 0;
    long long pool_nodes = 0;
    long long synth_runs = 0;
    long long pareto_points = 0;
    long long format_cells = 0;
    bool ok = true;
};

// Re-drives the per-entry steps of a finished cold op on the service's own
// libraries, one span per public call: the service exposes no seam inside
// these layers. The op memoized every cone and synthesis, so each span is
// that step's own work. The fit, format and streaming choices are read from
// the op's report, not re-derived.
void redrive_layers(Tracer& tracer, Sweep_service& service, const Sweep_config& config,
                    const Sweep_report& report, Dse_trace& out) {
    Thread_pool pool(config.space.threads);
    const Fpga_device& device = device_by_name(kDevice);
    Space_options space = config.space;
    space.iterations = kIterations;
    const Evaluator_options options = evaluator_options(config);
    auto priced_at = [&options](const Fixed_format& format) {
        Evaluator_options priced = options;
        priced.format = format;
        priced.synth.format = format;
        return priced;
    };
    for (const Sweep_entry& e : report.entries) {
        Cone_library& lib = service.library(e.kernel);
        const Kernel_def& def = kernel_by_name(e.kernel);
        if (e.backend == "streaming") {
            Tracer::Scope s(&tracer, "dse.streaming", "dse_cold");
            Streaming_backend streaming(lib, device, options, space);
            streaming.calibrate();
            std::vector<Design_point> points;
            for (const Streaming_config& candidate : streaming.configs()) {
                const Streaming_evaluation eval = streaming.evaluate(candidate);
                if (eval.feasible) {
                    points.push_back({eval.area_luts, eval.seconds_per_frame, points.size()});
                }
            }
            pareto_front(points);
            if (e.fits && e.format_satisfiable) {
                Streaming_backend priced(lib, device, priced_at(e.fixed_format), space);
                priced.calibrate();
                priced.evaluate(e.streaming_best.config);
            }
            continue;
        }
        Explorer explorer(lib, device, options, space, &pool);
        {
            Tracer::Scope s(&tracer, "dse.fit", "dse_cold");
            explorer.fit_device();
        }
        {
            Tracer::Scope s(&tracer, "dse.pareto", "dse_cold");
            out.pareto_points +=
                static_cast<long long>(explorer.explore_pareto().points.size());
        }
        {
            Tracer::Scope s(&tracer, "format.search", "dse_cold");
            out.format_cells += static_cast<long long>(
                explorer
                    .search_formats(validation_content(def, config), def.boundary,
                                    config.format_search)
                    .cells.size());
        }
        if (!e.fits) continue;
        if (e.format_satisfiable) {
            Tracer::Scope s(&tracer, "dse.reprice", "dse_cold");
            Arch_evaluator(lib, device, priced_at(e.fixed_format)).evaluate(e.best.instance);
        }
        Tracer::Scope s(&tracer, "archsim.validate", "dse_cold");
        const Frame_set initial = validation_content(def, config);
        const Exec_options exec{1, 0, 0, &pool};
        run_ghost_ir(lib.step(), initial, kIterations, def.boundary, exec);
        Arch_sim_options sim;
        sim.boundary = def.boundary;
        simulate_architecture(lib, e.best.instance, initial, sim);
        sim.fixed_point = true;
        sim.format = e.format_searched && e.format_satisfiable ? e.fixed_format : config.format;
        run_ghost_ir(lib.step(), initial, kIterations, def.boundary, sim.format, exec);
        simulate_architecture(lib, e.best.instance, initial, sim);
    }
}

// One cold op on a real service whose cache traffic goes through `meter`:
// the frontend and the cone grid first, through the service's own
// libraries, then the request, then the re-drive of its per-entry steps and
// the serializer timings on the records it wrote.
Dse_trace trace_dse(Tracer& tracer, Cache_meter& meter, const Sweep_config& config,
                    const std::string& dir) {
    Dse_trace out;
    Tracer::Scope root(&tracer, "dse_cold.op", "dse_cold");
    Service_options options;
    options.cache_dir = dir;
    options.hooks = meter.hooks();
    Sweep_service service(options);
    for (const std::string& kernel : config.kernels) {
        Tracer::Scope s(&tracer, "frontend.extract", "dse_cold");
        service.library(kernel);
    }
    for (const std::string& kernel : config.kernels) {
        Tracer::Scope s(&tracer, "cone.build", "dse_cold");
        Cone_library& lib = service.library(kernel);
        for (int d = 1; d <= config.space.max_depth; ++d) {
            for (int w = 1; w <= config.space.max_window; ++w) lib.cone(w, d);
        }
    }
    Sweep_report report;
    {
        Tracer::Scope s(&tracer, "service.run", "dse_cold");
        report = service.run(config);
    }
    std::string why;
    if (!cold_report_ok(report, config.kernels.size(), &why)) {
        std::cerr << "traced cold request failed its check: " << why << "\n";
        out.ok = false;
    }
    if (report.cone_builds != 0) {
        std::cerr << "the request built " << report.cone_builds
                  << " cones outside the traced grid\n";
        out.ok = false;
    }
    redrive_layers(tracer, service, config, report, out);
    for (const std::string& kernel : config.kernels) {
        const Cone_library& lib = service.library(kernel);
        out.cone_builds += lib.cone_builds();
        out.pool_nodes += static_cast<long long>(lib.step().pool().size());
        out.synth_runs += lib.synthesis_runs();
    }
    if (out.synth_runs != report.synthesis_runs) {
        std::cerr << "the re-drive ran " << out.synth_runs - report.synthesis_runs
                  << " syntheses the request did not\n";
        out.ok = false;
    }
    for (const Record& record : meter.written()) {
        if (!reserialize(tracer, record)) {
            std::cerr << "a stored record does not re-serialize byte-identically\n";
            out.ok = false;
        }
    }
    return out;
}

// One serve batch on a real service whose cache reads go through `meter`,
// checked by the serve oracle; then parse_record timed on every payload the
// batch read.
struct Serve_trace {
    double dedup_frac = 0.0;
    double open_ms = 0.0;
    bool ok = true;
};

Serve_trace trace_serve(Tracer& tracer, Cache_meter& meter,
                        const std::vector<Sweep_config>& batch, const std::string& dir,
                        const std::map<std::string, std::string>& ir,
                        const std::map<std::string, std::string>& filled) {
    Serve_trace out;
    Tracer::Scope root(&tracer, "serve_warm.batch", "serve_warm");
    std::optional<Sweep_service> service;
    {
        Tracer::Scope s(&tracer, "service.open", "serve_warm");
        Service_options options;
        options.cache_dir = dir;
        options.hooks = meter.hooks();
        service.emplace(options);
        out.open_ms = s.elapsed_s() * 1e3;
    }
    std::vector<Request_outcome> outcomes;
    {
        Tracer::Scope s(&tracer, "service.run_requests", "serve_warm");
        outcomes = service->run_requests(batch);
    }
    std::string why;
    if (!warm_batch_ok(batch, outcomes, ir, filled, &why)) {
        std::cerr << "traced warm batch failed its check: " << why << "\n";
        out.ok = false;
    }
    long long dedup = 0;
    for (const Request_outcome& o : outcomes) dedup += o.deduplicated ? 1 : 0;
    out.dedup_frac = static_cast<double>(dedup) / static_cast<double>(outcomes.size());
    for (const Record& record : meter.read()) {
        Sweep_entry entry;
        std::string error;
        Tracer::Scope s(&tracer, "records.parse", "serve_warm");
        out.ok &= parse_record(record.payload, &entry, &error);
    }
    return out;
}

// 3-stream (two reads, one write) bandwidth over 16 MiB arrays, best of 5,
// in bytes per second.
double stream_bandwidth() {
    const std::size_t n = 2048u * 1024u;
    std::vector<double> a(n, 1.0), b(n, 2.0), c(n, 0.0);
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < n; ++i) c[i] = a[i] + b[i];
        best = std::min(best, seconds_since(start));
        a[rep] = c[n - 1 - static_cast<std::size_t>(rep)];  // keep the loop live
    }
    return 3.0 * static_cast<double>(n * sizeof(double)) / best;
}

void run_trace(const Run_options& options, const Scratch_tree& tree,
               Run_result& result) {
    Tracer tracer;
    Metric_set& m = result.metrics;
    const Sweep_config config = dse_request(seeded_kernels(options.seed));

    // Untraced reference ops bracket the traced one (after the dse_cold
    // set-up's warm-up request), so host drift hits both sides alike.
    {
        Sweep_report warm_up;
        cold_request(dse_request({"heat"}), tree.sub("warm_up"), &warm_up);
    }
    std::vector<double> cold_s;
    auto untraced_op = [&](const std::string& dir) {
        const Stopwatch watch;
        Service_options service_options;
        service_options.cache_dir = dir;
        Sweep_service service(service_options);
        const Sweep_report report = service.run(config);
        cold_s.push_back(watch.elapsed().wall_s);
        ++result.attempted;
        std::string why;
        if (!cold_report_ok(report, config.kernels.size(), &why)) {
            ++result.failed;
            std::cerr << "untraced cold request failed its check: " << why << "\n";
        }
    };
    // Its cache directory also serves the traced batch below.
    const std::string filled = tree.sub("filled");
    untraced_op(filled);

    Cache_meter dse_io(tracer, "dse_cold");
    const Dse_trace dse = trace_dse(tracer, dse_io, config, tree.sub("traced"));
    untraced_op(tree.sub("untraced_after"));
    ++result.attempted;
    if (!dse.ok || dse.cone_builds != 585) {
        ++result.failed;
        std::cerr << "traced dse op failed its check (cone builds " << dse.cone_builds
                  << ")\n";
    }

    Prng prng(options.seed);
    const std::map<std::string, std::string> ir = ir_keys(kernel_names());
    Cache_meter serve_io(tracer, "serve_warm");
    const Serve_trace serve = trace_serve(tracer, serve_io, make_batch(prng), filled, ir,
                                          filled_records(filled, ir));
    ++result.attempted;
    if (!serve.ok) ++result.failed;

    // Frame engine cells, one by one (each after one untimed warm-up).
    Sim_setup sim;
    build_sim(scene_variant(options.seed), sim);
    std::map<std::string, double> mcells;
    for (const Sim_cell& c : sim.cells) {
        Tracer::Scope s(&tracer, "engine." + cell_name(c.cell), "sim_frames");
        bool ok = false;
        run_cell(c, 1, &ok);
        double seconds = 0.0;
        for (int r = 0; r < c.reps; ++r) {
            bool rep_ok = false;
            seconds += run_cell(c, 1, &rep_ok).wall_s;
            ok &= rep_ok;
        }
        ++result.attempted;
        if (!ok) ++result.failed;
        mcells[cell_name(c.cell)] = cell_updates(c) * c.reps / seconds / 1e6;
    }
    std::vector<double> ratios;
    for (const Sim_cell& c : sim.cells) {
        const std::string name = cell_name(c.cell);
        m.add(cat("engine.", c.cell.fixed ? "fixed" : "double", "_mcells.", c.cell.kernel,
                  ".", c.cell.width, "x", c.cell.height),
              "Mcells/s", mcells[name], c.reps);
        if (c.cell.fixed) {
            Digest_cell twin = c.cell;
            twin.fixed = false;
            ratios.push_back(mcells[name] / mcells[cell_name(twin)]);
        }
    }
    m.add("engine.fixed_vs_double", "ratio", geomean(ratios),
          static_cast<long long>(ratios.size()));
    const Sim_cell* heat_large = nullptr;
    for (const Sim_cell& c : sim.cells) {
        if (c.cell.kernel == "heat" && !c.cell.fixed && c.reps == 1) heat_large = &c;
    }
    const double heat_mcells = mcells[cell_name(heat_large->cell)];
    // One heat cell update moves one 8-byte read and one 8-byte write.
    const double roofline_mcells = stream_bandwidth() / 16.0 / 1e6;
    m.add("engine.roofline_frac", "ratio", heat_mcells / roofline_mcells, 1);
    {
        Tracer::Scope s(&tracer, "engine.heat.2048x1024.2t", "sim_frames");
        bool ok = false;
        const double seconds = run_cell(*heat_large, 2, &ok).wall_s;
        ++result.attempted;
        if (!ok) ++result.failed;
        m.add("engine.scaling_2t", "ratio",
              cell_updates(*heat_large) / seconds / 1e6 / heat_mcells, 1);
    }

    const std::vector<Span> spans = tracer.spans();
    const Layer_totals d = layer_totals(spans, "dse_cold");
    const Layer_totals w = layer_totals(spans, "serve_warm");
    auto count = [](const std::map<std::string, std::vector<double>>& by_name,
                    const std::string& name) -> long long {
        const auto it = by_name.find(name);
        return it == by_name.end() ? 0 : static_cast<long long>(it->second.size());
    };
    auto self = [&](const Layer_totals& t, const std::string& name) {
        const auto it = t.self_s.find(name);
        return it == t.self_s.end() ? 0.0 : it->second;
    };
    auto spans_of = [](const Layer_totals& t, const std::string& name) {
        const auto it = t.durations_us.find(name);
        return it == t.durations_us.end() ? std::vector<double>{} : it->second;
    };
    const std::size_t kernels = config.kernels.size();
    m.add("frontend.extract_ms", "ms", self(d, "frontend.extract") * 1e3,
          count(d.durations_us, "frontend.extract"));
    m.add("cone.build_s", "s", self(d, "cone.build"), count(d.durations_us, "cone.build"));
    m.add("cone.builds", "count", static_cast<double>(dse.cone_builds), dse.cone_builds);
    m.add("cone.pool_nodes", "count", static_cast<double>(dse.pool_nodes), dse.pool_nodes);
    m.add("synth.runs", "count", static_cast<double>(dse.synth_runs), dse.synth_runs);
    m.add("synth.host_s", "s", self(d, "synth"), count(d.durations_us, "synth"));
    m.add("dse.fit_s", "s", self(d, "dse.fit"), count(d.durations_us, "dse.fit"));
    m.add("dse.pareto_s", "s", self(d, "dse.pareto"), count(d.durations_us, "dse.pareto"));
    m.add("dse.pareto_points", "count", static_cast<double>(dse.pareto_points),
          dse.pareto_points);
    const std::vector<double> pareto_us = spans_of(d, "dse.pareto");
    m.add("dse.points_per_s", "1/s",
          static_cast<double>(dse.pareto_points) /
              (std::accumulate(pareto_us.begin(), pareto_us.end(), 0.0) / 1e6),
          dse.pareto_points);
    m.add("dse.streaming_s", "s", self(d, "dse.streaming"),
          count(d.durations_us, "dse.streaming"));
    m.add("format.search_s", "s", self(d, "format.search"),
          count(d.durations_us, "format.search"));
    m.add("format.cells", "count", static_cast<double>(dse.format_cells), dse.format_cells);
    m.add("archsim.validate_s", "s", self(d, "archsim.validate"),
          count(d.durations_us, "archsim.validate"));
    const std::vector<double> stores = spans_of(d, "cache.store");
    m.add("cache.store_ms_p50", "ms", guarded_percentile(stores, 0.5, 0.0) / 1e3,
          static_cast<long long>(stores.size()));
    const auto stored = static_cast<long long>(dse_io.written().size());
    m.add("cache.stores", "count", static_cast<double>(stored), stored);
    m.add("cache.bytes_written", "bytes", static_cast<double>(dse_io.bytes_written()),
          stored);
    const std::vector<double> loads = spans_of(w, "cache.load");
    m.add("cache.load_us_p50", "us", guarded_percentile(loads, 0.5, 0.0),
          static_cast<long long>(loads.size()));
    const auto hits = static_cast<long long>(serve_io.read().size());
    m.add("cache.loads", "count", static_cast<double>(serve_io.loads()), serve_io.loads());
    m.add("cache.bytes_read", "bytes", static_cast<double>(serve_io.bytes_read()), hits);
    m.add("cache.hit_frac", "fraction",
          static_cast<double>(hits) / static_cast<double>(serve_io.loads()),
          serve_io.loads());
    m.add("records.serialize_ms", "ms", self(d, "records.serialize") * 1e3,
          count(d.durations_us, "records.serialize"));
    m.add("records.parse_us_p50", "us",
          guarded_percentile(spans_of(w, "records.parse"), 0.5, 0.0),
          count(w.durations_us, "records.parse"));
    m.add("service.open_ms", "ms", serve.open_ms, 1);
    m.add("queue.dedup_frac", "fraction", serve.dedup_frac, kBatchRequests);
    m.add("trace.coverage", "fraction", d.layer_s / median(cold_s),
          static_cast<long long>(kernels));

    // Per-layer self times of every request, for the log.
    const std::vector<double> self_us = self_times_us(spans);
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        by_layer[spans[i].request + " " + spans[i].name] += self_us[i] / 1e6;
    }
    for (const auto& [name, seconds] : by_layer) {
        std::fprintf(stderr, "self %-48s %10.4f s\n", name.c_str(), seconds);
    }
    result.facts["untraced_cold_s"] = std::to_string(median(cold_s));
    result.facts["traced_layers_s"] = std::to_string(d.layer_s);

    const fs::path trace_dir = fs::path(options.work_dir) / "traces";
    fs::create_directories(trace_dir);
    const fs::path trace_file =
        trace_dir / cat(options.workload, "-seed", options.seed, ".trace.json");
    std::ofstream(trace_file) << chrome_trace_json(spans);
    result.facts["trace_file"] = trace_file.string();
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"dse_cold", "serve_warm",
                                                   "sim_frames"};
    return names;
}

Run_result run_workload(const Run_options& options) {
    if (std::find(workload_names().begin(), workload_names().end(), options.workload) ==
        workload_names().end()) {
        throw Guard_error("unknown workload " + options.workload);
    }
    Run_result result;
    const Scratch_tree tree(fs::path(options.work_dir) /
                            cat(options.workload, "-", getpid()));
    record_host_facts(result, options, tree.path().string());
    if (options.trace) {
        run_trace(options, tree, result);
        result.metrics.require_exactly(per_layer_metric_names());
    } else {
        if (options.workload == "dse_cold") run_dse_cold(options, tree, result);
        if (options.workload == "serve_warm") run_serve_warm(options, tree, result);
        if (options.workload == "sim_frames") run_sim_frames(options, result);
        result.metrics.add("peak_rss_mb", "MB", peak_rss_mb(), 1);
        result.metrics.add("ok_frac", "fraction",
                           static_cast<double>(result.attempted - result.failed) /
                               static_cast<double>(result.attempted),
                           result.attempted);
        result.metrics.require_exactly(end_to_end_metric_names());
    }
    if (result.failed > 0) result.correct = false;
    return result;
}

}  // namespace islbench
