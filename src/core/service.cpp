#include "core/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <set>
#include <utility>

#include "core/sweep_records.hpp"
#include "dse/pareto.hpp"
#include "dse/streaming_backend.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "sim/arch_sim.hpp"
#include "sim/golden.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/text.hpp"
#include "symexec/executor.hpp"
#include "synth/device.hpp"

namespace islhls {

namespace {

// A ghost golden run from a kernel's validation frames: N iterations in one
// value domain (no format = double), decoded to values.
struct Golden {
    int iterations = 0;
    std::optional<Fixed_format> format;
    Frame_set frames;
};

// Functional golden check of one fit in either value domain: simulate
// `instance` on `initial` — in double, or under the Qm.f `format` — and
// return the max deviation from the frame engine's ghost golden of the same
// domain: absolute in double, raw-word LSBs under a format. Each golden runs
// once per (N, domain) into `goldens`, fanning its rows across `pool`.
double validate_fit(Cone_library& library, const Kernel_def& kernel,
                    const Arch_instance& instance, int iterations,
                    const std::optional<Fixed_format>& format, const Frame_set& initial,
                    Thread_pool& pool, std::vector<Golden>& goldens) {
    auto golden = std::find_if(goldens.begin(), goldens.end(), [&](const Golden& g) {
        return g.iterations == iterations && g.format == format;
    });
    if (golden == goldens.end()) {
        const Exec_options exec{1, 0, 0, &pool};
        Frame_set frames = format ? run_ghost_ir(library.step(), initial, iterations,
                                                 kernel.boundary, *format, exec)
                                        .to_frame_set()
                                  : run_ghost_ir(library.step(), initial, iterations,
                                                 kernel.boundary, exec);
        golden = goldens.insert(goldens.end(), {iterations, format, std::move(frames)});
    }
    Arch_sim_options sim_options;
    sim_options.boundary = kernel.boundary;
    sim_options.fixed_point = format.has_value();
    if (format) sim_options.format = *format;
    const Arch_sim_result sim =
        simulate_architecture(library, instance, initial, sim_options);
    // Fixed-mode frames on both sides hold from_raw values, which round-trip
    // exactly through the quantizer for every format the constructor admits
    // (<= 53 bits), so that comparison really is raw word against raw word.
    std::optional<Raw_quantizer> raw;
    if (format) raw.emplace(*format);
    double max_err = 0.0;
    for (const std::string& field : kernel.state_fields) {
        const std::vector<double>& got = sim.final_state.field(field).data();
        const std::vector<double>& want = golden->frames.field(field).data();
        for (std::size_t i = 0; i < want.size(); ++i) {
            const double d = raw ? static_cast<double>((*raw)(got[i]) - (*raw)(want[i]))
                                 : got[i] - want[i];
            max_err = std::max(max_err, std::fabs(d));
        }
    }
    return max_err;
}

// The Pareto front over (area, seconds per frame), as indices into `points`.
std::vector<std::size_t> front_of(const std::vector<Front_point>& points) {
    std::vector<Design_point> dps;
    dps.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        dps.push_back({points[i].area_luts, points[i].seconds_per_frame, i});
    }
    return pareto_front(dps);
}

// One backend's contribution to a sweep entry, as neutral data: explore()
// runs the same covering, re-pricing and validation on it.
struct Backend_run {
    // The labelled Pareto front over the feasible candidates, and the
    // candidate count (with_pareto only).
    std::vector<Front_point> front;
    std::size_t candidates = 0;
    // The (window, depth) format-grid cells the fit's format must cover.
    std::vector<std::pair<int, int>> covering;
    // The fit fully re-evaluated under other evaluator options.
    struct Priced { double area_luts, fps, f_max_mhz; };
    std::function<Priced(const Evaluator_options&)> reprice;
    // The fit as the architecture simulator runs it; empty when the backend
    // has no functional model to validate.
    std::optional<Arch_instance> simulated;
};

// The paper datapath: the device fit and the Pareto sweep fan their
// candidates across `pool` through one Explorer.
Backend_run run_paper(Cone_library& lib, const Fpga_device& device,
                      const Evaluator_options& options, const Space_options& space,
                      bool with_pareto, Thread_pool& pool, Sweep_entry& entry) {
    Backend_run run;
    Explorer explorer(lib, device, options, space, &pool);
    const Fit_result fit = explorer.fit_device();
    if (with_pareto) {
        const Pareto_result pareto = explorer.explore_pareto();
        for (std::size_t i : pareto.front) {
            const Arch_evaluation& e = pareto.points[i];
            run.front.push_back({to_string(e.instance), e.estimated_area_luts,
                                 e.throughput.seconds_per_frame, e.throughput.fps});
        }
        run.candidates = pareto.points.size();
    }
    entry.fits = fit.has_best;
    if (!entry.fits) return run;
    entry.best = fit.best;
    const Arch_instance& instance = entry.best.instance;
    for (int d : instance.depth_classes()) run.covering.push_back({instance.window, d});
    run.reprice = [&lib, &device, instance](const Evaluator_options& priced) {
        const Arch_evaluation e = Arch_evaluator(lib, device, priced).evaluate(instance);
        return Backend_run::Priced{e.estimated_area_luts, e.throughput.fps, e.f_max_mhz};
    };
    run.simulated = instance;
    return run;
}

// The streaming multi-PE array: every candidate is one closed-form
// evaluation, so the candidates run in a plain loop. The backend shares the
// kernel's Cone_library, so its calibration syntheses are the ones the paper
// backend already paid for (or vice versa). It has no functional model.
Backend_run run_streaming(Cone_library& lib, const Fpga_device& device,
                          const Evaluator_options& options, const Space_options& space,
                          bool with_pareto, Sweep_entry& entry) {
    Backend_run run;
    Streaming_backend streaming(lib, device, options, space);
    streaming.calibrate();
    std::vector<Front_point> points;        // feasible candidates, unlabelled
    std::vector<Streaming_config> configs;  // one per points entry
    for (const Streaming_config& candidate : streaming.configs()) {
        const Streaming_evaluation eval = streaming.evaluate(candidate);
        if (!eval.feasible) continue;
        if (!entry.fits || eval.fps > entry.streaming_best.fps) {
            entry.streaming_best = eval;
            entry.fits = true;
        }
        if (with_pareto) {
            points.push_back({"", eval.area_luts, eval.seconds_per_frame, eval.fps});
            configs.push_back(eval.config);
        }
    }
    for (std::size_t i : front_of(points)) {
        run.front.push_back(std::move(points[i]));
        run.front.back().config = to_string(configs[i]);
    }
    run.candidates = points.size();
    if (!entry.fits) return run;
    // A streaming PE fuses `depth` one-column cones: the covering cell is
    // (window 1, fused depth). Re-pricing rebuilds the backend, which
    // re-derives the per-width clocks and line-buffer bits at the new width.
    const Streaming_config best = entry.streaming_best.config;
    run.covering.push_back({1, best.depth});
    run.reprice = [&lib, &device, space, best](const Evaluator_options& priced) {
        Streaming_backend backend(lib, device, priced, space);
        backend.calibrate();
        const Streaming_evaluation e = backend.evaluate(best);
        return Backend_run::Priced{e.area_luts, e.fps, e.f_max_mhz};
    };
    return run;
}

// Every library's meters, summed into a report's meter fields; run_impl
// reports the delta, so each request is credited with its own cache work.
Sweep_report total_meters(
    const std::map<std::string, std::unique_ptr<Cone_library>>& libraries) {
    Sweep_report total;
    for (const auto& [name, lib] : libraries) {
        total.cone_builds += lib->cone_builds();
        total.cone_lookups += lib->cone_lookups();
        total.synthesis_runs += lib->synthesis_runs();
        total.synthesis_lookups += lib->synthesis_lookups();
        total.synthesis_cpu_seconds += lib->synthesis_cpu_seconds();
        total.synthesis_loads += lib->synthesis_loads();
    }
    return total;
}

// The record cached under `key`; nullopt on a miss or an unparsable record.
template <class Record>
std::optional<Record> load_record(Result_cache& cache, const std::string& key) {
    std::optional<std::string> payload = cache.load(key);
    Record record;
    std::string error;
    if (!payload || !parse_record(*payload, &record, &error)) return std::nullopt;
    return record;
}

}  // namespace

Sweep_service::Sweep_service(Service_options options)
    : options_(std::move(options)),
      hooks_(options_.hooks ? options_.hooks : &real_env_hooks()) {
    if (options_.deadline_ms < 0) {
        throw User_error(cat("request deadline ", options_.deadline_ms,
                             " ms must be >= 0 (0 = none)"));
    }
    if (options_.max_attempts < 1 || options_.max_attempts > max_request_attempts) {
        throw User_error(cat("attempts per request ", options_.max_attempts,
                             " must be 1..", max_request_attempts));
    }
    if (!options_.cache_dir.empty()) {
        cache_ = std::make_unique<Result_cache>(options_.cache_dir, hooks_);
    }
}

Sweep_service::~Sweep_service() = default;

std::string Sweep_service::add_kernel(const std::string& c_source) {
    const Function_ast fn = parse_single_function(c_source);
    const Kernel_info info = analyze_kernel(fn);
    const std::string& name = info.kernel_name;
    const std::vector<std::string> registry = kernel_names();
    if (std::find(registry.begin(), registry.end(), name) != registry.end()) {
        throw User_error(cat("kernel '", name, "' is a built-in kernel name; "
                             "rename the function"));
    }
    if (const auto it = sources_.find(name); it != sources_.end()) {
        if (it->second == c_source) return name;
        throw User_error(cat("kernel '", name, "' is already bound to a "
                             "different source"));
    }
    // Source kernels take the registry's default boundary policy.
    install(name, Kernel_def{}.boundary, execute_symbolically(fn, info));
    sources_.emplace(name, c_source);
    return name;
}

Cone_library& Sweep_service::library(const std::string& kernel) {
    const auto it = libraries_.find(kernel);
    if (it != libraries_.end()) return *it->second;
    const Kernel_def& def = kernel_by_name(kernel);
    return install(def.name, def.boundary, extract_stencil(def.c_source));
}

Cone_library& Sweep_service::install(const std::string& kernel, Boundary boundary,
                                     Stencil_step step) {
    Cone_library& lib =
        *libraries_.emplace(kernel, std::make_unique<Cone_library>(std::move(step), kernel))
             .first->second;
    const std::string key = kernel_ir_key(kernel, boundary, lib.step());
    ir_keys_.emplace(kernel, key);
    if (cache_) {
        // Bind the library's persistence seam to the result cache; store
        // failures are absorbed by the cache's own counters.
        Result_cache* cache = cache_.get();
        Synthesis_store store;
        store.load = [cache](const std::string& k) {
            return load_record<Synthesis_report>(*cache, k);
        };
        store.store = [cache](const std::string& k, const Synthesis_report& r) {
            cache->store(k, serialize_record(r));
        };
        lib.attach_synthesis_store(std::move(store), synthesis_key_prefix(key));
    }
    return lib;
}

Sweep_report Sweep_service::run(const Sweep_config& config) {
    validate_config(config);
    return run_impl(config);
}

// One (kernel, device, N, backend) cell of a request, in config order.
struct Sweep_service::Combination {
    Sweep_entry entry;      // kernel, device, iterations and backend set up front
    std::string entry_key;  // empty without a persistent cache
    bool cached = false;    // served from the cache by the serial front
    bool repeat = false;    // entry key seen earlier in this request
};

// One kernel's share of a request, shared with no other task: its
// combinations in config order, its counters, and its synthetic frames
// (format-search content and validation input) with the goldens run on them.
struct Sweep_service::Kernel_task {
    std::vector<Combination*> combinations;
    Sweep_report counts;  // entry/grid counters only
    std::optional<Frame_set> frames;
    std::vector<Golden> goldens;

    const Frame_set& kernel_frames(const Sweep_config& config, const Kernel_def& kernel) {
        if (!frames) {
            frames = kernel.make_initial(make_synthetic_scene(
                config.validation_frame_width, config.validation_frame_height,
                config.validation_seed));
        }
        return *frames;
    }
};

Sweep_report Sweep_service::run_impl(const Sweep_config& config, std::int64_t deadline,
                                     int attempt) {
    for (const std::string& kernel : config.kernels) {
        if (sources_.count(kernel) &&
            (config.validate || config.validate_fixed || config.search_formats)) {
            throw User_error(cat("kernel '", kernel, "' came as C source and has no "
                                 "initial state to simulate: --validate, "
                                 "--validate-fixed and --search-formats need a "
                                 "built-in kernel"));
        }
    }
    const auto start = std::chrono::steady_clock::now();
    Sweep_report report;
    const Sweep_report before = total_meters(libraries_);
    auto checkpoint = [&] {
        if (deadline > 0 && hooks_->now_ms() > deadline) {
            throw Timeout_error(cat("request ", fnv1a64_hex(sweep_request_key(config)),
                                    " exceeded its ", options_.deadline_ms,
                                    " ms deadline (attempt ", attempt, ")"));
        }
    };

    // Serial front: every kernel's frontend, symbolic execution and IR key,
    // and every combination the cache can serve. Deadlines interrupt
    // between combinations, the unit a retried attempt resumes at.
    std::vector<Combination> combinations;
    std::set<std::string> seen_keys;
    for (const std::string& kernel : config.kernels) {
        library(kernel);  // frontend + symbolic execution, once per kernel
        const std::string& ikey = ir_keys_.at(kernel);
        for (const std::string& device_name : config.devices) {
            device_by_name(device_name);  // an unknown device fails before any work
            for (int iterations : config.iteration_counts) {
                for (const std::string& backend_name : config.backends) {
                    checkpoint();
                    Combination c;
                    c.entry.kernel = kernel;
                    c.entry.device = device_name;
                    c.entry.iterations = iterations;
                    c.entry.backend = backend_name;
                    if (cache_) {
                        c.entry_key = sweep_entry_key(ikey, config, device_name,
                                                      iterations, backend_name);
                        // A key repeated within the request (a kernel listed
                        // twice) is looked up by its task, after the first
                        // occurrence has been computed and stored.
                        c.repeat = !seen_keys.insert(c.entry_key).second;
                        c.cached = !c.repeat && load_entry(c, report);
                    }
                    combinations.push_back(std::move(c));
                }
            }
        }
    }

    // Fan-out: one task per kernel with work left, on the request's pool,
    // which spawns workers only when an entry missed (see the header for
    // the single-owner rule).
    std::vector<Kernel_task> tasks;
    std::map<std::string, std::size_t> task_of;
    for (Combination& c : combinations) {
        if (c.cached) continue;
        const auto [it, fresh] = task_of.emplace(c.entry.kernel, tasks.size());
        if (fresh) tasks.emplace_back();
        tasks[it->second].combinations.push_back(&c);
    }
    Thread_pool pool(tasks.empty() ? 1 : config.space.threads);
    pool.for_each_index(tasks.size(), [&](std::size_t t) {
        Kernel_task& task = tasks[t];
        for (Combination* c : task.combinations) {
            checkpoint();
            if (c->repeat && load_entry(*c, task.counts)) continue;
            c->entry = explore(config, c->entry, pool, task);
            if (cache_ && cache_->store(c->entry_key, serialize_record(c->entry))) {
                ++task.counts.entry_stores;
                std::lock_guard<std::mutex> lock(memo_mutex_);
                entries_.emplace(c->entry_key, c->entry);
            }
        }
    });

    // Merge in config order: the report is the one a serial run produces.
    for (const Kernel_task& task : tasks) {
        report.entry_hits += task.counts.entry_hits;
        report.entry_misses += task.counts.entry_misses;
        report.entry_stores += task.counts.entry_stores;
        report.grid_hits += task.counts.grid_hits;
        report.grid_misses += task.counts.grid_misses;
    }
    report.entries.reserve(combinations.size());
    for (Combination& c : combinations) report.entries.push_back(std::move(c.entry));

    // Cross-backend merged fronts, by front(A + B) == front(front(A) +
    // front(B)): a fully warm run rebuilds them from cached entries alone.
    if (config.with_pareto && config.backends.size() > 1) {
        const std::size_t group = config.backends.size();
        for (std::size_t base = 0; base + group <= report.entries.size();
             base += group) {
            const Sweep_entry& first = report.entries[base];
            Merged_front merged{first.kernel, first.device, first.iterations, {}};
            std::vector<Merged_front::Point> candidates;
            std::vector<Front_point> points;
            for (std::size_t k = 0; k < group; ++k) {
                const Sweep_entry& e = report.entries[base + k];
                for (const Front_point& fp : e.front_points) {
                    candidates.push_back({e.backend, fp});
                    points.push_back(fp);
                }
            }
            for (std::size_t i : front_of(points)) merged.points.push_back(candidates[i]);
            report.merged_fronts.push_back(std::move(merged));
        }
    }
    // Meter deltas over the distinct libraries (config.kernels may repeat).
    const Sweep_report after = total_meters(libraries_);
    report.cone_builds = after.cone_builds - before.cone_builds;
    report.cone_lookups = after.cone_lookups - before.cone_lookups;
    report.synthesis_runs = after.synthesis_runs - before.synthesis_runs;
    report.synthesis_lookups = after.synthesis_lookups - before.synthesis_lookups;
    report.synthesis_cpu_seconds =
        after.synthesis_cpu_seconds - before.synthesis_cpu_seconds;
    report.synthesis_loads = after.synthesis_loads - before.synthesis_loads;
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return report;
}

bool Sweep_service::load_entry(Combination& c, Sweep_report& counts) {
    {
        std::lock_guard<std::mutex> lock(memo_mutex_);
        const auto it = entries_.find(c.entry_key);
        if (it != entries_.end()) {
            ++counts.entry_hits;
            c.entry = it->second;
            return true;
        }
    }
    if (auto cached = load_record<Sweep_entry>(*cache_, c.entry_key)) {
        ++counts.entry_hits;
        c.entry = std::move(*cached);
        std::lock_guard<std::mutex> lock(memo_mutex_);
        entries_.emplace(c.entry_key, c.entry);
        return true;
    }
    ++counts.entry_misses;
    return false;
}

Sweep_entry Sweep_service::explore(const Sweep_config& config, Sweep_entry entry,
                                   Thread_pool& pool, Kernel_task& task) {
    // The serial front created every library, so this only reads the map.
    Cone_library& lib = *libraries_.at(entry.kernel);
    const Fpga_device& device = device_by_name(entry.device);

    const Evaluator_options options = evaluator_options_for(config);
    Space_options space = config.space;
    space.iterations = entry.iterations;

    // The one backend-specific step: the fit, plus the neutral data the rest
    // of the routine reads.
    Backend_run run = entry.backend == "streaming"
                          ? run_streaming(lib, device, options, space,
                                          config.with_pareto, entry)
                          : run_paper(lib, device, options, space,
                                      config.with_pareto, pool, entry);

    if (config.with_pareto) {
        entry.pareto_points = run.candidates;
        entry.pareto_front_size = run.front.size();
        entry.front_points = std::move(run.front);
    }
    if (config.search_formats && entry.fits) {
        // Narrowest format covering every cell of the fit: integer and
        // fraction bits each take the max over the cells (more bits never
        // hurt). It is exact only when every cell is; its PSNR is the worst
        // over the non-exact cells — exactness is a flag, never a sentinel.
        const Format_grid& grid = format_grid(config, entry, options, space, pool, task);
        entry.format_searched = true;
        entry.format_satisfiable = true;
        entry.format_exact = true;
        Fixed_format& format = entry.fixed_format = Fixed_format{0, 0};
        double& psnr = entry.format_psnr_db;
        bool any_psnr = false;
        for (const auto& [window, depth] : run.covering) {
            const Format_search_result& cell =
                grid.at(window, depth, space.max_depth).result;
            entry.format_satisfiable &= cell.satisfiable;
            entry.format_exact &= cell.exact;
            format.integer_bits = std::max(format.integer_bits, cell.format.integer_bits);
            format.frac_bits = std::max(format.frac_bits, cell.format.frac_bits);
            if (!cell.exact) {
                psnr = any_psnr ? std::min(psnr, cell.psnr_db) : cell.psnr_db;
                any_psnr = true;
            }
        }
        // Re-run the full evaluation at the searched width, so the format
        // columns are a true design point (area, f_max, cycles, fps). A
        // failed search leaves no width worth pricing: the columns stay empty.
        if (entry.format_satisfiable) {
            Evaluator_options priced = options;
            priced.format = format;
            priced.synth.format = format;
            const Backend_run::Priced p = run.reprice(priced);
            entry.searched_area_luts = p.area_luts;
            entry.searched_fps = p.fps;
            entry.searched_f_max_mhz = p.f_max_mhz;
        }
    }
    if (run.simulated && (config.validate || config.validate_fixed)) {
        const Kernel_def& kernel = kernel_by_name(entry.kernel);
        const Frame_set& initial = task.kernel_frames(config, kernel);
        auto validate = [&](const std::optional<Fixed_format>& format) {
            return validate_fit(lib, kernel, *run.simulated, entry.iterations, format,
                                initial, pool, task.goldens);
        };
        if (config.validate) {
            entry.validation_max_abs_err = validate(std::nullopt);
            entry.validated = true;
        }
        if (config.validate_fixed) {
            entry.validation_max_raw_err = validate(
                entry.format_satisfiable ? entry.fixed_format : config.format);
            entry.validated_fixed = true;
        }
    }
    return entry;
}

const Format_grid& Sweep_service::format_grid(const Sweep_config& config,
                                              const Sweep_entry& entry,
                                              const Evaluator_options& evaluator_options,
                                              const Space_options& space,
                                              Thread_pool& pool, Kernel_task& task) {
    const std::string gkey =
        format_grid_key(ir_keys_.at(entry.kernel), config, entry.device);
    {
        std::lock_guard<std::mutex> lock(memo_mutex_);
        auto it = format_grids_.find(gkey);
        if (it != format_grids_.end()) return it->second;
    }
    // Searched outside the lock: only this kernel's task uses this key.
    std::optional<Format_grid> grid;
    if (cache_) grid = load_record<Format_grid>(*cache_, gkey);
    if (grid) {
        ++task.counts.grid_hits;
    } else {
        const Kernel_def& kernel = kernel_by_name(entry.kernel);
        Explorer explorer(*libraries_.at(entry.kernel), device_by_name(entry.device),
                          evaluator_options, space, &pool);
        grid = explorer.search_formats(task.kernel_frames(config, kernel),
                                       kernel.boundary, config.format_search);
        if (cache_) {
            ++task.counts.grid_misses;
            cache_->store(gkey, serialize_record(*grid));
        }
    }
    std::lock_guard<std::mutex> lock(memo_mutex_);
    return format_grids_.emplace(gkey, std::move(*grid)).first->second;
}

std::vector<Request_outcome> Sweep_service::run_requests(
    const std::vector<Sweep_config>& requests) {
    // Requests run serially, so batch reports are deterministic; each
    // request parallelizes internally through its own pool. The first
    // occurrence of a key runs, and its duplicates copy its outcome.
    std::vector<Request_outcome> outcomes(requests.size());
    std::map<std::string, std::size_t> first_of;
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        outcomes[i].key = sweep_request_key(requests[i]);
        outcomes[i].deduplicated = !first_of.emplace(outcomes[i].key, i).second;
        if (!outcomes[i].deduplicated) pending.push_back(i);
    }
    // Round k runs attempt k of every request still pending, after one
    // 100 << (k - 2) ms backoff; only timed-out requests stay pending.
    for (int round = 1; !pending.empty(); ++round) {
        if (round > 1) hooks_->sleep_ms(std::int64_t{100} << (round - 2));
        std::vector<std::size_t> timed_out;
        for (std::size_t i : pending) {
            Request_outcome& outcome = outcomes[i];
            outcome.attempts = round;
            try {
                validate_config(requests[i]);
                const std::int64_t deadline =
                    options_.deadline_ms > 0 ? hooks_->now_ms() + options_.deadline_ms : 0;
                outcome.report = run_impl(requests[i], deadline, round);
                outcome.ok = true;
            } catch (const std::exception& e) {
                outcome.kind = classify_error(e);
                outcome.message = e.what();
                if (outcome.kind == Error_kind::timeout && round < options_.max_attempts) {
                    timed_out.push_back(i);
                }
            }
        }
        pending = std::move(timed_out);
    }
    for (Request_outcome& outcome : outcomes) {
        if (!outcome.deduplicated) continue;
        outcome = outcomes[first_of.at(outcome.key)];
        outcome.deduplicated = true;
    }
    return outcomes;
}

}  // namespace islhls
