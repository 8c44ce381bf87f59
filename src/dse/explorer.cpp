#include "dse/explorer.hpp"

#include <algorithm>

#include "dse/pareto.hpp"

#include "support/error.hpp"
#include "support/numeric.hpp"
#include "support/parallel.hpp"

namespace islhls {

std::vector<std::vector<int>> depth_partitions(int iterations, int max_depth) {
    std::vector<int> parts;
    for (int d = 1; d <= max_depth; ++d) parts.push_back(d);
    return partitions_into(iterations, parts);
}

std::vector<int> canonical_partition(int iterations, int primary_depth) {
    check_internal(primary_depth >= 1, "primary depth must be >= 1");
    std::vector<int> levels;
    int remaining = iterations;
    int depth = primary_depth;
    while (remaining > 0) {
        if (depth > remaining) depth = remaining;
        levels.push_back(depth);
        remaining -= depth;
    }
    return levels;
}

Explorer::Explorer(Cone_library& library, const Fpga_device& device,
                   const Evaluator_options& evaluator_options,
                   const Space_options& space_options, Thread_pool* shared_pool)
    : evaluator_(library, device, evaluator_options),
      space_(space_options),
      external_pool_(shared_pool) {
    check_internal(space_.iterations >= 1 && space_.max_window >= 1 &&
                       space_.max_depth >= 1,
                   "invalid space options");
}

void Explorer::run_parallel(std::size_t count,
                            const std::function<void(std::size_t)>& body) {
    if (!external_pool_ && !pool_) pool_ = std::make_unique<Thread_pool>(space_.threads);
    (external_pool_ ? *external_pool_ : *pool_).for_each_index(count, body);
}

void Explorer::grow_allocation(
    Arch_instance instance, double area_budget, int max_total_cores,
    const std::function<void(Arch_evaluation&&)>& step) const {
    // Minimal allocation: one core per depth class (the paper's feasibility
    // requirement).
    instance.cores_per_depth.clear();
    for (int d : instance.depth_classes()) instance.cores_per_depth[d] = 1;

    for (;;) {
        Arch_evaluation eval = evaluator_.evaluate(instance);
        const bool fits = eval.estimated_area_luts <= area_budget && eval.feasible;
        if (!fits) return;
        // Adding cores only helps while the design is core-bound: then the
        // bottleneck class gets the next core, chosen before `eval` moves.
        int total_cores = 0;
        for (const auto& [d, n] : instance.cores_per_depth) total_cores += n;
        int bottleneck_depth = -1;
        if (eval.throughput.bottleneck == "core" && total_cores < max_total_cores) {
            double worst = -1.0;
            for (const auto& [d, cycles] : eval.throughput.class_cycles) {
                if (cycles > worst) {
                    worst = cycles;
                    bottleneck_depth = d;
                }
            }
        }
        step(std::move(eval));
        if (bottleneck_depth < 0) return;
        instance.cores_per_depth[bottleneck_depth] += 1;
    }
}

Pareto_result Explorer::explore_pareto() {
    // One-time alpha calibration, then every candidate evaluation is pure.
    evaluator_.calibrate(space_.max_window, space_.max_depth);

    // Candidate i is (window, partition) in window-major order. The
    // partitions are enumerated here, their only use: their count grows
    // about as N^4 at the default depth cap.
    const std::vector<std::vector<int>> partitions =
        depth_partitions(space_.iterations, space_.max_depth);
    const std::size_t count =
        static_cast<std::size_t>(space_.max_window) * partitions.size();
    std::vector<std::vector<Arch_evaluation>> steps(count);
    run_parallel(count, [&](std::size_t i) {
        Arch_instance instance;
        instance.window = static_cast<int>(i / partitions.size()) + 1;
        instance.level_depths = partitions[i % partitions.size()];
        grow_allocation(instance, space_.pareto_area_cap_luts,
                        space_.max_cores_per_sweep,
                        [&](Arch_evaluation&& e) { steps[i].push_back(std::move(e)); });
    });

    Pareto_result result;
    std::size_t total = 0;
    for (const auto& candidate_steps : steps) total += candidate_steps.size();
    result.points.reserve(total);
    for (auto& candidate_steps : steps) {
        result.points.insert(result.points.end(),
                             std::make_move_iterator(candidate_steps.begin()),
                             std::make_move_iterator(candidate_steps.end()));
    }
    std::vector<Design_point> dps;
    dps.reserve(result.points.size());
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        dps.push_back({result.points[i].estimated_area_luts,
                       result.points[i].throughput.seconds_per_frame, i});
    }
    result.front = pareto_front(dps);
    return result;
}

Fit_result Explorer::fit_device() {
    evaluator_.calibrate(space_.max_window, space_.max_depth);

    Fit_result result;
    const double budget =
        static_cast<double>(evaluator_.device().usable_luts());
    const std::size_t cells =
        static_cast<std::size_t>(space_.max_window) *
        static_cast<std::size_t>(space_.max_depth);
    result.grid.resize(cells);
    run_parallel(cells, [&](std::size_t i) {
        // Row-major (window, primary depth), matching the serial loop nest.
        const int w = static_cast<int>(i) / space_.max_depth + 1;
        const int d = static_cast<int>(i) % space_.max_depth + 1;
        Fit_cell& cell = result.grid[i];
        cell.window = w;
        cell.primary_depth = d;
        Arch_instance instance;
        instance.window = w;
        instance.level_depths = canonical_partition(space_.iterations, d);
        // Keep the best-fps step: the first strict maximum in growth order.
        grow_allocation(instance, budget, space_.max_cores_per_sweep * 4,
                        [&](Arch_evaluation&& e) {
                            if (!cell.valid || e.throughput.fps > cell.eval.throughput.fps) {
                                cell.eval = std::move(e);
                                cell.valid = true;
                            }
                        });
    });
    // Best cell: first strict fps maximum in grid order, as the serial scan
    // picked it.
    for (const Fit_cell& cell : result.grid) {
        if (!cell.valid) continue;
        if (!result.has_best ||
            cell.eval.throughput.fps > result.best.throughput.fps) {
            result.best = cell.eval;
            result.has_best = true;
        }
    }
    return result;
}

Area_validation Explorer::validate_area_model() {
    evaluator_.calibrate(space_.max_window, space_.max_depth);

    Area_validation validation;
    const auto& calibration = evaluator_.options().calibration_windows;
    const std::size_t cells =
        static_cast<std::size_t>(space_.max_window) *
        static_cast<std::size_t>(space_.max_depth);
    validation.points.resize(cells);
    run_parallel(cells, [&](std::size_t i) {
        // Row-major (depth, window), matching the serial loop nest.
        const int d = static_cast<int>(i) / space_.max_window + 1;
        const int w = static_cast<int>(i) % space_.max_window + 1;
        Area_point& p = validation.points[i];
        p.window = w;
        p.depth = d;
        p.registers = evaluator_.library().stats(w, d).register_count;
        p.estimated_luts = evaluator_.estimated_cone_area(w, d);
        p.actual_luts = evaluator_.actual_cone_area(w, d);
        p.is_calibration = std::find(calibration.begin(), calibration.end(), w) !=
                           calibration.end();
        p.rel_error = relative_error(p.estimated_luts, p.actual_luts);
    });
    double err_sum = 0.0;
    int err_count = 0;
    for (const Area_point& p : validation.points) {
        if (p.is_calibration) continue;
        validation.max_rel_error = std::max(validation.max_rel_error, p.rel_error);
        err_sum += p.rel_error;
        err_count += 1;
    }
    validation.avg_rel_error = err_count > 0 ? err_sum / err_count : 0.0;
    return validation;
}

islhls::Format_grid Explorer::search_formats(const Frame_set& content,
                                             Boundary boundary,
                                             const Format_search_options& options) {
    // Pre-build the cone grid serially: cone construction extends the
    // kernel's shared expression pool and must not race the parallel cells
    // (the same discipline as Arch_evaluator::calibrate, without paying for
    // syntheses this search never reads).
    Cone_library& library = evaluator_.library();
    for (int d = 1; d <= space_.max_depth; ++d) {
        for (int w = 1; w <= space_.max_window; ++w) library.cone(w, d);
        // The per-cell pricing evaluators lazily calibrate their depth's
        // area model from the calibration windows — those cones must exist
        // before the fan-out too.
        for (int w : evaluator_.options().calibration_windows) library.cone(w, d);
    }

    islhls::Format_grid grid;
    const std::size_t cells = static_cast<std::size_t>(space_.max_window) *
                              static_cast<std::size_t>(space_.max_depth);
    grid.cells.resize(cells);
    run_parallel(cells, [&](std::size_t i) {
        // Row-major (window, depth), matching the fit grid.
        const int w = static_cast<int>(i) / space_.max_depth + 1;
        const int d = static_cast<int>(i) % space_.max_depth + 1;
        Format_cell& cell = grid.cells[i];
        cell.window = w;
        cell.depth = d;
        cell.result = search_fixed_format(library.cone(w, d), content, boundary,
                                          options);
        if (!cell.result.satisfiable) return;
        // Full re-evaluation at the searched format: a per-cell evaluator
        // whose cost model, synthesis clock and throughput all see the
        // searched word width prices the canonical single-level design point
        // (one core of this cell's cone) — so the cell is a true
        // (area, fps, PSNR) point, not an area-only re-price. Synthesis
        // memoization and lazy model calibration are thread-safe, and each
        // cell's evaluator is independent, so the grid stays bit-identical
        // at any thread count.
        Evaluator_options priced = evaluator_.options();
        priced.format = cell.result.format;
        priced.synth.format = cell.result.format;
        const Arch_evaluator pricer(library, evaluator_.device(), priced);
        Arch_instance instance;
        instance.window = w;
        instance.level_depths = {d};
        instance.cores_per_depth[d] = 1;
        const Arch_evaluation eval = pricer.evaluate(instance);
        if (!eval.feasible) return;
        cell.evaluated = true;
        cell.area_luts = eval.estimated_area_luts;
        cell.f_max_mhz = eval.f_max_mhz;
        cell.fps = eval.throughput.fps;
    });
    return grid;
}

}  // namespace islhls
