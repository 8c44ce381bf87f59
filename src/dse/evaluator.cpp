#include "dse/evaluator.hpp"

#include <algorithm>
#include <mutex>

#include "support/error.hpp"
#include "support/numeric.hpp"
#include "support/text.hpp"

namespace islhls {

Arch_evaluator::Arch_evaluator(Cone_library& library, const Fpga_device& device,
                               const Evaluator_options& options)
    : library_(library),
      device_(device),
      options_(options),
      footprint_(library.step().footprint()),
      fields_in_(library.step().pool().field_count()),
      fields_out_(library.step().state_field_count()) {
    check_internal(options.calibration_windows.size() >= 2,
                   "area calibration needs at least two windows");
}

const Area_model& Arch_evaluator::model_for_depth(int depth) const {
    {
        std::shared_lock<std::shared_mutex> lock(models_mutex_);
        auto it = area_models_.find(depth);
        if (it != area_models_.end()) return it->second;
    }
    // Fit outside the exclusive section — the alpha syntheses go through the
    // (thread-safe) cone library and are memoized there. Two racing threads
    // fit identical models; the first insert wins.
    Area_model model(options_.format.total_bits());
    for (int w : options_.calibration_windows) {
        const Synthesis_report& report =
            library_.synthesis(w, depth, device_, options_.synth);
        model.add_sample({report.register_count, report.lut_count});
    }
    model.calibrate();
    std::unique_lock<std::shared_mutex> lock(models_mutex_);
    return area_models_.emplace(depth, std::move(model)).first->second;
}

void Arch_evaluator::calibrate(int max_window, int max_depth) {
    check_internal(max_window >= 1 && max_depth >= 1,
                   "calibrate() needs positive bounds");
    // Already calibrated for this grid: keep the filled price cells.
    if (max_window == price_windows_ && max_depth == price_depths_) return;
    for (int d = 1; d <= max_depth; ++d) {
        model_for_depth(d);
        // Building cones extends the shared expression pool; do all of it
        // here, serially, so parallel evaluations only read.
        for (int w = 1; w <= max_window; ++w) library_.cone(w, d);
    }
    price_windows_ = max_window;
    price_depths_ = max_depth;
    prices_ = std::make_unique<Price_cell[]>(static_cast<std::size_t>(max_window) *
                                             static_cast<std::size_t>(max_depth));
}

bool Arch_evaluator::is_calibrated(int depth) const {
    std::shared_lock<std::shared_mutex> lock(models_mutex_);
    return area_models_.count(depth) != 0;
}

double Arch_evaluator::estimated_cone_area(int window, int depth) const {
    // Calibration designs were really synthesized — return their exact area
    // (the paper does the same: estimation kicks in beyond the alpha points).
    for (int w : options_.calibration_windows) {
        if (w == window) {
            return library_.synthesis(window, depth, device_, options_.synth).lut_count;
        }
    }
    const Area_model& model = model_for_depth(depth);
    return model.estimate(library_.stats(window, depth).register_count);
}

double Arch_evaluator::actual_cone_area(int window, int depth) const {
    return library_.synthesis(window, depth, device_, options_.synth).lut_count;
}

Arch_evaluator::Cone_price Arch_evaluator::compute_price(int window, int depth) const {
    // Estimate first (it may fit the depth's area model from the calibration
    // syntheses), then the cone's own synthesis, then its stats: a cold
    // run's synthesis misses, and so its cache stores, follow the order in
    // which candidates first reach each cone.
    Cone_price priced;
    priced.estimated_luts = estimated_cone_area(window, depth);
    const Synthesis_report& report =
        library_.synthesis(window, depth, device_, options_.synth);
    priced.actual_luts = report.lut_count;
    priced.f_max_mhz = report.f_max_mhz;
    priced.latency_cycles = report.latency_cycles;
    priced.input_count = library_.stats(window, depth).input_count;
    return priced;
}

Arch_evaluator::Cone_price Arch_evaluator::price(int window, int depth) const {
    if (window < 1 || window > price_windows_ || depth < 1 || depth > price_depths_) {
        return compute_price(window, depth);
    }
    Price_cell& cell = prices_[static_cast<std::size_t>(depth - 1) *
                                   static_cast<std::size_t>(price_windows_) +
                               static_cast<std::size_t>(window - 1)];
    std::call_once(cell.filled, [&] { cell.price = compute_price(window, depth); });
    return cell.price;
}

Arch_evaluation Arch_evaluator::evaluate(const Arch_instance& instance) const {
    Arch_evaluation eval;
    eval.instance = instance;

    const int w = instance.window;

    // --- area: sum over instantiated cores -----------------------------------
    double estimated = 0.0;
    double actual = 0.0;
    double f_max = device_.max_clock_mhz;
    for (const auto& [depth, count] : instance.cores_per_depth) {
        if (count <= 0) {
            eval.feasible = false;
            eval.infeasible_reason = cat("depth ", depth, " has no cores");
            return eval;
        }
        const Cone_price cone = price(w, depth);
        estimated += count * cone.estimated_luts;
        actual += count * cone.actual_luts;
        // Clock = slowest cone type (single clock domain).
        f_max = std::min(f_max, cone.f_max_mhz);
    }
    // Infrastructure scales with the device class: small parts ship leaner
    // DMA/sequencing blocks, so cap the per-class overhead at a fraction of
    // the usable fabric.
    const double per_class = std::min(
        options_.class_overhead_luts, 0.08 * static_cast<double>(device_.usable_luts()));
    const std::vector<int> classes = instance.depth_classes();
    const double infra = per_class * static_cast<double>(classes.size());
    eval.estimated_area_luts = estimated + infra;
    eval.actual_area_luts = actual + infra;
    eval.f_max_mhz = f_max;

    // Feasibility: the paper's rule — one core of each used depth class must
    // exist — plus the area budget when a device bound applies (checked by
    // the caller; here we only require the classes to be represented).
    for (int depth : classes) {
        if (instance.cores_per_depth.count(depth) == 0) {
            eval.feasible = false;
            eval.infeasible_reason = cat("no core allocated for depth ", depth);
            return eval;
        }
    }

    // --- level structure -----------------------------------------------------
    const Coverage coverage = level_coverages(w, instance.level_depths, footprint_);
    std::vector<Level_load> loads;
    loads.reserve(instance.level_depths.size());
    for (std::size_t k = 1; k <= instance.level_depths.size(); ++k) {
        Level_load load;
        load.depth = instance.level_depths[k - 1];
        load.executions = executions_for_level(coverage, k, w);
        const Cone_price cone = price(w, load.depth);
        load.cone_inputs = cone.input_count;
        load.latency_cycles = cone.latency_cycles;
        loads.push_back(load);
    }

    eval.windows_per_frame =
        static_cast<long long>(ceil_div(options_.frame_width, w)) *
        static_cast<long long>(ceil_div(options_.frame_height, w));

    // Off-chip traffic per output window: the initial coverage (all state +
    // const fields) in, the output window (state fields) out.
    const double offchip_elems =
        static_cast<double>(coverage.width[0]) * coverage.height[0] * fields_in_ +
        static_cast<double>(w) * w * fields_out_;

    eval.throughput = estimate_throughput(
        loads, instance.cores_per_depth, eval.windows_per_frame, offchip_elems,
        f_max, device_.offchip_elems_per_cycle, options_.throughput);

    // --- memory budget ----------------------------------------------------------
    std::vector<int> sides;
    sides.reserve(coverage.width.size());
    for (std::size_t i = 0; i < coverage.width.size(); ++i) {
        sides.push_back(std::max(coverage.width[i], coverage.height[i]));
    }
    eval.memory = plan_memory(sides, fields_in_, options_.frame_width,
                              options_.frame_height, options_.format.total_bits());
    if (eval.memory.total_kbits > static_cast<double>(device_.bram_kbits)) {
        eval.feasible = false;
        eval.infeasible_reason = cat("on-chip buffers need ",
                                     format_fixed(eval.memory.total_kbits, 1),
                                     " kbit > device ", device_.bram_kbits, " kbit");
    }
    return eval;
}

}  // namespace islhls
