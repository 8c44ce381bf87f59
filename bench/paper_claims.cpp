// The paper's evaluation (DAC'13, Sec. 4) in one program, run by ctest. Each
// experiment runs once on one Sweep_service, with the paper's workload
// (bench_common.hpp), and prints its figure or table: Figs. 5-10 (area
// estimation, Pareto curve and device fit of IGF and Chambolle), the Secs.
// 4.1-4.3 comparisons and two ablations. Then the paper's 33 claims about
// them are checked as the rows of one table, one [PASS] or [DEVIATION] line
// each. The exit status is 1 when a claim deviates or the table does not
// hold exactly 33 rows, so a broken or a dropped claim fails the suite.
#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "baseline/generic_hls.hpp"
#include "baseline/literature.hpp"
#include "bench_common.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace {

using namespace islhls;
using namespace islhls_bench;

// The number of claims the paper's evaluation makes and this program checks.
constexpr std::size_t paper_claim_count = 33;

// A kernel of the paper's evaluation, its figures and the published results
// they are compared with.
struct Paper_kernel {
    const char* name;
    const char* title;
    int area_figure;  // then the Pareto and the device-fit figure
    double paper_max_error_pct, paper_avg_error_pct;
    const char* paper_peak;
};
const Paper_kernel igf{"igf", "IGF", 5, 6.58, 2.93, "~110 fps"};
const Paper_kernel chambolle{"chambolle", "Chambolle", 8, 6.36, 2.19,
                             "~24 fps with 8x8 windows"};

// fps of each valid cell of a device fit, keyed by (depth, window).
using Fit_fps = std::map<std::pair<int, int>, double>;

Fit_fps fit_fps(const Fit_result& fit) {
    Fit_fps fps;
    for (const Fit_cell& cell : fit.grid) {
        if (cell.valid) fps[{cell.primary_depth, cell.window}] = cell.eval.throughput.fps;
    }
    return fps;
}

// The experiments behind one kernel's three figures.
struct Kernel_results {
    int estimate_syntheses = 0;  // what estimating the whole grid synthesized
    double estimate_tool_s = 0.0;
    Area_validation area;        // ground truth: every design synthesized
    double tool_s = 0.0;
    Pareto_result pareto;
    Fit_result fit;
    Fit_fps fps;
    double cone_4x2_luts = 0.0;  // synthesized area of the 4x4, depth-2 cone
};

Kernel_results run_kernel(Sweep_service& service, const Paper_kernel& kernel) {
    Kernel_results r;
    Explorer explorer = explorer_for(service, kernel.name);
    const Cone_library& cones = service.library(kernel.name);
    // What the flow needs: the estimate of the whole grid. Only the
    // calibration designs are synthesized, so this runs on a fresh library.
    for (int d = 1; d <= explorer.space().max_depth; ++d) {
        for (int w = 1; w <= explorer.space().max_window; ++w) {
            explorer.evaluator().estimated_cone_area(w, d);
        }
    }
    r.estimate_syntheses = cones.synthesis_runs();
    r.estimate_tool_s = cones.synthesis_cpu_seconds();
    r.area = explorer.validate_area_model();
    r.tool_s = cones.synthesis_cpu_seconds();
    r.pareto = explorer.explore_pareto();
    r.fit = explorer.fit_device();
    r.fps = fit_fps(r.fit);
    r.cone_4x2_luts = explorer.evaluator().actual_cone_area(4, 2);
    return r;
}

// Figs. 5 and 8: estimated vs synthesized kLUTs of every cone.
void print_area(const Paper_kernel& kernel, const Kernel_results& r) {
    std::cout << "=== Fig. " << kernel.area_figure << ": " << kernel.title
              << " area estimation (estimated vs actual kLUTs) ===\n"
              << "device xc6vlx760, alpha from the two smallest windows per depth\n\n";
    Table table({"window", "area(elems)", "depth", "registers", "actual kLUT",
                 "estimated kLUT", "err %", "alpha point"});
    for (const auto& p : r.area.points) {
        table.add(cat(p.window, "x", p.window), p.window * p.window, p.depth,
                  p.registers, format_fixed(p.actual_luts / 1000.0, 1),
                  format_fixed(p.estimated_luts / 1000.0, 1),
                  format_fixed(p.rel_error * 100.0, 2), p.is_calibration ? "yes" : "");
    }
    std::cout << table << "\n"
              << "max error " << format_fixed(r.area.max_rel_error * 100.0, 2)
              << " % (paper: " << format_fixed(kernel.paper_max_error_pct, 2)
              << " %), average " << format_fixed(r.area.avg_rel_error * 100.0, 2)
              << " % (paper: " << format_fixed(kernel.paper_avg_error_pct, 2) << " %)\n"
              << "syntheses run: " << r.estimate_syntheses << " of "
              << r.area.points.size() << " designs for the estimate, simulated tool time "
              << format_fixed(r.estimate_tool_s / 3600.0, 1) << " h ("
              << format_fixed(r.tool_s / 3600.0, 1) << " h to synthesize all)\n\n";
}

// Figs. 6 and 9: the Pareto front of time per frame against kLUTs.
void print_pareto(const Paper_kernel& kernel, const Kernel_results& r) {
    std::cout << "=== Fig. " << kernel.area_figure + 1 << ": " << kernel.title
              << " Pareto curve (1024x768) ===\n\n"
              << "evaluated " << r.pareto.points.size()
              << " design points (paper: a few hundred), Pareto set of "
              << r.pareto.front.size() << "\n\n";
    Table table({"kLUTs (est)", "ms/frame", "fps", "architecture"});
    for (std::size_t idx : r.pareto.front) {
        const auto& p = r.pareto.points[idx];
        table.add(format_fixed(p.estimated_area_luts / 1000.0, 1),
                  format_fixed(p.throughput.seconds_per_frame * 1e3, 3),
                  format_fixed(p.throughput.fps, 1), to_string(p.instance));
    }
    std::cout << table << "\n";
}

// Figs. 7 and 10: fps when the whole device is used, per output window area
// and cone depth.
void print_fit(const Paper_kernel& kernel, const Kernel_results& r) {
    std::cout << "=== Fig. " << kernel.area_figure + 2 << ": " << kernel.title
              << " throughput on xc6vlx760 (fps; N=10, 1024x768) ===\n\n";
    Table table({"depth \\ window area", "1", "4", "9", "16", "25", "36", "49", "64",
                 "81"});
    const Space_options space = paper_config().space;
    for (int d = 1; d <= space.max_depth; ++d) {
        std::vector<std::string> row{cat(d, " iteration", d > 1 ? "s" : "")};
        for (int w = 1; w <= space.max_window; ++w) {
            const auto cell = r.fps.find({d, w});
            row.push_back(cell == r.fps.end() ? "-" : format_fixed(cell->second, 1));
        }
        table.add_row(row);
    }
    std::cout << table << "\n";
    if (r.fit.has_best) {
        const Arch_evaluation& best = r.fit.best;
        std::cout << "best: " << to_string(best.instance) << " -> "
                  << format_fixed(best.throughput.fps, 1) << " fps ("
                  << format_fixed(best.estimated_area_luts / 1e3, 0)
                  << " kLUTs, bottleneck " << best.throughput.bottleneck
                  << "); paper: " << kernel.paper_peak << "\n\n";
    }
}

// Best fps per cone depth (0 for a depth with no valid cell), split into the
// depths that divide N = 10 and those that do not.
struct Depth_split {
    double worst_divisor;    // min over depths 1, 2, 5
    double best_nondivisor;  // max over depths 3, 4
    bool divisors_win() const { return worst_divisor > best_nondivisor; }
};
Depth_split depth_split(const Fit_fps& fps) {
    std::map<int, double> best;
    for (const auto& [cell, f] : fps) best[cell.first] = std::max(best[cell.first], f);
    return {std::min({best[1], best[2], best[5]}), std::max(best[3], best[4])};
}

// Whether some depth series loses fps from one valid window to the next.
bool some_series_decreases(const Fit_fps& fps) {
    return std::adjacent_find(fps.begin(), fps.end(), [](const auto& a, const auto& b) {
               return a.first.first == b.first.first && b.second < a.second;
           }) != fps.end();
}

// The deepest depth series in which the 8x8 window beats the 9x9 one, or 0.
int depth_where_8x8_beats_9x9(const Fit_fps& fps) {
    int witness = 0;
    for (const auto& [cell, f] : fps) {
        const auto w9 = fps.find({cell.first, 9});
        if (cell.second == 8 && w9 != fps.end() && f > w9->second) witness = cell.first;
    }
    return witness;
}

// Whether every step along the front grows the area and shrinks the time.
bool front_is_monotone(const Pareto_result& r) {
    for (std::size_t i = 1; i < r.front.size(); ++i) {
        const auto& prev = r.points[r.front[i - 1]];
        const auto& cur = r.points[r.front[i]];
        if (!(cur.estimated_area_luts > prev.estimated_area_luts &&
              cur.throughput.seconds_per_frame < prev.throughput.seconds_per_frame)) {
            return false;
        }
    }
    return true;
}

// Slowest over fastest time per frame on the front.
double front_time_spread(const Pareto_result& r) {
    const auto [min_it, max_it] = std::minmax_element(
        r.front.begin(), r.front.end(), [&](std::size_t a, std::size_t b) {
            return r.points[a].throughput.seconds_per_frame <
                   r.points[b].throughput.seconds_per_frame;
        });
    return r.points[*max_it].throughput.seconds_per_frame /
           r.points[*min_it].throughput.seconds_per_frame;
}

// Fastest time per frame of any evaluated point within `area_cap` LUTs.
double best_time_under(const Pareto_result& r, double area_cap) {
    double best = 1e30;
    for (const auto& p : r.points) {
        if (p.estimated_area_luts <= area_cap) {
            best = std::min(best, p.throughput.seconds_per_frame);
        }
    }
    return best;
}

// Sec. 4.3: Vivado HLS / Synphony C reached 0.14 fps at best, rejected loop
// merging and ran out of memory flattening + pipelining; the generic-HLS
// cost model reproduces all three outcomes. Returns the directive menu.
std::vector<Generic_hls_result> compare_generic_hls(Sweep_service& service,
                                                    const Fit_result& flow) {
    std::cout << "=== Sec. 4.3: commercial HLS tools vs the cone flow (IGF, "
                 "1024x768, N=10) ===\n\n";
    const Sweep_config config = paper_config();
    const auto menu = run_generic_hls_menu(
        service.library("igf").step(), config.iteration_counts.at(0), config.frame_width,
        config.frame_height, device_by_name(config.devices.at(0)));
    Table table({"directive", "outcome", "fps", "note"});
    for (const auto& r : menu) {
        table.add(to_string(r.directive), r.succeeded ? "ok" : "FAILED",
                  r.succeeded ? format_fixed(r.fps, 3) : std::string("-"),
                  r.succeeded ? "" : r.failure.substr(0, 60) + "...");
    }
    table.add("cone flow (this work)", "ok", format_fixed(flow.best.throughput.fps, 1),
              to_string(flow.best.instance));
    std::cout << table << "\n";
    const Generic_hls_result& best = best_of(menu);
    std::cout << "best generic-HLS configuration: " << to_string(best.directive)
              << " at " << format_fixed(best.fps, 3)
              << " fps (paper: 0.14 fps); cone flow: "
              << format_fixed(flow.best.throughput.fps, 1) << " fps -> speedup "
              << format_fixed(flow.best.throughput.fps / best.fps, 0) << "x\n\n";
    return menu;
}

bool failed(const std::vector<Generic_hls_result>& menu, Hls_directive directive) {
    return std::any_of(menu.begin(), menu.end(), [&](const Generic_hls_result& r) {
        return r.directive == directive && !r.succeeded;
    });
}

// Peak fps of `kernel` on a workload of its own (an empty fit's best reads
// 0 fps).
double flow_fps(Sweep_service& service, const char* kernel, int iterations, int w, int h,
                const char* device) {
    Sweep_config config = paper_config();
    config.iteration_counts = {iterations};
    config.frame_width = w;
    config.frame_height = h;
    config.devices = {device};
    return explorer_for(service, kernel, config).fit_device().best.throughput.fps;
}

// Secs. 4.1/4.2: [16] runs a 20-iteration 3x3 convolution on a Virtex-II
// Pro at 13.5 fps (1024x768) and <5 fps (Full HD); the paper's flow reaches
// ~35 fps on Full HD and ~110 fps at 1024x768 on a Virtex-6. The hand-made
// Chambolle design [19] reaches 38 fps at 1024x768 and 99 fps at 512x512;
// the flow gets 24 / 72 fps, and [3][22][23] stay sub-real-time.
void print_literature(double conv_v2p_1024, double conv_v6_fullhd, double igf_v6_1024,
                      double chambolle_v6_1024, double chambolle_v6_512) {
    std::cout << "=== Secs. 4.1/4.2: comparison with published implementations ===\n\n";
    Table table({"system", "device", "workload", "fps", "source"});
    for (const auto& p : literature_points()) {
        table.add(p.system.substr(0, 44), p.device, p.workload, format_fixed(p.fps, 1),
                  p.citation);
    }
    // The virtual Virtex-II Pro is deliberately conservative (4 elems/cycle
    // external bus, 2.2x logic delay), so its row under-runs the paper's
    // claim there; it is printed, not claimed. The claims use the Virtex-6
    // rows (the paper's own headline: "with a Virtex-6 ... 110 fps").
    const char* v6 = "Virtex-6";
    for (const auto& [device, workload, fps, note] :
         {std::tuple{"Virtex-II Pro", "convolution 1024x768", conv_v2p_1024, "generated"},
          {v6, "convolution 1920x1080", conv_v6_fullhd, "generated (20 iterations)"},
          {v6, "convolution 1024x768", igf_v6_1024, "generated (paper: ~110)"},
          {v6, "chambolle 1024x768", chambolle_v6_1024, "generated (paper: 24)"},
          {v6, "chambolle 512x512", chambolle_v6_512, "generated (paper: 72)"}}) {
        table.add("cone flow (this work)", device, workload, format_fixed(fps, 1), note);
    }
    std::cout << table << "\n";
}

// Ablation: the device-fit claims under swept model constants, keyed by
// (constant, value). Robust claims hold across a sweep, fragile ones only
// near the calibrated point.
struct Constant_point {
    bool divisors_win = false;
    double igf_peak = 0.0;
    double chambolle_peak = 0.0;
};
using Constant_sweep = std::map<std::pair<std::string, double>, Constant_point>;

Constant_sweep sweep_model_constants(Sweep_service& service) {
    std::cout << "=== Ablation: model-constant sensitivity ===\n\n";
    using P = Throughput_params;
    const std::vector<std::tuple<const char*, double P::*, std::vector<double>>> sweeps{
        {"core_read_ports", &P::core_read_ports, {4, 8, 16}},
        {"global_read_ports", &P::global_read_ports, {16, 32, 64}},
        {"class_switch_cycles", &P::class_switch_cycles, {0, 60, 120, 240}},
    };
    Constant_sweep points;
    Table table({"constant", "value", "IGF peak fps", "divisors win", "Chambolle peak"});
    for (const auto& [name, constant, values] : sweeps) {
        for (double v : values) {
            Sweep_config config = paper_config();
            config.throughput.*constant = v;
            const Fit_result igf_fit = explorer_for(service, "igf", config).fit_device();
            const Fit_result chambolle_fit =
                explorer_for(service, "chambolle", config).fit_device();
            const Constant_point p{depth_split(fit_fps(igf_fit)).divisors_win(),
                                   igf_fit.best.throughput.fps,
                                   chambolle_fit.best.throughput.fps};
            points[{name, v}] = p;
            table.add(name, v, format_fixed(p.igf_peak, 1), p.divisors_win ? "yes" : "no",
                      format_fixed(p.chambolle_peak, 1));
        }
    }
    std::cout << table << "\n";
    return points;
}

// Ablation of Sec. 3.2 / Fig. 4's register reuse: tree-expanded operation
// count (naive equation expansion) against DAG registers (with reuse), and
// the gap as estimated area; then Sec. 2.2's window buffers against frames.
struct Reuse_ablation {
    double worst_blowup = 0.0;
    bool grows_with_depth = true;
    double buffer_saving = 0.0;
};

Reuse_ablation ablate_register_reuse(Sweep_service& service) {
    std::cout << "=== Ablation: register reuse (Fig. 4's motivation) ===\n\n";
    Reuse_ablation a;
    Table table({"kernel", "cone", "ops w/o reuse", "registers w/ reuse", "reuse x",
                 "est kLUT w/o", "est kLUT w/"});
    for (const char* kernel : {"igf", "chambolle", "jacobi", "mean"}) {
        Explorer explorer = explorer_for(service, kernel);
        double prev_reuse = 0.0;
        for (int d : {1, 2, 3, 4}) {
            const Cone_stats& stats = service.library(kernel).stats(4, d);
            const double with_reuse = explorer.evaluator().estimated_cone_area(4, d);
            // Without reuse each tree node is its own operator: area scales
            // by the reuse factor (same operator mix).
            const double without_reuse = with_reuse * stats.reuse_factor();
            table.add(kernel, to_string(stats.spec),
                      format_grouped(static_cast<long long>(stats.naive_operation_count)),
                      stats.register_count, format_fixed(stats.reuse_factor(), 2),
                      format_fixed(without_reuse / 1e3, 1),
                      format_fixed(with_reuse / 1e3, 1));
            a.worst_blowup = std::max(a.worst_blowup, stats.reuse_factor());
            if (d > 1 && stats.reuse_factor() < prev_reuse) a.grows_with_depth = false;
            prev_reuse = stats.reuse_factor();
        }
    }
    std::cout << table << "\n";

    const Arch_instance instance{8, {5, 5}, {{5, 1}}};  // w=8, levels [5,5], one core
    const Memory_budget memory =
        explorer_for(service, "igf").evaluator().evaluate(instance).memory;
    a.buffer_saving = memory.saving_factor;
    std::cout << "\non-chip buffers for w=8, [5,5]: "
              << format_fixed(memory.total_kbits, 1) << " kbit vs whole-frame "
              << format_fixed(memory.whole_frame_kbits / 1024.0, 1) << " Mbit (saving "
              << format_fixed(memory.saving_factor, 0) << "x)\n\n";
    return a;
}

// One claim of the paper: where it is made, whether it holds, what it says.
struct Claim {
    std::string figure;
    bool holds;
    std::string text;
};

}  // namespace

int main() {
    Sweep_service service;
    const Kernel_results i = run_kernel(service, igf);
    const Kernel_results c = run_kernel(service, chambolle);
    for (const auto& [kernel, r] : {std::pair{&igf, &i}, std::pair{&chambolle, &c}}) {
        print_area(*kernel, *r);
        print_pareto(*kernel, *r);
        print_fit(*kernel, *r);
    }
    const double i_best = i.fit.best.throughput.fps;
    const double c_best = c.fit.best.throughput.fps;
    const auto menu = compare_generic_hls(service, i.fit);
    const double hls_best = best_of(menu).fps;
    // The Virtex-6 rows at 1024x768 are Figs. 7 and 10's fits.
    const double conv_v6_fullhd = flow_fps(service, "igf", 20, 1920, 1080, "xc6vlx760");
    const double c_v6_512 = flow_fps(service, "chambolle", 10, 512, 512, "xc6vlx760");
    print_literature(flow_fps(service, "igf", 20, 1024, 768, "xc2vp30"), conv_v6_fullhd,
                     i_best, c_best, c_v6_512);
    const Constant_sweep constants = sweep_model_constants(service);
    const Reuse_ablation reuse = ablate_register_reuse(service);

    const Depth_split i_split = depth_split(i.fps);
    const double i_max_pct = i.area.max_rel_error * 100.0;
    const double i_avg_pct = i.area.avg_rel_error * 100.0;
    const double c_max_pct = c.area.max_rel_error * 100.0;
    const double c_avg_pct = c.area.avg_rel_error * 100.0;
    const std::size_t i_points = i.pareto.points.size();
    const double i_spread = front_time_spread(i.pareto);
    const double c_time_300k = best_time_under(c.pareto, 300e3);
    const double i_time_300k = best_time_under(i.pareto, 300e3);
    const int witness_depth = depth_where_8x8_beats_9x9(c.fps);
    const bool divisors_win_without_penalty =
        constants.at({"class_switch_cycles", 0.0}).divisors_win;
    bool chambolle_in_band_across_bandwidth = true;
    for (double ports : {16.0, 32.0, 64.0}) {
        const double peak = constants.at({"global_read_ports", ports}).chambolle_peak;
        chambolle_in_band_across_bandwidth &= peak > 12.0 && peak < 48.0;
    }
    const auto chambolle_refs = literature_for("chambolle");
    const bool only_akin_is_real_time =
        std::none_of(chambolle_refs.begin(), chambolle_refs.end(), [](const auto& p) {
            return p.citation.find("Akin") == std::string::npos && p.fps >= 30.0;
        });

    const std::vector<Claim> claims{
        {"Fig. 5", i.estimate_syntheses == 2 * paper_config().space.max_depth,
         cat("estimation needs only 2 syntheses per depth (", i.estimate_syntheses,
             " for the whole grid)")},
        {"Fig. 5", i_avg_pct < 5.0,
         cat("average error within paper band (<5%): ", format_fixed(i_avg_pct, 2), "%")},
        {"Fig. 5", i_max_pct < 13.2,
         cat("max error within 2x of paper's 6.58%: ", format_fixed(i_max_pct, 2), "%")},
        {"Fig. 6", front_is_monotone(i.pareto),
         "Pareto front trades area monotonically against time"},
        {"Fig. 6", i_points >= 100 && i_points <= 5000,
         cat("evaluation count in the paper's 'few hundreds' regime: ", i_points)},
        {"Fig. 6", i_spread > 50.0,
         cat("front spans >50x in time per frame (spread ", format_fixed(i_spread, 0),
             "x)")},
        {"Fig. 7", i_split.divisors_win(),
         cat("every divisor depth beats every non-divisor depth (min divisor ",
             format_fixed(i_split.worst_divisor, 1), " vs max non-divisor ",
             format_fixed(i_split.best_nondivisor, 1), " fps)")},
        {"Fig. 7", i.fit.has_best && i_best > 55.0 && i_best < 220.0,
         cat("peak within 2x of the paper's ~110 fps: ", format_fixed(i_best, 1))},
        {"Fig. 7", some_series_decreases(i.fps),
         "throughput is not monotone in the window size"},
        {"Fig. 7", i.fit.has_best && 10 % i.fit.best.instance.level_depths.front() == 0,
         "the overall best depth divides N=10"},
        {"Fig. 8", c_avg_pct < 5.0,
         cat("average error within paper band (<5%): ", format_fixed(c_avg_pct, 2), "%")},
        {"Fig. 8", c_max_pct < 12.7,
         cat("max error within 2x of paper's 6.36%: ", format_fixed(c_max_pct, 2), "%")},
        {"Fig. 8", c.cone_4x2_luts > i.cone_4x2_luts,
         "Chambolle cones are larger than IGF cones of equal geometry"},
        {"Fig. 9", !c.pareto.front.empty(), "Pareto set is non-empty"},
        // The two curves differ by roughly the workload complexity.
        {"Fig. 9", c_time_300k > 3.0 * i_time_300k,
         cat("at 300 kLUTs, Chambolle is >=3x slower than IGF (",
             format_fixed(c_time_300k / i_time_300k, 1), "x)")},
        {"Fig. 10", c.fit.has_best && c_best > 12.0 && c_best < 48.0,
         cat("peak within 2x of the paper's ~24 fps: ", format_fixed(c_best, 1))},
        // Core-count quantization: the largest window is not automatically
        // the best (the paper's 8x8-with-two-cones vs 9x9-with-one).
        {"Fig. 10", witness_depth != 0,
         cat("8x8 outperforms 9x9 within a depth series (depth ", witness_depth,
             ") — the paper's core-fit quantization effect")},
        {"Fig. 10", i_best > 3.0 * c_best && i_best < 12.0 * c_best,
         cat("Chambolle is 3-12x slower than IGF on the same device (",
             format_fixed(i_best / c_best, 1), "x; paper: ~4.6x)")},
        {"Sec. 4.3", failed(menu, Hls_directive::loop_merge),
         "loop merge fails on the ISL inter-iteration dependency"},
        {"Sec. 4.3", failed(menu, Hls_directive::flatten_and_pipeline),
         "flatten+pipeline exhausts tool memory on realistic frames"},
        {"Sec. 4.3", hls_best < 3.0,
         cat("generic HLS stays sub-real-time (best ", format_fixed(hls_best, 3),
             " fps, paper 0.14)")},
        {"Sec. 4.3", i_best / hls_best > 100.0,
         cat("cone flow is orders of magnitude faster (",
             format_fixed(i_best / hls_best, 0), "x)")},
        {"Secs. 4.1/4.2", i_best > 5.0 * 13.5,
         cat("on a modern Virtex-6 the flow is ~an order of magnitude above [16]'s 13.5 "
             "fps (", format_fixed(i_best, 1), " fps)")},
        {"Secs. 4.1/4.2", conv_v6_fullhd >= 8.0,
         cat("Full HD with 20 iterations stays in the same order of magnitude as the "
             "paper's 35 fps (", format_fixed(conv_v6_fullhd, 1),
             " fps; known-conservative)")},
        {"Secs. 4.1/4.2", c_best > 38.0 * 0.4 && c_best < 38.0 * 1.5,
         cat("automatic Chambolle is comparable to the hand design [19] (",
             format_fixed(c_best, 1), " vs 38 fps; paper got 24)")},
        {"Secs. 4.1/4.2", c_v6_512 > 72.0 * 0.4 && c_v6_512 < 72.0 * 2.0,
         cat("512x512 Chambolle in the [19] comparison band (", format_fixed(c_v6_512, 1),
             " vs paper's 72)")},
        {"Secs. 4.1/4.2", only_akin_is_real_time,
         "the non-ISL-parallel references stay below the 30 fps real-time threshold"},
        {"Ablation: model constants", i_split.divisors_win(),
         "claims hold at the calibrated point"},
        // The divisor effect is caused by the remainder-class penalty: if it
        // held without it, the paper's explanation would be wrong here.
        {"Ablation: model constants", !divisors_win_without_penalty,
         "removing the class-switch penalty breaks the divisor claim (the paper's "
         "explanation is load-bearing)"},
        {"Ablation: model constants", chambolle_in_band_across_bandwidth,
         "Chambolle peak stays within 2x of the paper's 24 fps across the bandwidth "
         "sweep"},
        {"Ablation: register reuse", reuse.worst_blowup > 5.0,
         cat("reuse saves >5x operators on deep cones (max ",
             format_fixed(reuse.worst_blowup, 1), "x)")},
        {"Ablation: register reuse", reuse.grows_with_depth,
         "the deeper the cone, the more the reuse matters (factor grows with depth for "
         "every kernel)"},
        {"Ablation: register reuse", reuse.buffer_saving > 100.0,
         "cone buffers are orders of magnitude below whole-frame buffers"},
    };

    std::cout << "=== The paper's claims ===\n";
    int deviations = 0;
    std::string figure;
    for (const Claim& claim : claims) {
        if (claim.figure != figure) std::cout << "\n" << (figure = claim.figure) << ":\n";
        deviations += report_claim(claim.text, claim.holds);
    }
    if (claims.size() == paper_claim_count) return deviations == 0 ? 0 : 1;
    std::cout << "\nexpected " << paper_claim_count << " claims, the table holds "
              << claims.size() << "\n";
    return 1;
}
