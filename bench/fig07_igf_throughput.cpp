// Figure 7 reproduction: IGF throughput on a Virtex-6 XC6VLX760 when the
// whole device is used, as a function of output window area, one series per
// cone depth (1..5 fused iterations), N = 10, 1024x768 frames.
//
// Paper claims reproduced here:
//   - depths that divide N (1, 2, 5) outperform those that do not (3, 4),
//     because non-divisors need an extra remainder core type;
//   - the trend over the window size is not monotone (bigger cones are
//     faster per element, but fewer of them fit);
//   - peak throughput is around 110 fps on this device.
#include <map>

#include "bench_common.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

int main() {
    using namespace islhls;
    using namespace islhls_bench;

    std::cout << "=== Fig. 7: IGF throughput on xc6vlx760 (fps; N=10, 1024x768) ===\n\n";

    Sweep_service service;
    Explorer explorer = explorer_for(service, "igf");
    const auto fit = explorer.fit_device();
    const Space_options& space = explorer.space();

    Table table({"depth \\ window area", "1", "4", "9", "16", "25", "36", "49", "64",
                 "81"});
    std::map<int, double> best_per_depth;
    for (int d = 1; d <= space.max_depth; ++d) {
        std::vector<std::string> row{cat(d, " iteration", d > 1 ? "s" : "")};
        for (int w = 1; w <= space.max_window; ++w) {
            const auto& cell = fit.grid[static_cast<std::size_t>((w - 1) * space.max_depth +
                                                                 (d - 1))];
            if (cell.valid) {
                row.push_back(format_fixed(cell.eval.throughput.fps, 1));
                best_per_depth[d] =
                    std::max(best_per_depth[d], cell.eval.throughput.fps);
            } else {
                row.push_back("-");
            }
        }
        table.add_row(row);
    }
    std::cout << table << "\n";
    if (fit.has_best) {
        std::cout << "best: " << to_string(fit.best.instance) << " -> "
                  << format_fixed(fit.best.throughput.fps, 1) << " fps ("
                  << format_fixed(fit.best.estimated_area_luts / 1e3, 0)
                  << " kLUTs, bottleneck " << fit.best.throughput.bottleneck
                  << "); paper peak: ~110 fps\n\n";
    }

    const double worst_divisor =
        std::min({best_per_depth[1], best_per_depth[2], best_per_depth[5]});
    const double best_nondivisor = std::max(best_per_depth[3], best_per_depth[4]);
    report_claim(cat("every divisor depth beats every non-divisor depth (min divisor ",
                     format_fixed(worst_divisor, 1), " vs max non-divisor ",
                     format_fixed(best_nondivisor, 1), " fps)"),
                 worst_divisor > best_nondivisor);
    report_claim(cat("peak within 2x of the paper's ~110 fps: ",
                     format_fixed(fit.best.throughput.fps, 1)),
                 fit.has_best && fit.best.throughput.fps > 55.0 &&
                     fit.best.throughput.fps < 220.0);
    // Non-monotonicity: some depth series must decrease somewhere.
    bool non_monotone = false;
    for (int d = 1; d <= space.max_depth; ++d) {
        double prev = -1.0;
        for (int w = 1; w <= space.max_window; ++w) {
            const auto& cell = fit.grid[static_cast<std::size_t>((w - 1) * space.max_depth +
                                                                 (d - 1))];
            if (!cell.valid) continue;
            if (prev > 0.0 && cell.eval.throughput.fps < prev) non_monotone = true;
            prev = cell.eval.throughput.fps;
        }
    }
    report_claim("throughput is not monotone in the window size", non_monotone);
    report_claim("the overall best depth divides N=10",
                 fit.has_best && 10 % fit.best.instance.level_depths.front() == 0);
    return claims_exit_code();
}
