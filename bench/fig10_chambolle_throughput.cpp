// Figure 10 reproduction: Chambolle throughput on the XC6VLX760 per output
// window area and cone depth (N = 10, 1024x768).
//
// Paper claims examined:
//   - peak around 24 fps on 1024x768;
//   - the largest output window is NOT automatically the best: core-count
//     quantization makes a smaller window win within a depth series (the
//     paper's 8x8-with-two-cones vs 9x9-with-one observation);
//   - Chambolle is several times slower than IGF on the same device.
#include <map>

#include "bench_common.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

int main() {
    using namespace islhls;
    using namespace islhls_bench;

    std::cout << "=== Fig. 10: Chambolle throughput on xc6vlx760 (fps) ===\n\n";

    Sweep_service service;
    Explorer explorer = explorer_for(service, "chambolle");
    const auto fit = explorer.fit_device();
    const Space_options& space = explorer.space();

    Table table({"depth \\ window area", "1", "4", "9", "16", "25", "36", "49", "64",
                 "81"});
    // fps and core count per (d, w) for the window-quantization claim.
    std::map<std::pair<int, int>, const Arch_evaluation*> cells;
    for (int d = 1; d <= space.max_depth; ++d) {
        std::vector<std::string> row{cat(d, " iteration", d > 1 ? "s" : "")};
        for (int w = 1; w <= space.max_window; ++w) {
            const auto& cell = fit.grid[static_cast<std::size_t>((w - 1) * space.max_depth +
                                                                 (d - 1))];
            if (cell.valid) {
                row.push_back(format_fixed(cell.eval.throughput.fps, 1));
                cells[{d, w}] = &cell.eval;
            } else {
                row.push_back("-");
            }
        }
        table.add_row(row);
    }
    std::cout << table << "\n";
    if (fit.has_best) {
        std::cout << "best: " << to_string(fit.best.instance) << " -> "
                  << format_fixed(fit.best.throughput.fps, 1)
                  << " fps; paper: ~24 fps with 8x8 windows\n\n";
    }

    report_claim(cat("peak within 2x of the paper's ~24 fps: ",
                     format_fixed(fit.best.throughput.fps, 1)),
                 fit.has_best && fit.best.throughput.fps > 12.0 &&
                     fit.best.throughput.fps < 48.0);

    // Window-quantization effect: within some depth series, 8x8 beats 9x9.
    bool smaller_window_wins = false;
    int witness_depth = 0;
    for (int d = 1; d <= space.max_depth; ++d) {
        const auto w8 = cells.find({d, 8});
        const auto w9 = cells.find({d, 9});
        if (w8 != cells.end() && w9 != cells.end() &&
            w8->second->throughput.fps > w9->second->throughput.fps) {
            smaller_window_wins = true;
            witness_depth = d;
        }
    }
    report_claim(cat("8x8 outperforms 9x9 within a depth series (depth ",
                     witness_depth, ") — the paper's core-fit quantization effect"),
                 smaller_window_wins);

    const auto igf_fit = explorer_for(service, "igf").fit_device();
    report_claim(cat("Chambolle is 3-12x slower than IGF on the same device (",
                     format_fixed(igf_fit.best.throughput.fps /
                                      fit.best.throughput.fps, 1),
                     "x; paper: ~4.6x)"),
                 igf_fit.best.throughput.fps > 3.0 * fit.best.throughput.fps &&
                     igf_fit.best.throughput.fps < 12.0 * fit.best.throughput.fps);
    return claims_exit_code();
}
