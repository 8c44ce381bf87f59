// Figure 5 reproduction: IGF area estimation.
//
// The paper plots estimated vs. actually-synthesized kLUTs of IGF cone
// architectures over the output window area (1..81 elements) for 1..5 fused
// iterations, with alpha calibrated from the two smallest syntheses per
// depth. Reported accuracy: max error 6.58 %, average 2.93 %.
#include "bench_common.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

int main() {
    using namespace islhls;
    using namespace islhls_bench;

    std::cout << "=== Fig. 5: IGF area estimation (estimated vs actual kLUTs) ===\n"
              << "device xc6vlx760, alpha from the two smallest windows per depth\n\n";

    Sweep_service service;
    Explorer explorer = explorer_for(service, "igf");
    const Cone_library& cones = service.library("igf");

    // Phase 1 — what the flow actually needs: estimate the whole grid. Only
    // the calibration designs are synthesized here.
    const Space_options& space = explorer.space();
    for (int d = 1; d <= space.max_depth; ++d) {
        for (int w = 1; w <= space.max_window; ++w) {
            explorer.evaluator().estimated_cone_area(w, d);
        }
    }
    const int calibration_runs = cones.synthesis_runs();

    // Phase 2 — ground truth for the comparison: synthesize everything.
    const auto validation = explorer.validate_area_model();

    Table table({"window", "area(elems)", "depth", "registers", "actual kLUT",
                 "estimated kLUT", "err %", "alpha point"});
    for (const auto& p : validation.points) {
        table.add(cat(p.window, "x", p.window), p.window * p.window, p.depth,
                  p.registers, format_fixed(p.actual_luts / 1000.0, 1),
                  format_fixed(p.estimated_luts / 1000.0, 1),
                  format_fixed(p.rel_error * 100.0, 2), p.is_calibration ? "yes" : "");
    }
    std::cout << table << "\n";

    const double max_pct = validation.max_rel_error * 100.0;
    const double avg_pct = validation.avg_rel_error * 100.0;
    std::cout << "max error " << format_fixed(max_pct, 2) << " % (paper: 6.58 %), "
              << "average " << format_fixed(avg_pct, 2) << " % (paper: 2.93 %)\n";
    std::cout << "syntheses run: " << cones.synthesis_runs()
              << " of " << validation.points.size() << " designs; simulated tool time "
              << format_fixed(cones.synthesis_cpu_seconds() / 3600.0, 1)
              << " h for the calibration set\n\n";

    report_claim(cat("estimation needs only 2 syntheses per depth (", calibration_runs,
                     " for the whole grid)"),
                 calibration_runs == 2 * space.max_depth);
    report_claim(cat("average error within paper band (<5%): ", format_fixed(avg_pct, 2),
                     "%"),
                 avg_pct < 5.0);
    report_claim(cat("max error within 2x of paper's 6.58%: ", format_fixed(max_pct, 2),
                     "%"),
                 max_pct < 13.2);
    return claims_exit_code();
}
