// Figure 8 reproduction: Chambolle area estimation (estimated vs actual
// kLUTs). Paper accuracy: max error 6.36 %, average 2.19 %.
#include "bench_common.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

int main() {
    using namespace islhls;
    using namespace islhls_bench;

    std::cout << "=== Fig. 8: Chambolle area estimation ===\n"
              << "device xc6vlx760, alpha from the two smallest windows per depth\n\n";

    Sweep_service service;
    Explorer explorer = explorer_for(service, "chambolle");
    const auto validation = explorer.validate_area_model();

    // Compact view: one row per (depth, window), like the figure's series.
    Table table({"depth", "window area", "registers", "actual kLUT", "estimated kLUT",
                 "err %"});
    for (const auto& p : validation.points) {
        if (p.is_calibration) continue;
        table.add(p.depth, p.window * p.window, p.registers,
                  format_fixed(p.actual_luts / 1000.0, 1),
                  format_fixed(p.estimated_luts / 1000.0, 1),
                  format_fixed(p.rel_error * 100.0, 2));
    }
    std::cout << table << "\n";

    const double max_pct = validation.max_rel_error * 100.0;
    const double avg_pct = validation.avg_rel_error * 100.0;
    std::cout << "max error " << format_fixed(max_pct, 2) << " % (paper: 6.36 %), "
              << "average " << format_fixed(avg_pct, 2) << " % (paper: 2.19 %)\n\n";

    report_claim(cat("average error within paper band (<5%): ",
                     format_fixed(avg_pct, 2), "%"),
                 avg_pct < 5.0);
    report_claim(cat("max error within 2x of paper's 6.36%: ",
                     format_fixed(max_pct, 2), "%"),
                 max_pct < 12.7);
    report_claim("Chambolle cones are larger than IGF cones of equal geometry",
                 explorer.evaluator().actual_cone_area(4, 2) >
                     explorer_for(service, "igf").evaluator().actual_cone_area(4, 2));
    return claims_exit_code();
}
