#include "dse/results.hpp"

#include <iomanip>
#include <sstream>

namespace islhls {

// --- deterministic dumps ---------------------------------------------------------

namespace {

std::ostream& full_precision(std::ostream& os) {
    os << std::setprecision(17);
    return os;
}

void dump_evaluation(std::ostream& os, const Arch_evaluation& e) {
    os << to_string(e.instance) << " feasible=" << e.feasible;
    if (!e.feasible) os << " reason=" << e.infeasible_reason;
    os << " est_luts=" << e.estimated_area_luts
       << " act_luts=" << e.actual_area_luts << " f_max=" << e.f_max_mhz
       << " wpf=" << e.windows_per_frame
       << " cycles=" << e.throughput.cycles_per_window
       << " bneck=" << e.throughput.bottleneck
       << " spf=" << e.throughput.seconds_per_frame
       << " fps=" << e.throughput.fps << " mem_kbits=" << e.memory.total_kbits;
}

}  // namespace

std::string dump(const Arch_evaluation& eval) {
    std::ostringstream os;
    full_precision(os);
    dump_evaluation(os, eval);
    os << "\n";
    return os.str();
}

std::string dump(const Pareto_result& result) {
    std::ostringstream os;
    full_precision(os);
    os << "points " << result.points.size() << "\n";
    for (const Arch_evaluation& e : result.points) {
        dump_evaluation(os, e);
        os << "\n";
    }
    os << "front";
    for (std::size_t i : result.front) os << " " << i;
    os << "\n";
    return os.str();
}

std::string dump(const Fit_result& result) {
    std::ostringstream os;
    full_precision(os);
    os << "grid " << result.grid.size() << "\n";
    for (const Fit_cell& cell : result.grid) {
        os << "w" << cell.window << " d" << cell.primary_depth
           << " valid=" << cell.valid;
        if (cell.valid) {
            os << " ";
            dump_evaluation(os, cell.eval);
        }
        os << "\n";
    }
    os << "best " << result.has_best;
    if (result.has_best) {
        os << " ";
        dump_evaluation(os, result.best);
    }
    os << "\n";
    return os.str();
}

std::string dump(const Area_validation& validation) {
    std::ostringstream os;
    full_precision(os);
    for (const Area_point& p : validation.points) {
        os << "w" << p.window << " d" << p.depth << " regs=" << p.registers
           << " est=" << p.estimated_luts << " act=" << p.actual_luts
           << " cal=" << p.is_calibration << " err=" << p.rel_error << "\n";
    }
    os << "avg=" << validation.avg_rel_error << " max=" << validation.max_rel_error
       << "\n";
    return os.str();
}

std::string dump(const Format_grid& grid) {
    std::ostringstream os;
    full_precision(os);
    for (const Format_cell& cell : grid.cells) {
        os << "w" << cell.window << " d" << cell.depth << " "
           << to_string(cell.result.format) << " psnr=" << cell.result.psnr_db
           << " exact=" << cell.result.exact
           << " max_abs=" << cell.result.max_abs_value
           << " range_int=" << cell.result.range_integer_bits
           << " tried=" << cell.result.formats_tried
           << " sat=" << cell.result.satisfiable;
        if (cell.evaluated) {
            os << " luts=" << cell.area_luts << " f_max=" << cell.f_max_mhz
               << " fps=" << cell.fps;
        }
        os << "\n";
    }
    return os.str();
}

}  // namespace islhls
