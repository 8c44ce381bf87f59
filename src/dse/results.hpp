// Result types of the paper-datapath explorations (dse/explorer.hpp), kept
// apart from the Explorer so caches, reports and tests can carry them
// without the Explorer type. Their canonical text is serialize_record
// (core/sweep_records.hpp).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dse/evaluator.hpp"
#include "estimate/format_search.hpp"

namespace islhls {

// --- Pareto exploration ---------------------------------------------------------
struct Pareto_result {
    std::vector<Arch_evaluation> points;   // every evaluated allocation
    std::vector<std::size_t> front;        // indices into `points`
};

// --- device fit -----------------------------------------------------------------
struct Fit_cell {
    int window = 0;
    int primary_depth = 0;
    bool valid = false;          // a feasible allocation exists
    Arch_evaluation eval;
};
struct Fit_result {
    std::vector<Fit_cell> grid;  // (window, primary depth) row-major
    bool has_best = false;
    Arch_evaluation best;        // highest fps over the valid grid
};

// --- area-model validation ------------------------------------------------------
struct Area_point {
    int window = 0;
    int depth = 0;
    int registers = 0;
    double estimated_luts = 0.0;
    double actual_luts = 0.0;
    bool is_calibration = false;  // synthesized to fit alpha
    double rel_error = 0.0;
};
struct Area_validation {
    std::vector<Area_point> points;
    double max_rel_error = 0.0;  // over non-calibration points
    double avg_rel_error = 0.0;
};

// --- per-candidate fixed-point format search ------------------------------------
// One (window, depth) cell: the searched format plus the full evaluation of
// the canonical single-level design point {window, depths={depth}, 1 core}
// at that format — a true (area, fps, PSNR) point, with f_max and cycles
// re-priced at the searched word width instead of the global format.
struct Format_cell {
    int window = 0;
    int depth = 0;
    Format_search_result result;
    // Full re-evaluation at the searched format (device-dependent, iteration-
    // count-independent). `evaluated` is false when the search was
    // unsatisfiable or the caller skipped pricing.
    bool evaluated = false;
    double area_luts = 0.0;
    double f_max_mhz = 0.0;
    double fps = 0.0;
};
struct Format_grid {
    std::string backend = "paper";  // serialized by the grid record
    std::vector<Format_cell> cells;  // (window, primary depth) row-major

    const Format_cell& at(int window, int depth, int max_depth) const {
        return cells[static_cast<std::size_t>(window - 1) *
                         static_cast<std::size_t>(max_depth) +
                     static_cast<std::size_t>(depth - 1)];
    }
};

}  // namespace islhls
