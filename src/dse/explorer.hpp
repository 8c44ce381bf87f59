// Design space exploration driver (the right half of the paper's Fig. 2).
//
// Three entry points mirror the paper's three experiment kinds:
//   - validate_area_model(): Eq. 1 estimated vs virtually-synthesized area
//     across the whole (window, depth) grid (Figs. 5 and 8);
//   - explore_pareto(): device-unconstrained sweep over windows, iteration
//     partitions and core allocations, Pareto set extraction (Figs. 6 and 9);
//   - fit_device(): maximize throughput inside one device's budget, per
//     (window, primary depth) cell (Figs. 7 and 10).
// Other datapath styles (dse/streaming_backend.hpp) are explored by the
// sweep service (core/service.hpp), which merges the per-backend fronts.
//
// The paper's candidate axis: a Pareto candidate is one (window, iteration
// partition) pair, a fit cell one (window, canonical partition) pair; each
// grows its core allocation under the sweep's area cap or the device budget.
//
// All entry points fan independent candidates across a thread pool
// (Space_options::threads) after a one-time serial calibration. Each
// candidate writes into its own pre-sized slot and the cross-candidate
// aggregation (concatenation, Pareto extraction, best-cell scan, error
// statistics) runs after the join in the serial candidate order, so the
// results are byte-identical to a single-threaded run.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dse/evaluator.hpp"
#include "dse/results.hpp"
#include "estimate/format_search.hpp"
#include "support/parallel.hpp"

namespace islhls {

// All deep-first partitions of `iterations` into parts <= max_depth.
std::vector<std::vector<int>> depth_partitions(int iterations, int max_depth);

// Canonical partition for a primary depth d: floor(N/d) levels of d, the
// remainder split recursively (the paper's "missing iterations" handling:
// depth 3 over N=10 becomes [3,3,3,1], depth 4 becomes [4,4,2]).
std::vector<int> canonical_partition(int iterations, int primary_depth);

class Explorer {
public:
    // `shared_pool`, when given, replaces the explorer's own lazily built
    // pool: every exploration fans its candidates across it, so a sweep
    // driving many explorers (core/service.hpp) spins up one set of workers
    // for the whole batch. The pool must outlive the explorer and its
    // thread count supersedes Space_options::threads.
    Explorer(Cone_library& library, const Fpga_device& device,
             const Evaluator_options& evaluator_options,
             const Space_options& space_options, Thread_pool* shared_pool = nullptr);

    // Kept for the benchmark harness, which still names it; every other
    // caller uses the top-level islhls::Format_grid (dse/results.hpp).
    using Format_grid = islhls::Format_grid;

    // --- Pareto exploration (paper backend) --------------------------------------
    Pareto_result explore_pareto();

    // --- device fit --------------------------------------------------------------
    Fit_result fit_device();

    // --- area-model validation ---------------------------------------------------
    Area_validation validate_area_model();

    // --- per-candidate fixed-point format search ---------------------------------
    // The numeric axis of the design space: the narrowest passing Qm.f per
    // (window, depth) cell, searched over sample windows of `content` (the
    // same grid the fit/area explorations cover), plus the full evaluation
    // of each cell's canonical one-core design point at its searched format
    // (f_max, cycles and fps re-priced at the searched word width — a true
    // (area, fps, PSNR) point per cell). Cells are independent, so they fan
    // across the explorer's pool like any other candidate set; the per-cell
    // search itself runs serially and each cell is seeded, so the grid is
    // bit-identical at any thread count.
    islhls::Format_grid search_formats(const Frame_set& content, Boundary boundary,
                                       const Format_search_options& options = {});

    Arch_evaluator& evaluator() { return evaluator_; }
    const Space_options& space() const { return space_; }

private:
    // Fans body(0..count-1) across the shared pool when one was injected,
    // otherwise the explorer's own pool (created on first use from
    // Space_options::threads, reused by every subsequent exploration; one
    // thread runs the bodies inline).
    void run_parallel(std::size_t count,
                      const std::function<void(std::size_t)>& body);

    // Grows the core allocation of `instance` from one core per depth class,
    // always feeding the bottleneck class, while the estimated area stays
    // within `area_budget`; hands every fitting step, in growth order, to
    // `step` (none when even the minimal allocation does not fit). Pure once
    // the evaluator is calibrated.
    void grow_allocation(Arch_instance instance, double area_budget,
                         int max_total_cores,
                         const std::function<void(Arch_evaluation&&)>& step) const;

    Arch_evaluator evaluator_;
    Space_options space_;
    Thread_pool* external_pool_ = nullptr;
    std::unique_ptr<Thread_pool> pool_;
};

}  // namespace islhls
