// Evaluation of one architecture instance: area (estimated via the paper's
// Eq. 1 model, with the virtual-synthesis "actual" kept alongside for
// validation), throughput, memory budget and feasibility.
//
// Evaluation is split into two phases so the explorer can fan out safely:
// calibrate() fits the per-depth area models once (each costs the two alpha
// syntheses of the paper), builds the cone grid and sizes a price table with
// one cell per (window, depth) cone. evaluate() reads only that table: each
// cell holds the cone's pricing facts (estimated and synthesized LUTs,
// clock, latency, input count), resolved from the cone library the first
// time any thread needs them and read lock-free after that. Any number of
// threads may therefore evaluate candidates concurrently, and a candidate
// costs no library lookup once its cells are filled. Cones outside the
// calibrated grid (and every cone of an uncalibrated one-off evaluator) are
// priced afresh on each use through the same function, calibrating the
// depth's area model on first use under a lock.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "backend/fixed_point.hpp"
#include "dse/architecture.hpp"
#include "dse/cone_library.hpp"
#include "estimate/area_model.hpp"
#include "estimate/memory_model.hpp"
#include "estimate/throughput_model.hpp"
#include "synth/device.hpp"

namespace islhls {

struct Evaluator_options {
    int frame_width = 1024;
    int frame_height = 768;
    Fixed_format format;
    Synth_options synth;
    Throughput_params throughput;
    // Windows synthesized (per depth class) to calibrate the area model; the
    // paper uses two ("as low as two" syntheses).
    std::vector<int> calibration_windows = {1, 2};
    // Fixed infrastructure per cone class: DMA lane, sequencer, buffer
    // alignment network. Charged once per distinct depth in the instance,
    // which is what makes remainder classes expensive on a full device.
    double class_overhead_luts = 24000.0;
};

// The design space an exploration walks: the (window, depth) grid, the
// iteration count it must cover, and the Pareto sweep's caps.
struct Space_options {
    int iterations = 10;      // N, the total ISL iteration count
    int max_window = 9;       // output windows 1..max (square)
    int max_depth = 5;        // cone depths 1..max
    int max_cores_per_sweep = 16;       // Pareto sweep: total cores cap
    double pareto_area_cap_luts = 6e6;  // Pareto sweep: area cap
    int threads = 1;          // DSE fan-out width; 0 = all hardware threads
};

struct Arch_evaluation {
    Arch_instance instance;
    bool feasible = true;
    std::string infeasible_reason;

    double estimated_area_luts = 0.0;  // Eq. 1 model, what the DSE ranks by
    double actual_area_luts = 0.0;     // virtual synthesis ground truth
    double f_max_mhz = 0.0;            // slowest cone type clock
    long long windows_per_frame = 0;
    Throughput_estimate throughput;
    Memory_budget memory;
};

class Arch_evaluator {
public:
    Arch_evaluator(Cone_library& library, const Fpga_device& device,
                   const Evaluator_options& options);

    // One-time calibration: fits the area models for depths 1..max_depth
    // (the alpha syntheses of Eq. 1), pre-builds every cone of the
    // (1..max_window, 1..max_depth) grid and sizes the grid's price table.
    // Cone construction extends the kernel's shared expression pool, so it
    // must not race the unlocked pool reads inside evaluate(); after
    // calibrate(W, D), evaluating any instance with window <= W and depths
    // <= D is pure — no model fitting, no pool mutation — and safe from many
    // threads at once. The table fills lazily: a cell is priced by the first
    // evaluation that needs it (racing threads wait for that one pricing),
    // so only the cones some candidate reaches are synthesized, and distinct
    // cells still synthesize in parallel. Calling calibrate() again with the
    // same bounds does nothing and keeps the filled cells; other bounds start
    // an empty table. It must not run concurrently with evaluate().
    void calibrate(int max_window, int max_depth);
    bool is_calibrated(int depth) const;

    // Full evaluation; never throws on infeasible instances (reports them).
    Arch_evaluation evaluate(const Arch_instance& instance) const;

    // Eq. 1 estimated LUTs of one cone type (calibrating the depth's model on
    // first use).
    double estimated_cone_area(int window, int depth) const;
    // Virtual-synthesis LUTs of one cone type.
    double actual_cone_area(int window, int depth) const;

    const Fpga_device& device() const { return device_; }
    Cone_library& library() const { return library_; }
    const Evaluator_options& options() const { return options_; }

private:
    // What evaluate() needs to know about one (window, depth) cone.
    struct Cone_price {
        double estimated_luts = 0.0;  // estimated_cone_area()
        double actual_luts = 0.0;     // virtual-synthesis LUTs
        double f_max_mhz = 0.0;
        int latency_cycles = 0;
        int input_count = 0;          // on-chip reads per cone pass
    };
    struct Price_cell {
        std::once_flag filled;
        Cone_price price;
    };

    const Area_model& model_for_depth(int depth) const;
    // Resolves a cone's price from the library (may synthesize).
    Cone_price compute_price(int window, int depth) const;
    // The calibrated grid's memoized price, or a fresh one outside it.
    Cone_price price(int window, int depth) const;

    Cone_library& library_;
    const Fpga_device& device_;
    Evaluator_options options_;
    // The step's facts every evaluation reads, taken once at construction.
    Footprint footprint_;
    int fields_in_ = 0;   // state + constant fields read per window
    int fields_out_ = 0;  // state fields written per window
    mutable std::shared_mutex models_mutex_;
    mutable std::map<int, Area_model> area_models_;  // per depth class
    int price_windows_ = 0;  // price table bounds (0 = uncalibrated)
    int price_depths_ = 0;
    std::unique_ptr<Price_cell[]> prices_;  // depth-major, price_windows_ wide
};

}  // namespace islhls
