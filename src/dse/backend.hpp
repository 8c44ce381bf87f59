// The architecture-backend seam of the DSE.
//
// The paper evaluates a single temporally-pipelined datapath, but the design
// space the successors explore is datapath style x replication x bandwidth
// (Zohouri's spatial+temporal blocking, SASA's multi-PE arrays on HBM — see
// PAPERS.md). An Arch_backend is one datapath style: it enumerates its own
// candidate axis and prices every candidate into generic Backend_points, so
// the sweep service (core/service.hpp) can merge the fronts of several
// backends into a single cross-backend Pareto front.
//
// The two-phase contract mirrors Arch_evaluator: calibrate() runs serially
// once (fits cost models, pre-builds cones — anything that mutates the shared
// expression pool), after which evaluate_candidate() is pure const and safe
// from any number of threads. Candidate enumeration is deterministic, and so
// is every point's full-precision `detail` line, which is what dump() renders
// — the byte-identity currency the tests diff across thread counts and code
// changes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dse/results.hpp"

namespace islhls {

struct Space_options {
    int iterations = 10;      // N, the total ISL iteration count
    int max_window = 9;       // output windows 1..max (square)
    int max_depth = 5;        // cone depths 1..max
    int max_cores_per_sweep = 16;       // Pareto sweep: total cores cap
    double pareto_area_cap_luts = 6e6;  // Pareto sweep: area cap
    int threads = 1;          // DSE fan-out width; 0 = all hardware threads
};

class Arch_backend {
public:
    virtual ~Arch_backend() = default;

    // Stable identity ("paper", "streaming"); tags Pareto points, report rows
    // and cache keys.
    virtual const std::string& name() const = 0;

    // One-time serial phase: fit area/cost models, pre-build the cone grid.
    // Must run before evaluate_candidate(); idempotent.
    virtual void calibrate() = 0;

    // Deterministic candidate axis. evaluate_candidate(i) returns the
    // feasible design points candidate i contributes (possibly none, possibly
    // a whole allocation-growth trajectory), in a deterministic order. Pure
    // const after calibrate(): safe to call concurrently for different (or
    // equal) indices.
    virtual std::size_t candidate_count() const = 0;
    virtual std::vector<Backend_point> evaluate_candidate(std::size_t index) const = 0;

    // Full-precision rendering of an exploration over this backend: one
    // detail line per point plus the front over (area, seconds_per_frame).
    // The default layout matches the legacy dump(Pareto_result) byte for
    // byte when the detail lines do.
    virtual std::string dump(const std::vector<Backend_point>& points) const;
};

// Runs every candidate of `backend` serially, in candidate order, and
// returns the concatenated points. Convenience for tests and one-off
// callers.
std::vector<Backend_point> evaluate_all_candidates(const Arch_backend& backend);

}  // namespace islhls
