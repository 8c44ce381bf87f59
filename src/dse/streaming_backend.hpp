// Streaming multi-PE array backend.
//
// Where the paper's datapath tiles windows through a shared on-chip buffer,
// the streaming style (spcl/stencil_hls, Zohouri, SASA — PAPERS.md) fuses
// `depth` iterations into one deep pipeline and streams whole rows through
// it: `vector_width` elements enter per cycle, `pe_count` PEs each own a
// horizontal band of the frame, and `channels` off-chip channels feed the
// array. A frame pass costs max(compute, transfer) cycles; ceil(N/depth)
// passes run per frame. Halo cost is charged from pipeline depth: a band
// must stream footprint*depth extra rows per open edge, and every PE keeps
// the full input window height minus one in shift-register line buffers
// (charged as SRL LUTs on top of the per-PE datapath cost from the same
// Eq. 1 area model the paper backend calibrates).
//
// The model is validated against a cycle-approximate walk, the test oracle
// simulate_streaming_cycles (oracle/streaming_walk.hpp), gated on every
// registered kernel.
//
// The sweep service (core/service.hpp) drives it: calibrate() once, then
// evaluate() every config.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dse/evaluator.hpp"

namespace islhls {

// One point of the streaming design space.
struct Streaming_config {
    int depth = 1;         // iterations fused per pass (temporal pipeline)
    int vector_width = 1;  // elements per cycle per PE (spatial, within a row)
    int pe_count = 1;      // row-band replication across the frame
    int channels = 1;      // off-chip channels feeding the array
};
std::string to_string(const Streaming_config& config);

struct Streaming_evaluation {
    Streaming_config config;
    bool feasible = true;
    std::string infeasible_reason;

    double area_luts = 0.0;         // datapaths + line buffers + channel logic
    double datapath_luts = 0.0;     // Eq. 1 per-PE cost x pe_count
    double line_buffer_luts = 0.0;  // SRL-mapped line buffers
    double line_buffer_kbits = 0.0;
    double f_max_mhz = 0.0;
    int passes = 0;                 // ceil(N / depth)
    double compute_cycles = 0.0;    // slowest band, one pass
    double memory_cycles = 0.0;     // channel transfer, one pass
    double cycles_per_pass = 0.0;   // max(compute, memory)
    std::string bottleneck;         // "compute" | "channel"
    double seconds_per_frame = 0.0;
    double fps = 0.0;
};

class Streaming_backend {
public:
    Streaming_backend(Cone_library& library, const Fpga_device& device,
                      const Evaluator_options& evaluator_options,
                      const Space_options& space);

    // One-time serial phase: builds every cone the configs price and fits
    // the per-depth models and clocks. Idempotent.
    void calibrate();

    // Evaluation of one config; pure const after calibrate(), so safe from
    // many threads. Never throws on infeasible configs (reports them).
    Streaming_evaluation evaluate(const Streaming_config& config) const;

    // The candidate axis: fused depth x vector width x PE count x channels,
    // in a deterministic order.
    const std::vector<Streaming_config>& configs() const { return configs_; }

private:
    // Everything evaluate() needs about one fused depth, captured during the
    // serial calibrate() so evaluation never touches the library's locks or
    // the shared expression pool.
    struct Depth_profile {
        int register_count = 0;   // cone(1, d) registers (one output column)
        int pipeline_fill = 0;    // levelized DAG depth of cone(1, d)
        int halo_up = 0;          // extra rows above a band: footprint.up * d
        int halo_down = 0;        // extra rows below: footprint.down * d
        // synthesis(v, d) clock per vectorization width, capped at the
        // device: a v-wide PE is a v-column cone whose deeper sharing and
        // fatter registers derate the clock, so the streaming f_max is
        // calibrated against the width actually instantiated instead of
        // inheriting the one-column (or the paper model's) clock.
        std::map<int, double> f_max_by_width;
        Area_model model{1.0};    // Eq. 1 model fitted at the word width
    };

    Cone_library& library_;
    const Fpga_device& device_;
    Evaluator_options evaluator_options_;
    Space_options space_;
    std::vector<Streaming_config> configs_;
    std::map<int, Depth_profile> profiles_;  // per fused depth
    int fields_in_ = 0;   // fields streamed in (state + const)
    int fields_out_ = 0;  // state fields streamed back out
    bool calibrated_ = false;
};

}  // namespace islhls
