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
// The model is validated against a cycle-approximate walk in sim/arch_sim
// (simulate_streaming_cycles), gated on all nine kernels.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "dse/backend.hpp"
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

// Full-precision one-line rendering (no trailing newline); the streaming
// analogue of dump_evaluation_line.
std::string dump_line(const Streaming_evaluation& eval);

struct Streaming_options {
    std::vector<int> vector_widths = {1, 2, 4, 8};
    std::vector<int> pe_counts = {1, 2, 4, 8};
    std::vector<int> channel_counts = {1, 2, 4};
    double pe_overhead_luts = 6000.0;       // DMA engine + band control per PE
    double channel_overhead_luts = 9000.0;  // memory controller per channel
    double srl_bits_per_lut = 32.0;         // SRL packing of line-buffer bits
};

class Streaming_backend : public Arch_backend {
public:
    Streaming_backend(Cone_library& library, const Fpga_device& device,
                      const Evaluator_options& evaluator_options,
                      const Space_options& space,
                      Streaming_options options = {});

    const std::string& name() const override;
    void calibrate() override;
    std::size_t candidate_count() const override;
    std::vector<Backend_point> evaluate_candidate(std::size_t index) const override;

    // Typed evaluation of one config; pure const after calibrate(). Never
    // throws on infeasible configs (reports them).
    Streaming_evaluation evaluate(const Streaming_config& config) const;

    const std::vector<Streaming_config>& configs() const { return configs_; }
    const Fpga_device& device() const { return device_; }

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
    Streaming_options options_;
    std::vector<Streaming_config> configs_;
    std::map<int, Depth_profile> profiles_;  // per fused depth
    int fields_in_ = 0;   // fields streamed in (state + const)
    int fields_out_ = 0;  // state fields streamed back out
    bool calibrated_ = false;
};

}  // namespace islhls
