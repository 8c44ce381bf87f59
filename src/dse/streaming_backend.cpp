#include "dse/streaming_backend.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"
#include "support/numeric.hpp"

namespace islhls {

namespace {

// The streaming candidate axes, and the infrastructure each PE and channel
// adds on top of its datapath.
constexpr int kVectorWidths[] = {1, 2, 4, 8};
constexpr int kPeCounts[] = {1, 2, 4, 8};
constexpr int kChannelCounts[] = {1, 2, 4};
constexpr double kPeOverheadLuts = 6000.0;       // DMA engine + band control per PE
constexpr double kChannelOverheadLuts = 9000.0;  // memory controller per channel
constexpr double kSrlBitsPerLut = 32.0;          // SRL packing of line-buffer bits

}  // namespace

std::string to_string(const Streaming_config& config) {
    std::ostringstream os;
    os << "stream(d=" << config.depth << ",v=" << config.vector_width
       << ",pe=" << config.pe_count << ",ch=" << config.channels << ")";
    return os.str();
}

Streaming_backend::Streaming_backend(Cone_library& library,
                                     const Fpga_device& device,
                                     const Evaluator_options& evaluator_options,
                                     const Space_options& space)
    : library_(library),
      device_(device),
      evaluator_options_(evaluator_options),
      space_(space) {
    check_internal(space_.iterations >= 1 && space_.max_depth >= 1,
                   "invalid space options");
    // The candidate axis: fused depth x vector width x PE count x channels,
    // enumerated deterministically. Depths beyond N would compute more
    // iterations than asked — excluded up front.
    const int max_depth = std::min(space_.max_depth, space_.iterations);
    for (int d = 1; d <= max_depth; ++d) {
        for (int v : kVectorWidths) {
            for (int p : kPeCounts) {
                for (int c : kChannelCounts) {
                    configs_.push_back({d, v, p, c});
                }
            }
        }
    }
}

void Streaming_backend::calibrate() {
    if (calibrated_) return;
    const int max_depth = std::min(space_.max_depth, space_.iterations);
    // Serial phase one: build every cone this backend prices. Construction
    // extends the kernel's shared expression pool, so it must finish before
    // any concurrent evaluate() reads the pool (same discipline as
    // Arch_evaluator::calibrate).
    for (int d = 1; d <= max_depth; ++d) {
        library_.cone(1, d);
        for (int w : evaluator_options_.calibration_windows) library_.cone(w, d);
        // The per-width clocks below synthesize a v-column cone per
        // vectorization width — those cones must exist before any
        // concurrent evaluate() too.
        for (int v : kVectorWidths) library_.cone(v, d);
    }
    const Footprint footprint = library_.step().footprint();
    fields_in_ = library_.step().pool().field_count();
    fields_out_ = library_.step().state_field_count();
    // Phase two: per fused depth, fit the same Eq. 1 model the paper backend
    // calibrates — identical synthesis keys, so a shared Cone_library pays
    // for the calibration set once across backends.
    for (int d = 1; d <= max_depth; ++d) {
        Depth_profile profile;
        const Cone_stats& stats = library_.stats(1, d);
        profile.register_count = stats.register_count;
        profile.pipeline_fill = stats.pipeline_depth;
        profile.halo_up = footprint.up * d;
        profile.halo_down = footprint.down * d;
        Area_model model(
            static_cast<double>(evaluator_options_.format.total_bits()));
        for (int w : evaluator_options_.calibration_windows) {
            const Synthesis_report& report =
                library_.synthesis(w, d, device_, evaluator_options_.synth);
            model.add_sample({library_.stats(w, d).register_count,
                              report.lut_count});
        }
        model.calibrate();
        profile.model = model;
        // One synthesis per vectorization width: the v-wide PE's clock, not
        // the one-column cone's, prices every config at that width.
        for (int v : kVectorWidths) {
            const Synthesis_report& wide =
                library_.synthesis(v, d, device_, evaluator_options_.synth);
            profile.f_max_by_width[v] =
                std::min(device_.max_clock_mhz, wide.f_max_mhz);
        }
        profiles_[d] = profile;
    }
    calibrated_ = true;
}

Streaming_evaluation Streaming_backend::evaluate(
    const Streaming_config& config) const {
    check_internal(calibrated_, "Streaming_backend::evaluate before calibrate");
    Streaming_evaluation eval;
    eval.config = config;
    const auto it = profiles_.find(config.depth);
    check_internal(it != profiles_.end() && config.vector_width >= 1 &&
                       config.pe_count >= 1 && config.channels >= 1,
                   "invalid streaming config");
    const Depth_profile& profile = it->second;
    const int frame_w = evaluator_options_.frame_width;
    const int frame_h = evaluator_options_.frame_height;
    const int halo_rows = profile.halo_up + profile.halo_down;

    const auto infeasible = [&eval](const char* reason) {
        eval.feasible = false;
        eval.infeasible_reason = reason;
    };
    if (config.vector_width > frame_w) {
        infeasible("vector width exceeds frame width");
        return eval;
    }
    if (config.pe_count > frame_h) {
        infeasible("more PEs than frame rows");
        return eval;
    }
    const int band_rows = ceil_div(frame_h, config.pe_count);
    if (config.pe_count > 1 && halo_rows > band_rows) {
        infeasible("band smaller than halo");
        return eval;
    }

    // --- throughput: ceil(N/d) passes, each max(compute, transfer) ---------------
    eval.passes = ceil_div(space_.iterations, config.depth);
    const double row_groups = ceil_div(frame_w, config.vector_width);
    // The slowest band streams its own rows plus the halo rows of every open
    // edge (an edge band has one neighbour, an interior band two; halos at
    // the frame boundary are free).
    double streamed_rows = 0.0;
    if (config.pe_count == 1) {
        streamed_rows = frame_h;
    } else if (config.pe_count == 2) {
        streamed_rows = band_rows + std::max(profile.halo_up, profile.halo_down);
    } else {
        streamed_rows = band_rows + halo_rows;
    }
    eval.compute_cycles = streamed_rows * row_groups + profile.pipeline_fill;

    // Off-chip traffic: the frame once, plus the halo re-reads across the
    // pe_count - 1 interior band boundaries; all state fields come back.
    const double rows_read =
        frame_h + static_cast<double>(config.pe_count - 1) * halo_rows;
    const double elements_read = rows_read * frame_w * fields_in_;
    const double elements_written =
        static_cast<double>(frame_h) * frame_w * fields_out_;
    const double bandwidth = config.channels * device_.offchip_elems_per_cycle;
    eval.memory_cycles = (elements_read + elements_written) / bandwidth;

    eval.cycles_per_pass = std::max(eval.compute_cycles, eval.memory_cycles);
    eval.bottleneck =
        eval.memory_cycles > eval.compute_cycles ? "channel" : "compute";
    const auto clock = profile.f_max_by_width.find(config.vector_width);
    check_internal(clock != profile.f_max_by_width.end(),
                   "vector width was not calibrated");
    eval.f_max_mhz = clock->second;
    eval.seconds_per_frame =
        eval.passes * eval.cycles_per_pass / (eval.f_max_mhz * 1e6);
    eval.fps = 1.0 / eval.seconds_per_frame;

    // --- area: per-PE datapath (Eq. 1 at vector_width columns) + SRL line
    // buffers + replication/channel infrastructure --------------------------------
    eval.datapath_luts =
        config.pe_count *
        profile.model.estimate(config.vector_width * profile.register_count);
    const double line_buffer_bits =
        static_cast<double>(config.pe_count) * halo_rows * frame_w * fields_in_ *
        evaluator_options_.format.total_bits();
    eval.line_buffer_kbits = line_buffer_bits / 1024.0;
    eval.line_buffer_luts = line_buffer_bits / kSrlBitsPerLut;
    eval.area_luts = eval.datapath_luts + eval.line_buffer_luts +
                     config.pe_count * kPeOverheadLuts +
                     config.channels * kChannelOverheadLuts;
    if (eval.area_luts > static_cast<double>(device_.usable_luts())) {
        infeasible("area exceeds device budget");
    }
    return eval;
}

}  // namespace islhls
