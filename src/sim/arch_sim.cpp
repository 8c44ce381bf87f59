#include "sim/arch_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "ir/compiled.hpp"
#include "sim/tape_lanes.hpp"
#include "support/error.hpp"
#include "support/numeric.hpp"

namespace islhls {

namespace {

// A dense per-field buffer over an absolute-coordinate rectangle. The
// element type is the simulation's value domain: doubles in double mode, raw
// Qm.f words in fixed mode (the whole on-chip pipeline then stays in the
// integer domain — the off-chip load quantizes once and nothing re-quantizes
// per cone origin).
template <typename T>
class Region_buffer {
public:
    Region_buffer(const Window& window, int fields)
        : window_(window),
          data_(static_cast<std::size_t>(fields) * window.element_count(), T{}) {}

    const Window& window() const { return window_; }

    bool contains(int x, int y) const {
        return x >= window_.x0 && x < window_.x0 + window_.width && y >= window_.y0 &&
               y < window_.y0 + window_.height;
    }

    T get(int field, int x, int y) const { return data_[index(field, x, y)]; }
    void set(int field, int x, int y, T v) { data_[index(field, x, y)] = v; }

private:
    std::size_t index(int field, int x, int y) const {
        // Static message: building a formatted string here would run on
        // every on-chip element access, the simulator's innermost loop.
        check_internal(contains(x, y), "Region_buffer access outside its window");
        return (static_cast<std::size_t>(field) * window_.height +
                static_cast<std::size_t>(y - window_.y0)) *
                   window_.width +
               static_cast<std::size_t>(x - window_.x0);
    }

    Window window_;
    std::vector<T> data_;
};

// Flush tile origins covering `extent` with stride `w`: 0, w, 2w, ...,
// with the last tile pulled back flush to the end (origins may overlap).
std::vector<int> flush_origins(int extent, int w) {
    std::vector<int> origins;
    if (extent <= w) {
        origins.push_back(0);
        return origins;
    }
    for (int o = 0;; o += w) {
        if (o + w >= extent) {
            origins.push_back(extent - w);
            break;
        }
        origins.push_back(o);
    }
    return origins;
}

// --- value domains ----------------------------------------------------------------
//
// One domain per arithmetic mode; the simulation loop below is templated on
// it, so both modes run the identical tiling/coverage machinery and only the
// element type, the off-chip conversions and the per-op lane arithmetic
// differ. Cone execution is lane-blocked in both domains: up to kTapeLane
// cone origins of one region row advance together through the shared
// per-ISA lane kernels (sim/tape_lanes.hpp), one whole-tape call per lane
// block — there is no per-origin scalar gather/execute/scatter loop.
// The kernels match the scalar references case for case (apply_op /
// apply_op_fixed), so the batched path is exact against run_ghost_ir: 0 LSB
// in the fixed domain, 0.0 max abs error in the double domain.

// IEEE doubles over the compiled tape.
struct Double_domain {
    using Value = double;

    struct Level {
        const Cone* cone = nullptr;
        const Compiled_program* tape = nullptr;
        // kTapeLane contiguous origins per tape slot; constant lanes are
        // single-assignment, filled at bind time. `slot` points at each
        // slot's span for the lane walk.
        std::vector<double> lanes;
        std::vector<double*> slot;
        // (s * w + yy) * w + xx -> producing tape slot, precomputed so the
        // scatter loop never calls output_index.
        std::vector<std::int32_t> scatter;
    };

    void bind(Level& level, const Cone& cone) const {
        level.cone = &cone;
        level.tape = &cone.program().compiled();
        level.lanes.assign(static_cast<std::size_t>(level.tape->slot_count()) *
                               static_cast<std::size_t>(kTapeLane),
                           0.0);
        const std::vector<Tape_constant>& constants = level.tape->constants();
        for (const Tape_constant& k : constants) {
            double* dst =
                level.lanes.data() + static_cast<std::size_t>(k.slot) * kTapeLane;
            std::fill(dst, dst + kTapeLane, k.value);
        }
        bind_lane_slots(level.slot, level.lanes.data(),
                        static_cast<std::size_t>(level.tape->slot_count()));
    }
    Value load(const Frame& f, int x, int y, Boundary b) const {
        return f.sample(x, y, b);
    }
    double store(Value v) const { return v; }
    // The frame values feed the tape unmodified, as in the scalar reference.
    Value wrap_input(const Level&, Value v) const { return v; }
    void run_ops(Level& level, int n) const {
        run_tape(level.tape->ops().data(), level.tape->ops().size(), level.slot.data(), n);
    }
};

// Raw Qm.f words over the integer-lowered tape, byte-identical to the
// run_fixed_raw reference interpreter. The off-chip load quantizes every
// element exactly once; levels hand raw words to each other directly,
// matching the fixed frame engine word for word.
struct Fixed_domain {
    using Value = std::int64_t;
    Fixed_format format;
    Raw_quantizer quantize;

    explicit Fixed_domain(const Fixed_format& fmt) : format(fmt), quantize(fmt) {}

    struct Level {
        const Cone* cone = nullptr;
        const Compiled_program* tape = nullptr;
        // Integer lowering of this cone's tape: wrap/shift parameters and
        // the raw constant words.
        std::unique_ptr<Fixed_tape> fixed;
        std::vector<std::int64_t> lanes;
        std::vector<std::int64_t*> slot;
        std::vector<std::int32_t> scatter;
    };

    void bind(Level& level, const Cone& cone) const {
        level.cone = &cone;
        level.tape = &cone.program().compiled();
        level.fixed = std::make_unique<Fixed_tape>(cone.program().compiled(), format);
        level.lanes.assign(static_cast<std::size_t>(level.tape->slot_count()) *
                               static_cast<std::size_t>(kTapeLane),
                           0);
        const std::vector<Tape_constant>& constants = level.tape->constants();
        for (std::size_t i = 0; i < constants.size(); ++i) {
            std::int64_t* dst = level.lanes.data() +
                                static_cast<std::size_t>(constants[i].slot) * kTapeLane;
            std::fill(dst, dst + kTapeLane, level.fixed->constant_raw()[i]);
        }
        bind_lane_slots(level.slot, level.lanes.data(),
                        static_cast<std::size_t>(level.tape->slot_count()));
    }
    Value load(const Frame& f, int x, int y, Boundary b) const {
        return quantize(f.sample(x, y, b));
    }
    double store(Value v) const { return from_raw(v, format); }
    // run_fixed_raw wraps every input word on load; the lane path mirrors
    // that (a no-op for the in-range words the region holds).
    Value wrap_input(const Level& level, Value v) const {
        return level.fixed->wrap()(v);
    }
    void run_ops(Level& level, int n) const {
        const Fixed_tape& fixed = *level.fixed;
        run_tape(level.tape->ops().data(), level.tape->ops().size(), level.slot.data(), n,
                 fixed.wrap(), fixed.frac_bits(), fixed.fixed_one());
    }
};

template <class Domain>
Arch_sim_result simulate_impl(Cone_library& library, const Arch_instance& instance,
                              const Frame_set& initial, const Arch_sim_options& options,
                              const Domain& domain) {
    using Value = typename Domain::Value;
    const Stencil_step& step = library.step();
    const Footprint fp = step.footprint();
    const int w = instance.window;
    check_internal(w >= 1 && !instance.level_depths.empty(),
                   "simulate_architecture: malformed instance");

    const int frame_w = initial.width();
    const int frame_h = initial.height();
    const int fields_total = step.pool().field_count();
    const int state_count = step.state_field_count();

    // Per-field index mapping: buffer slot == pool field index.
    std::vector<const Frame*> field_frames;
    for (int f = 0; f < fields_total; ++f) {
        field_frames.push_back(&initial.field(step.pool().field_name(f)));
    }

    Arch_sim_result result;
    result.final_state = Frame_set(frame_w, frame_h);
    std::vector<Frame*> out_frames;
    for (const std::string& name : step.state_fields()) {
        out_frames.push_back(&result.final_state.add_field(name));
    }

    const std::size_t level_count = instance.level_depths.size();
    // Suffix halo after each level k (0-based level index; suffix excludes
    // the level itself for its OUTPUT coverage).
    std::vector<Footprint> suffix(level_count + 1);
    suffix[level_count] = Footprint{};
    for (std::size_t k = level_count; k-- > 0;) {
        suffix[k] = compose(repeat(fp, instance.level_depths[k]), suffix[k + 1]);
    }

    // State-field pool indices in declaration order, resolved once (the
    // scatter loop must not do per-origin string lookups).
    std::vector<int> state_field(static_cast<std::size_t>(state_count));
    for (int s = 0; s < state_count; ++s) {
        state_field[static_cast<std::size_t>(s)] =
            step.pool().find_field(step.state_fields()[static_cast<std::size_t>(s)]);
    }

    // Per-level cone execution state, resolved once: the memoized cone, its
    // compiled tape, the domain's lane block (constants prefilled) and the
    // output scatter map (s * w + yy) * w + xx -> producing tape slot. Cone
    // executions below are then allocation-free in both modes.
    std::vector<typename Domain::Level> level_exec(level_count);
    for (std::size_t k = 0; k < level_count; ++k) {
        const Cone& cone = library.cone(w, instance.level_depths[k]);
        typename Domain::Level& le = level_exec[k];
        domain.bind(le, cone);
        const std::vector<std::int32_t>& out_slots = le.tape->output_slots();
        le.scatter.assign(static_cast<std::size_t>(state_count) *
                              static_cast<std::size_t>(w) * static_cast<std::size_t>(w),
                          0);
        for (int s = 0; s < state_count; ++s) {
            for (int yy = 0; yy < w; ++yy) {
                for (int xx = 0; xx < w; ++xx) {
                    le.scatter[(static_cast<std::size_t>(s) * w +
                                static_cast<std::size_t>(yy)) *
                                   w +
                               static_cast<std::size_t>(xx)] =
                        out_slots[static_cast<std::size_t>(cone.output_index(s, xx, yy))];
                }
            }
        }
    }
    // Output coverage of level k (1-based like the architecture module):
    // the output window grown by suffix[k].

    const std::vector<int> tx_origins = flush_origins(frame_w, w);
    const std::vector<int> ty_origins = flush_origins(frame_h, w);

    for (int ty : ty_origins) {
        for (int tx : tx_origins) {
            result.stats.output_windows += 1;

            // --- load the initial coverage from "off-chip" -----------------------
            const Footprint total_halo = suffix[0];
            Window input_region{tx - total_halo.left, ty - total_halo.up,
                                w + total_halo.width_growth(),
                                w + total_halo.height_growth()};
            Region_buffer<Value> current(input_region, fields_total);
            for (int f = 0; f < fields_total; ++f) {
                for (int y = input_region.y0; y < input_region.y0 + input_region.height;
                     ++y) {
                    for (int x = input_region.x0;
                         x < input_region.x0 + input_region.width; ++x) {
                        current.set(f, x, y,
                                    domain.load(*field_frames[static_cast<std::size_t>(f)],
                                                x, y, options.boundary));
                    }
                }
            }
            result.stats.offchip_elements_read +=
                input_region.element_count() * fields_total;

            // --- run the levels deep-first ---------------------------------------
            for (std::size_t k = 0; k < level_count; ++k) {
                typename Domain::Level& le = level_exec[k];
                const Cone& cone = *le.cone;
                const Register_program& program = cone.program();
                const Footprint out_halo = suffix[k + 1];
                Window out_region{tx - out_halo.left, ty - out_halo.up,
                                  w + out_halo.width_growth(),
                                  w + out_halo.height_growth()};
                Region_buffer<Value> next(out_region, fields_total);

                // Constant fields survive level transitions: copy the slice
                // the next levels may still read.
                for (int f = 0; f < fields_total; ++f) {
                    if (step.is_state_index(f)) continue;
                    for (int y = out_region.y0; y < out_region.y0 + out_region.height;
                         ++y) {
                        for (int x = out_region.x0;
                             x < out_region.x0 + out_region.width; ++x) {
                            next.set(f, x, y, current.get(f, x, y));
                        }
                    }
                }

                // Lane-batched cone execution: up to kTapeLane origins of
                // one region row advance together — per port one gather
                // into the lane block, one whole-tape kernel call over the
                // live lanes, per output element one scatter across the
                // lanes. Overlapping flush origins write
                // identical words (every covered output equals the ghost
                // value), so the batched write order matches the scalar
                // path bit for bit.
                const std::vector<int> sub_x = flush_origins(out_region.width, w);
                const std::vector<int> sub_y = flush_origins(out_region.height, w);
                const std::vector<Tape_input>& ports = le.tape->inputs();
                Value* lanes = le.lanes.data();
                for (int oy : sub_y) {
                    const int origin_y = out_region.y0 + oy;
                    for (std::size_t c0 = 0; c0 < sub_x.size(); c0 += kTapeLane) {
                        const int n = static_cast<int>(std::min<std::size_t>(
                            kTapeLane, sub_x.size() - c0));
                        result.stats.onchip_elements_read +=
                            static_cast<long long>(ports.size()) * n;
                        result.stats.cone_executions += n;
                        result.stats.operations_executed +=
                            static_cast<long long>(program.register_count()) * n;

                        for (const Tape_input& port : ports) {
                            Value* dst =
                                lanes + static_cast<std::size_t>(port.slot) * kTapeLane;
                            const int py = origin_y + port.dy;
                            for (int l = 0; l < n; ++l) {
                                dst[l] = domain.wrap_input(
                                    le, current.get(port.field,
                                                    out_region.x0 + sub_x[c0 + l] +
                                                        port.dx,
                                                    py));
                            }
                        }
                        domain.run_ops(le, n);
                        for (int s = 0; s < state_count; ++s) {
                            const int field = state_field[static_cast<std::size_t>(s)];
                            for (int yy = 0; yy < w; ++yy) {
                                const int py = origin_y + yy;
                                for (int xx = 0; xx < w; ++xx) {
                                    const Value* src =
                                        lanes +
                                        static_cast<std::size_t>(
                                            le.scatter[(static_cast<std::size_t>(s) * w +
                                                        static_cast<std::size_t>(yy)) *
                                                           w +
                                                       static_cast<std::size_t>(xx)]) *
                                            kTapeLane;
                                    for (int l = 0; l < n; ++l) {
                                        next.set(field,
                                                 out_region.x0 + sub_x[c0 + l] + xx, py,
                                                 src[l]);
                                    }
                                }
                            }
                        }
                    }
                }
                current = std::move(next);
            }

            // --- write the output window ---------------------------------------------
            for (int s = 0; s < state_count; ++s) {
                const int field = step.pool().find_field(
                    step.state_fields()[static_cast<std::size_t>(s)]);
                for (int yy = 0; yy < w && ty + yy < frame_h; ++yy) {
                    for (int xx = 0; xx < w && tx + xx < frame_w; ++xx) {
                        out_frames[static_cast<std::size_t>(s)]->at(tx + xx, ty + yy) =
                            domain.store(current.get(field, tx + xx, ty + yy));
                    }
                }
            }
            result.stats.offchip_elements_written +=
                static_cast<long long>(std::min(w, frame_w - tx)) *
                std::min(w, frame_h - ty) * state_count;
        }
    }
    return result;
}

}  // namespace

Arch_sim_result simulate_architecture(Cone_library& library,
                                      const Arch_instance& instance,
                                      const Frame_set& initial,
                                      const Arch_sim_options& options) {
    if (options.fixed_point) {
        return simulate_impl(library, instance, initial, options,
                             Fixed_domain(options.format));
    }
    return simulate_impl(library, instance, initial, options, Double_domain{});
}

Streaming_sim_result simulate_streaming_cycles(
    Cone_library& library, const Streaming_config& config, int frame_width,
    int frame_height, const Streaming_sim_options& options) {
    check_internal(config.depth >= 1 && config.vector_width >= 1 &&
                       config.pe_count >= 1 && config.channels >= 1,
                   "malformed streaming config");
    check_internal(frame_width >= 1 && frame_height >= 1 &&
                       options.iterations >= 1 && options.elems_per_cycle > 0.0,
                   "malformed streaming sim options");

    // The PE datapath is the fused depth-`depth` cone over one output column;
    // its levelized depth is the pipeline fill the walk charges per band.
    const Cone_stats& stats = library.stats(1, config.depth);
    const Footprint footprint = library.step().footprint();
    const int halo_up = footprint.up * config.depth;
    const int halo_down = footprint.down * config.depth;

    Streaming_sim_result result;
    result.passes = ceil_div(options.iterations, config.depth);
    const int nominal_band = ceil_div(frame_height, config.pe_count);

    for (int pass = 0; pass < result.passes; ++pass) {
        long long slowest_band = 0;
        long long elements_read = 0;
        for (int band = 0; band < config.pe_count; ++band) {
            const int row_start = band * nominal_band;
            const int row_end = std::min(frame_height, row_start + nominal_band);
            if (row_start >= row_end) continue;
            // Halos clamp exactly at the frame boundary — edge bands stream
            // fewer extra rows than interior ones.
            const int halo_above = std::min(row_start, halo_up);
            const int halo_below = std::min(frame_height - row_end, halo_down);
            const int streamed_rows = (row_end - row_start) + halo_above + halo_below;
            // Each row enters the PE in vector groups, one group per cycle;
            // the band drains after the pipeline fill.
            long long band_cycles = 0;
            for (int row = 0; row < streamed_rows; ++row) {
                band_cycles += ceil_div(frame_width, config.vector_width);
            }
            band_cycles += stats.pipeline_depth;
            slowest_band = std::max(slowest_band, band_cycles);
            elements_read += static_cast<long long>(streamed_rows) * frame_width *
                             options.fields_in;
            result.stats.cone_executions +=
                static_cast<long long>(streamed_rows) *
                ceil_div(frame_width, config.vector_width);
        }
        const long long elements_written =
            static_cast<long long>(frame_height) * frame_width * options.fields_out;
        const long long transfer_cycles = static_cast<long long>(
            std::ceil(static_cast<double>(elements_read + elements_written) /
                      options.elems_per_cycle));
        result.compute_cycles += slowest_band;
        result.memory_cycles += transfer_cycles;
        result.total_cycles += std::max(slowest_band, transfer_cycles);
        result.stats.offchip_elements_read += elements_read;
        result.stats.offchip_elements_written += elements_written;
        result.stats.output_windows += 1;
    }
    result.stats.operations_executed =
        result.stats.cone_executions *
        static_cast<long long>(stats.register_count) * config.vector_width;
    return result;
}

}  // namespace islhls
