#include "sim/arch_sim.hpp"

#include <algorithm>
#include <array>
#include <type_traits>

#include "ir/compiled.hpp"
#include "sim/tape_lanes.hpp"
#include "support/error.hpp"

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
// element type, the tape and the off-chip conversions differ. Cone
// execution is lane-blocked in both domains: up to kTapeLane cone origins of
// one region advance together through the shared per-ISA lane kernels
// (sim/tape_lanes.hpp), one whole-tape call per lane block — there is no
// per-origin scalar gather/execute/scatter loop. The kernels match the
// scalar references case for case (apply_op / apply_op_fixed), so the
// batched path is exact against run_ghost_ir: 0 LSB in the fixed domain,
// 0.0 max abs error in the double domain.

// IEEE doubles over the compiled tape.
struct Double_domain {
    using Tape = Compiled_program;
    double load(const Frame& f, int x, int y, Boundary b) const {
        return f.sample(x, y, b);
    }
    double store(double v) const { return v; }
};

// Raw Qm.f words over the integer-lowered tape, byte-identical to the
// run_fixed_raw reference interpreter (oracle/reference.hpp). The off-chip load quantizes every
// element exactly once (saturating into the format's range); levels hand
// raw words to each other directly, matching the fixed frame engine word
// for word. Every region word is thus a quantized load or an op result,
// both already wrapped, so the gather needs no re-wrap.
struct Fixed_domain {
    using Tape = Fixed_tape;
    Fixed_format format;
    Raw_quantizer quantize;

    explicit Fixed_domain(const Fixed_format& fmt) : format(fmt), quantize(fmt) {}

    std::int64_t load(const Frame& f, int x, int y, Boundary b) const {
        return quantize(f.sample(x, y, b));
    }
    double store(std::int64_t v) const { return from_raw(v, format); }
};

// Per-level cone execution state, resolved once: the memoized cone, the
// tape it runs (the cone's compiled program in the double domain, its
// integer lowering at the run's format in the fixed domain), the lane
// block (constants prefilled) and the output scatter map
// (s * w + yy) * w + xx -> producing tape slot, so the scatter loop never
// calls output_index. Cone executions are then allocation-free.
template <class Tape>
struct Level {
    using Held = std::conditional_t<std::is_same_v<Tape, Fixed_tape>, Fixed_tape,
                                    const Compiled_program&>;

    Level(const Cone& c, const Fixed_format& format)
        : cone(&c), tape(lower(c.tape(), format)), block(tape) {}

    static Held lower(const Compiled_program& cp,
                      [[maybe_unused]] const Fixed_format& format) {
        if constexpr (std::is_same_v<Tape, Fixed_tape>) {
            return Fixed_tape(cp, format);
        } else {
            return cp;
        }
    }

    const Cone* cone;
    Held tape;
    Lane_block<Tape> block;
    std::vector<std::int32_t> scatter;
};

template <class Domain>
Arch_sim_result simulate_impl(Cone_library& library, const Arch_instance& instance,
                              const Frame_set& initial, const Arch_sim_options& options,
                              const Domain& domain) {
    using Tape = typename Domain::Tape;
    using Value = Lane_word<Tape>;
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

    std::vector<Level<Tape>> level_exec;
    level_exec.reserve(level_count);
    for (std::size_t k = 0; k < level_count; ++k) {
        const Cone& cone = library.cone(w, instance.level_depths[k]);
        Level<Tape>& le = level_exec.emplace_back(cone, options.format);
        const std::vector<std::int32_t>& out_slots =
            cone.tape().output_slots();
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
                Level<Tape>& le = level_exec[k];
                const Compiled_program& cone_tape = le.cone->tape();
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

                // Lane-batched cone execution: the flush origins of the
                // whole region, row-major, advance up to kTapeLane at a
                // time — per port one gather into the lane block, one
                // whole-tape kernel call over the live lanes, per output
                // element one scatter across the lanes. Overlapping flush
                // origins write identical words (every covered output
                // equals the ghost value), so the batched write order
                // matches the scalar path bit for bit.
                const std::vector<int> sub_x = flush_origins(out_region.width, w);
                const std::vector<int> sub_y = flush_origins(out_region.height, w);
                const std::size_t origins = sub_x.size() * sub_y.size();
                const std::vector<Tape_input>& ports = cone_tape.inputs();
                Value** slot = le.block.slot();
                std::array<int, kTapeLane> lane_x{};
                std::array<int, kTapeLane> lane_y{};
                for (std::size_t c0 = 0; c0 < origins; c0 += kTapeLane) {
                    const int n =
                        static_cast<int>(std::min<std::size_t>(kTapeLane, origins - c0));
                    for (int l = 0; l < n; ++l) {
                        const std::size_t o = c0 + static_cast<std::size_t>(l);
                        lane_x[static_cast<std::size_t>(l)] =
                            out_region.x0 + sub_x[o % sub_x.size()];
                        lane_y[static_cast<std::size_t>(l)] =
                            out_region.y0 + sub_y[o / sub_x.size()];
                    }
                    result.stats.onchip_elements_read +=
                        static_cast<long long>(ports.size()) * n;
                    result.stats.cone_executions += n;
                    result.stats.operations_executed +=
                        static_cast<long long>(cone_tape.ops().size()) * n;

                    for (const Tape_input& port : ports) {
                        Value* dst = slot[port.slot];
                        for (int l = 0; l < n; ++l) {
                            dst[l] = current.get(port.field,
                                                 lane_x[static_cast<std::size_t>(l)] + port.dx,
                                                 lane_y[static_cast<std::size_t>(l)] + port.dy);
                        }
                    }
                    run_tape(le.tape, slot, n);
                    for (int s = 0; s < state_count; ++s) {
                        const int field = state_field[static_cast<std::size_t>(s)];
                        for (int yy = 0; yy < w; ++yy) {
                            for (int xx = 0; xx < w; ++xx) {
                                const Value* src =
                                    slot[le.scatter[(static_cast<std::size_t>(s) * w +
                                                     static_cast<std::size_t>(yy)) *
                                                        w +
                                                    static_cast<std::size_t>(xx)]];
                                for (int l = 0; l < n; ++l) {
                                    next.set(field, lane_x[static_cast<std::size_t>(l)] + xx,
                                             lane_y[static_cast<std::size_t>(l)] + yy, src[l]);
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

}  // namespace islhls
