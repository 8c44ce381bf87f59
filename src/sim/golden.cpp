#include "sim/golden.hpp"

#include "sim/exec_engine.hpp"
#include "support/error.hpp"

namespace islhls {

Frame_set run_step_ir(const Stencil_step& step, const Frame_set& current, Boundary b) {
    return Exec_engine(step).run(current, 1, b);
}

Frame_set run_ir(const Stencil_step& step, const Frame_set& initial, int iterations,
                 Boundary b, const Exec_options& options) {
    if (iterations <= 0) return initial;
    return Exec_engine(step).run(initial, iterations, b, options);
}

Frame_set run_ir(const Stencil_step& step, const Frame_set& initial, int iterations,
                 Boundary b, int threads) {
    // tile_iterations 0 = auto: callers of the legacy signature get temporal
    // tiling whenever the frame outgrows the cache budget (results are
    // byte-identical either way).
    return run_ir(step, initial, iterations, b, Exec_options{threads, 0, 0});
}

Fixed_frame_result run_ir(const Stencil_step& step, const Frame_set& initial,
                          int iterations, Boundary b, const Fixed_format& format,
                          const Exec_options& options) {
    return Exec_engine(step).run_fixed(initial, iterations, b, format, options);
}

Frame pad_frame(const Frame& frame, int left, int right, int up, int down, Boundary b) {
    Frame padded(frame.width() + left + right, frame.height() + up + down);
    for (int y = 0; y < padded.height(); ++y) {
        for (int x = 0; x < padded.width(); ++x) {
            padded.at(x, y) = frame.sample(x - left, y - up, b);
        }
    }
    return padded;
}

Frame crop_frame(const Frame& frame, int left, int right, int up, int down) {
    check_internal(frame.width() > left + right && frame.height() > up + down,
                   "crop_frame margins exceed frame");
    Frame cropped(frame.width() - left - right, frame.height() - up - down);
    for (int y = 0; y < cropped.height(); ++y) {
        for (int x = 0; x < cropped.width(); ++x) {
            cropped.at(x, y) = frame.at(x + left, y + up);
        }
    }
    return cropped;
}

namespace {

// Pads every field of the set by the N-iteration halo. Positional iteration
// plus interned-id insertion: no per-field name scan.
Frame_set pad_set(const Frame_set& fs, const Footprint& halo, Boundary b) {
    Frame_set padded(fs.width() + halo.width_growth(), fs.height() + halo.height_growth());
    for (std::size_t i = 0; i < fs.field_count(); ++i) {
        padded.add_field(fs.id_at(i), pad_frame(fs.frame_at(i), halo.left, halo.right,
                                                halo.up, halo.down, b));
    }
    return padded;
}

Frame_set crop_set(const Frame_set& fs, const Footprint& halo,
                   const std::vector<std::string>& keep) {
    Frame_set cropped(fs.width() - halo.width_growth(),
                      fs.height() - halo.height_growth());
    for (const std::string& name : keep) {
        const Field_id id = intern_field(name);
        cropped.add_field(id, crop_frame(fs.field(id), halo.left, halo.right,
                                         halo.up, halo.down));
    }
    return cropped;
}

}  // namespace

Frame_set run_ghost_ir(const Stencil_step& step, const Frame_set& initial,
                       int iterations, Boundary b, const Exec_options& options) {
    const Footprint halo = repeat(step.footprint(), iterations);
    Frame_set padded = pad_set(initial, halo, b);
    padded = run_ir(step, padded, iterations, b, options);
    std::vector<std::string> keep = step.state_fields();
    for (const std::string& c : step.const_fields()) keep.push_back(c);
    return crop_set(padded, halo, keep);
}

Frame_set run_ghost_ir(const Stencil_step& step, const Frame_set& initial,
                       int iterations, Boundary b) {
    // Auto tiling, serial — matching the legacy run_ir signature.
    return run_ghost_ir(step, initial, iterations, b, Exec_options{1, 0, 0});
}

Fixed_frame_result run_ghost_ir(const Stencil_step& step, const Frame_set& initial,
                                int iterations, Boundary b, const Fixed_format& format,
                                const Exec_options& options) {
    const Footprint halo = repeat(step.footprint(), iterations);
    const Frame_set padded = pad_set(initial, halo, b);
    Fixed_frame_result run =
        Exec_engine(step).run_fixed(padded, iterations, b, format, options);
    // Crop the apron off the raw words (the raw-domain twin of crop_set).
    Fixed_frame_result cropped;
    cropped.width = run.width - halo.width_growth();
    cropped.height = run.height - halo.height_growth();
    cropped.format = run.format;
    cropped.names = run.names;
    cropped.raw.reserve(run.raw.size());
    for (const std::vector<std::int64_t>& field : run.raw) {
        std::vector<std::int64_t> inner(static_cast<std::size_t>(cropped.width) *
                                        static_cast<std::size_t>(cropped.height));
        for (int y = 0; y < cropped.height; ++y) {
            const std::int64_t* src =
                field.data() +
                static_cast<std::size_t>(y + halo.up) * run.width + halo.left;
            std::copy(src, src + cropped.width,
                      inner.begin() + static_cast<std::size_t>(y) * cropped.width);
        }
        cropped.raw.push_back(std::move(inner));
    }
    return cropped;
}

}  // namespace islhls
