#include "estimate/format_search.hpp"

#include <algorithm>
#include <cmath>

#include "sim/fixed_exec.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace islhls {

Format_search_result search_fixed_format(const Cone& cone, const Frame_set& content,
                                         Boundary boundary,
                                         const Format_search_options& options) {
    check_internal(options.sample_windows >= 1, "need at least one sample window");
    const Register_program& program = cone.program();
    const Stencil_step& step = cone.step();

    // Sample window origins across the frame.
    Prng rng(options.seed);
    std::vector<std::pair<int, int>> origins;
    for (int i = 0; i < options.sample_windows; ++i) {
        origins.push_back({rng.next_int(0, std::max(0, content.width() - 1)),
                           rng.next_int(0, std::max(0, content.height() - 1))});
    }

    // Gather the per-origin inputs (flat, row-major samples x ports) and the
    // double reference. One batched trace per origin (into a reused buffer)
    // serves both the range analysis and the reference outputs — no second
    // execution, no per-origin trace allocation.
    const std::size_t samples = origins.size();
    const std::size_t in_count = program.input_ports().size();
    const std::size_t out_count = program.outputs().size();
    std::vector<double> flat_inputs(samples * in_count);
    std::vector<double> references(samples * out_count);
    std::vector<double> inputs(in_count);
    std::vector<double> trace;
    double max_abs = 0.0;
    for (std::size_t s = 0; s < samples; ++s) {
        const auto [ox, oy] = origins[s];
        for (std::size_t p = 0; p < in_count; ++p) {
            const auto& port = program.input_ports()[p];
            const Frame& f = content.field(step.pool().field_name(port.field));
            inputs[p] = f.sample(ox + port.dx, oy + port.dy, boundary);
        }
        // Range analysis over every intermediate register.
        program.run_trace_into(inputs, trace);
        for (double v : trace) {
            max_abs = std::max(max_abs, std::fabs(v));
        }
        std::copy(inputs.begin(), inputs.end(), flat_inputs.begin() + s * in_count);
        for (std::size_t o = 0; o < out_count; ++o) {
            references[s * out_count + o] =
                trace[static_cast<std::size_t>(program.outputs()[o])];
        }
    }

    Format_search_result result;
    result.max_abs_value = max_abs;
    // Integer bits: sign + magnitude + one guard bit for rounding growth.
    // This is a conservative floor — phase 3 below may shrink under it when
    // the observed computation never exercises the head bits.
    const int integer_bits =
        2 + static_cast<int>(std::ceil(std::log2(std::max(1.0, max_abs))));
    result.range_integer_bits = integer_bits;

    // One batched tape pass per candidate format: quantize the flat inputs,
    // run every sample window through the integer-lowered tape, and fold the
    // squared error range by range. The ranges are a function of the sample
    // count alone (at most kFoldRanges, never smaller than one kTapeLane
    // block so the batch executor's lane passes stay full); each range sums
    // its samples in sample order and the partial sums combine in range
    // order, which fixes the PSNR bit for bit. One lane buffer serves every
    // range and format.
    constexpr std::size_t kFoldRanges = 16;
    const std::size_t lane = static_cast<std::size_t>(kTapeLane);
    const std::size_t ranges = std::max<std::size_t>(
        1, std::min(kFoldRanges, (samples + lane - 1) / lane));
    Fixed_exec::Scratch scratch;
    std::vector<std::int64_t> raw_inputs(samples * in_count);
    std::vector<std::int64_t> raw_outputs(samples * out_count);

    // Accuracy of one candidate: either exact (mse == 0, no finite PSNR) or
    // a real decibel number — never a sentinel. `raw_outputs` holds the
    // candidate's output words after the call, which is what the shrink
    // phase compares against.
    struct Accuracy {
        bool exact = false;
        double psnr_db = 0.0;
    };
    auto measure = [&](const Fixed_format& fmt) -> Accuracy {
        const Fixed_exec exec(program, fmt);
        const Raw_quantizer quantize(fmt);
        double se = 0.0;
        for (std::size_t j = 0; j < ranges; ++j) {
            const std::size_t s0 = j * samples / ranges;
            const std::size_t s1 = (j + 1) * samples / ranges;
            for (std::size_t k = s0 * in_count; k < s1 * in_count; ++k) {
                raw_inputs[k] = quantize(flat_inputs[k]);
            }
            exec.run_raw_batch(raw_inputs.data() + s0 * in_count, s1 - s0,
                               raw_outputs.data() + s0 * out_count, scratch);
            double partial = 0.0;
            for (std::size_t k = s0 * out_count; k < s1 * out_count; ++k) {
                const double d = from_raw(raw_outputs[k], fmt) - references[k];
                partial += d * d;
            }
            se += partial;
        }
        const double mse = se / static_cast<double>(samples * out_count);
        if (mse == 0.0) return {true, 0.0};
        return {false,
                10.0 * std::log10(options.peak_value * options.peak_value / mse)};
    };
    // Integer-native programs compute exact whole numbers: a near-miss PSNR
    // is as wrong as a distant one, so they accept on exactness alone.
    auto accepts = [&](const Accuracy& acc) {
        if (step.integer_native()) return acc.exact;
        return acc.exact || acc.psnr_db >= options.target_psnr_db;
    };

    // Phase 3: walk the integer bits down below the range-derived floor
    // while every output word of the batch stays byte-identical to the
    // accepted format (same fraction bits, so the raw words are directly
    // comparable; a wrap or input saturation that fires shows up as a
    // differing word and stops the walk).
    auto shrink = [&]() {
        if (!options.shrink_integer_bits) return;
        const std::vector<std::int64_t> accepted = raw_outputs;
        const int frac = result.format.frac_bits;
        for (int m = result.format.integer_bits - 1; m >= 1 && m + frac >= 2; --m) {
            result.formats_tried += 1;
            measure(Fixed_format{m, frac});
            if (raw_outputs != accepted) break;
            result.format.integer_bits = m;
        }
    };

    // Integer-native programs start the candidate ladder at zero fractional
    // bits — a Q m.0 format already reproduces the whole-number reference.
    const int first_frac = step.integer_native() ? 0 : 1;
    for (int frac = first_frac; integer_bits + frac <= options.max_total_bits; ++frac) {
        const Fixed_format fmt{integer_bits, frac};
        result.formats_tried += 1;
        const Accuracy acc = measure(fmt);
        result.format = fmt;
        result.psnr_db = acc.psnr_db;
        result.exact = acc.exact;
        if (accepts(acc)) {
            shrink();
            return result;
        }
    }
    result.satisfiable = false;
    return result;
}

}  // namespace islhls
