#include "estimate/format_search.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "sim/fixed_exec.hpp"
#include "sim/tape_lanes.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace islhls {

Format_search_result search_fixed_format(const Cone& cone, const Frame_set& content,
                                         Boundary boundary,
                                         const Format_search_options& options) {
    check_internal(options.sample_windows >= 1, "need at least one sample window");
    const Stencil_step& step = cone.step();

    // Sample window origins across the frame.
    Prng rng(options.seed);
    std::vector<std::pair<int, int>> origins;
    for (int i = 0; i < options.sample_windows; ++i) {
        origins.push_back({rng.next_int(0, std::max(0, content.width() - 1)),
                           rng.next_int(0, std::max(0, content.height() - 1))});
    }

    // One double lane walk over the sample windows serves the range
    // analysis and the reference outputs. Inputs go into their lanes and
    // into the flat, row-major [samples][ports] buffer the fixed candidates
    // quantize; the outputs are read off their pinned slots after the walk.
    const Compiled_program& cp = cone.tape();
    const std::vector<Tape_input>& ins = cp.inputs();
    const std::vector<std::int32_t>& out_slots = cp.output_slots();
    const std::size_t samples = origins.size();
    const std::size_t in_count = ins.size();
    const std::size_t out_count = out_slots.size();
    const std::size_t stride = lane_stride(samples);
    std::vector<double> flat_inputs(samples * in_count);
    std::vector<double> references(samples * out_count);
    double max_abs = 0.0;
    {
        // Scoped so the double block is freed before the fixed candidates
        // allocate theirs.
        Lane_block<Compiled_program> block(cp, stride);
        double** slot = block.slot();
        std::vector<const Frame*> frames(in_count);
        for (std::size_t i = 0; i < in_count; ++i) {
            frames[i] = &content.field(step.pool().field_name(ins[i].field));
        }
        // max |v| over every value of every sample: every input as it is
        // gathered, every constant once, every op result as the walk
        // produces it (run_tape's range form), since the allocated tape
        // reuses op slots and a fold after the walk would see only the
        // values still live. Each fold is the running max
        // m = m < |v| ? |v| : m, lane-wise, then across lanes. That equals
        // the sequential std::max(max_abs, |v|) over every SSA value of
        // every sample: both forms skip NaN (a comparison with NaN is
        // false, so the running value is kept), fabs makes every other
        // value >= +0, and the max of such a set does not depend on the
        // visiting order. There is at least one sample, so the constants
        // count once as they would in every lane.
        const auto fold = [](double& m, double v) {
            const double f = std::fabs(v);
            m = m < f ? f : m;
        };
        for (const Tape_constant& k : cp.constants()) fold(max_abs, k.value);
        std::array<double, kTapeLane> lane_max{};
        for (std::size_t s0 = 0; s0 < samples; s0 += stride) {
            const std::size_t n = std::min(stride, samples - s0);
            for (std::size_t i = 0; i < in_count; ++i) {
                const Tape_input& in = ins[i];
                double* dst = slot[in.slot];
                for (std::size_t l = 0; l < n; ++l) {
                    const auto [ox, oy] = origins[s0 + l];
                    dst[l] = frames[i]->sample(ox + in.dx, oy + in.dy, boundary);
                    flat_inputs[(s0 + l) * in_count + i] = dst[l];
                    fold(lane_max[l], dst[l]);
                }
            }
            run_tape(cp, slot, static_cast<int>(n), lane_max.data());
            for (std::size_t o = 0; o < out_count; ++o) {
                const double* src = slot[out_slots[o]];
                for (std::size_t l = 0; l < n; ++l) {
                    references[(s0 + l) * out_count + o] = src[l];
                }
            }
        }
        for (const double m : lane_max) fold(max_abs, m);
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
    // count alone (at most kFoldRanges, and at most one per kTapeLane
    // samples); each range sums its samples in sample order and the partial
    // sums combine in range order, which fixes the PSNR bit for bit. One
    // lane buffer serves every range and format.
    constexpr std::size_t kFoldRanges = 16;
    const std::size_t lane = static_cast<std::size_t>(kTapeLane);
    const std::size_t ranges = std::max<std::size_t>(
        1, std::min(kFoldRanges, (samples + lane - 1) / lane));
    Lane_block<Fixed_tape> block;
    std::vector<std::int64_t> raw_inputs(samples * in_count);
    std::vector<std::int64_t> raw_outputs(samples * out_count);

    // Accuracy of one candidate: either exact (mse == 0, no finite PSNR) or
    // a real decibel number — never a sentinel. `raw_outputs` holds the
    // candidate's output words after the call, which is what the shrink
    // phase compares against.
    //
    // NaN rule: a NaN reference (sqrt of a negative, 0/0 in the double
    // program) propagates through the fold, so mse and psnr_db are NaN:
    // never exact, never accepted, and the search ends unsatisfiable. The
    // range analysis skips NaN (above). Records keep doubles as raw bits,
    // so the NaN's sign matters: it is the one the double tape produced
    // (IEEE leaves it open only where NaNs of both signs meet in one op).
    struct Accuracy {
        bool exact = false;
        double psnr_db = 0.0;
    };
    auto measure = [&](const Fixed_format& fmt) -> Accuracy {
        const Fixed_tape tape(cp, fmt);
        const Raw_quantizer quantize(fmt);
        // from_raw's divisor, resolved once: the same division, without a
        // per-word ldexp.
        const double scale = fmt.scale();
        double se = 0.0;
        for (std::size_t j = 0; j < ranges; ++j) {
            const std::size_t s0 = j * samples / ranges;
            const std::size_t s1 = (j + 1) * samples / ranges;
            for (std::size_t k = s0 * in_count; k < s1 * in_count; ++k) {
                raw_inputs[k] = quantize(flat_inputs[k]);
            }
            run_raw_batch(tape, raw_inputs.data() + s0 * in_count, s1 - s0,
                          raw_outputs.data() + s0 * out_count, block);
            double partial = 0.0;
            for (std::size_t k = s0 * out_count; k < s1 * out_count; ++k) {
                const double d = static_cast<double>(raw_outputs[k]) / scale - references[k];
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
