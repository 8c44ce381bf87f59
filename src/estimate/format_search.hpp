// Automatic fixed-point format selection.
//
// The paper fixes the hardware number format by hand; this extension picks
// the narrowest Qm.f automatically for a given accuracy target:
//   1. run the cone in double over sample windows, recording the dynamic
//      range of every intermediate register — that fixes the integer bits
//      (plus one guard bit against rounding growth);
//   2. grow the fraction bits until the bit-accurate fixed-point execution
//      reaches the requested PSNR against the double reference (or matches
//      it exactly — exactness is modelled as an explicit flag, never as a
//      sentinel decibel value; integer-native kernels accept on exactness
//      alone and skip PSNR pruning entirely);
//   3. shrink the integer bits back below the range-derived floor while the
//      raw fixed-point outputs stay byte-identical to the accepted format —
//      kernels whose intermediates stay tiny (chambolle's duals) drop below
//      the conservative sign+magnitude+guard estimate for free, because a
//      narrower wrap that never fires cannot change a single output word.
// Narrower formats mean cheaper operators everywhere in the cost model, so
// this directly trades accuracy against area.
//
// Every candidate format is evaluated in ONE batched pass over all sample
// windows through the integer-lowered tape (Fixed_exec): inputs are
// quantized into a flat raw buffer and advance kTapeLane samples per tape
// operation out of one reusable scratch buffer — no per-sample interpreter
// run, no per-sample allocation. The PSNR fold sums the squared error per
// fixed sample range (the decomposition depends only on the sample count)
// and combines the partials in range order, so the selected format,
// achieved PSNR and formats_tried are deterministic bit for bit. Callers
// fan whole searches across cells instead (Explorer::search_formats).
#pragma once

#include "backend/fixed_point.hpp"
#include "cone/cone.hpp"
#include "grid/frame_set.hpp"

namespace islhls {

struct Format_search_options {
    double target_psnr_db = 50.0;  // accuracy target vs the double reference
    double peak_value = 255.0;     // PSNR peak (data range)
    int sample_windows = 32;       // evaluation positions per frame
    int max_total_bits = 32;       // do not search beyond this width
    std::uint64_t seed = 99;       // window sampling
    // Phase-3 integer-bit shrink below the range-derived floor (raw outputs
    // must stay byte-identical per shrunk candidate). Off reproduces the
    // plain two-phase search.
    bool shrink_integer_bits = true;
};

struct Format_search_result {
    Fixed_format format;       // the chosen (narrowest passing) format
    // Achieved accuracy at that format. Meaningless (0.0) when `exact` —
    // an exact match has no finite PSNR and is reported via the flag, not a
    // sentinel decibel value.
    double psnr_db = 0.0;
    // The fixed-point outputs reproduce the double reference bit-for-bit at
    // the chosen format (mse == 0 over every sample window).
    bool exact = false;
    double max_abs_value = 0.0;  // observed intermediate dynamic range
    // Range-derived integer-bit floor (sign + magnitude + guard) before the
    // shrink phase; format.integer_bits <= range_integer_bits always, and
    // strictly less when the shrink phase fired.
    int range_integer_bits = 0;
    int formats_tried = 0;     // counts shrink candidates too
    bool satisfiable = true;   // false when max_total_bits is insufficient
};

// Searches the format for `cone` with inputs drawn from `content` (boundary
// policy applied at the frame border).
Format_search_result search_fixed_format(const Cone& cone, const Frame_set& content,
                                         Boundary boundary,
                                         const Format_search_options& options = {});

}  // namespace islhls
