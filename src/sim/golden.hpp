// Golden reference execution of ISL algorithms.
//
// Two semantics exist and tests use both:
//   - run_step_ir / run_ir: apply one step over the frame, resolving
//     out-of-range reads with the boundary policy *at every iteration* (what
//     a software implementation does);
//   - ghost semantics (run_ghost_ir): extend the initial frame once by the
//     total halo, then iterate without further boundary involvement. This is
//     what the cone architecture computes (every intermediate value derives
//     from the initial window), so the architecture simulator is compared
//     against the ghost golden — and the two goldens agree on the interior.
//
// Every golden here runs the frame engine (sim/exec_engine.hpp). Its
// per-pixel reference sweeps are test oracles (oracle/reference.hpp).
#pragma once

#include "grid/frame_set.hpp"
#include "sim/exec_engine.hpp"
#include "symexec/stencil_step.hpp"

namespace islhls {

// One step, evaluating the stencil's extracted IR at every point. This is
// also the reference for user kernels that have no native implementation.
// Executed by the compiled scanline engine (sim/exec_engine.hpp).
Frame_set run_step_ir(const Stencil_step& step, const Frame_set& current, Boundary b);

// `iterations` IR steps with per-iteration boundary resolution through the
// compiled engine. The options control the thread fan-out and the temporal
// tile depth (sim/exec_engine.hpp); every combination yields byte-identical
// frames. The threads-only overload keeps tile_iterations in auto mode, so
// large-frame callers inherit temporal tiling transparently.
Frame_set run_ir(const Stencil_step& step, const Frame_set& initial, int iterations,
                 Boundary b, const Exec_options& options);
Frame_set run_ir(const Stencil_step& step, const Frame_set& initial, int iterations,
                 Boundary b, int threads = 1);

// Fixed-point overload: quantizes `initial` once and iterates the integer
// row engine under `format`, returning the raw Qm.f words of every field
// (sim/exec_engine.hpp). Byte-identical to run_ir_fixed_reference for every
// boundary, thread count and tile depth — this is the whole-frame
// fixed-point golden the DSE's fixed-mode validation compares against.
Fixed_frame_result run_ir(const Stencil_step& step, const Frame_set& initial,
                          int iterations, Boundary b, const Fixed_format& format,
                          const Exec_options& options = {});

// Per-pixel reference sweeps of the interpreters in oracle/reference.hpp,
// declared here because the repository benchmark reaches them through this
// header. They are defined in the islhls_oracles library (src/oracle/), so
// a product target that calls one fails to link. run_ir_reference
// interprets the step program per pixel (field lookups by name, a
// boundary-resolved sample per read, a trace-allocating run_trace per
// element), independent of the compiled tape. run_ir_fixed_reference
// quantizes `initial` once (Raw_quantizer semantics), then advances raw
// words through run_fixed_raw at every pixel with boundary-resolved gathers
// (raw 0 backs Boundary::zero); iterations <= 0 returns the quantized
// initial frames.
Frame_set run_ir_reference(const Stencil_step& step, const Frame_set& initial,
                           int iterations, Boundary b);
Fixed_frame_result run_ir_fixed_reference(const Stencil_step& step,
                                          const Frame_set& initial, int iterations,
                                          Boundary b, const Fixed_format& format);

// Pads `frame` by the margins, filling the apron via the boundary policy.
Frame pad_frame(const Frame& frame, int left, int right, int up, int down, Boundary b);

// Removes the apron again.
Frame crop_frame(const Frame& frame, int left, int right, int up, int down);

// Ghost-zone golden using the extracted IR step. The options overload
// forwards the engine knobs (thread fan-out / shared pool / tiling) to the
// padded run; DSE validation sweeps use it to route many golden checks
// through one shared Thread_pool.
Frame_set run_ghost_ir(const Stencil_step& step, const Frame_set& initial,
                       int iterations, Boundary b, const Exec_options& options);
Frame_set run_ghost_ir(const Stencil_step& step, const Frame_set& initial,
                       int iterations, Boundary b);

// Fixed-point ghost golden: pads the initial frames by the N-iteration halo
// (boundary applied once, in the double domain — exactly the off-chip
// coverage the cone architecture loads), quantizes, iterates the integer row
// engine, and crops the apron off the raw words again. The architecture
// simulator's fixed mode must reproduce these raw words exactly.
Fixed_frame_result run_ghost_ir(const Stencil_step& step, const Frame_set& initial,
                                int iterations, Boundary b, const Fixed_format& format,
                                const Exec_options& options = {});

}  // namespace islhls
