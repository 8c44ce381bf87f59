// Vectorized, allocation-free execution engine for stencil steps.
//
// The reference sweep run_ir_reference (oracle/reference.hpp, a test oracle
// outside the product library) interprets the step program per pixel: for
// every element it looks fields up by name, resolves every read through the
// boundary policy, and heap-allocates a full instruction trace. This engine
// executes the scanline-compiled tape (ir/compiled.hpp) structure-of-arrays
// over whole frame rows instead:
//
//   - field base pointers and strides are resolved once per step, not once
//     per pixel;
//   - the interior of each row (where no read crosses the frame edge) runs
//     with unclamped pointer arithmetic in kTapeLane-wide lane blocks: the
//     tape's input operands are read in place from the frame rows, and the
//     whole tape over one block is one call into the shared per-ISA lane
//     kernels (sim/tape_lanes.hpp), the same kernels the format-search
//     batch executor and the architecture simulator use;
//   - the border columns run through the same lane kernels: they are
//     packed into lane blocks whose input lanes are gathered through the
//     Boundary policy, so edge cells take the interior's datapath and only
//     their reads are redirected;
//   - per-thread lane blocks are reused across rows and iterations (no
//     allocation inside the pixel loop), and iteration double-buffers two
//     frame sets instead of copy-constructing one per timestep.
//
// Temporal tiling (Exec_options::tile_iterations > 1) additionally fuses T
// iterations into one sweep over row bands, a la combined spatial/temporal
// blocking on FPGAs (Zohouri et al.): each band carries its rows through all
// T fused steps in a pair of small band buffers before moving on, so a large
// frame crosses memory once per T iterations instead of once per iteration.
// Band edges grow trapezoidally — level k of a band recomputes the halo rows
// level k+1 needs, sized from the per-field read extents the compiled tape
// records — and every row at every level is computed by exactly the same
// row code as the untiled sweep (interior and border lane blocks),
// so the result is byte-identical to the double-buffered path for every
// boundary mode, tile depth, band height and thread count. Under
// Boundary::periodic the interim levels of a band keep UNCLAMPED row
// intervals: a band touching a frame edge carries a wrapped halo — its
// buffer rows extend past the frame edge and hold the opposite edge's
// content (on a torus, row r and row r mod h are the same row at every
// fused level), reads between interim levels index the band buffer
// directly, and only level-1 reads resolve against the frame. Band buffers
// therefore stay band-sized at every boundary mode instead of widening to
// the whole frame at the edges, and auto tiling applies to toroidal runs
// too.
//
// The auto-tiling heuristics (tile depth, band height) are sized from the
// probed cache topology (support/cache_info.hpp); Exec_options::budgets
// pins them for deterministic cross-host behavior.
// Budgets only steer the schedule, never the values: every budget choice is
// byte-identical.
//
// Work (row blocks untiled, whole bands tiled) is fanned across a
// support/parallel.hpp Thread_pool; every row is computed identically
// regardless of the schedule, so results are byte-identical to a serial run
// at any thread count (the same determinism contract the DSE engine holds).
//
// The engine runs in two value domains over the SAME row machinery: one
// implementation templated on the tape type, whose per-thread Lane_block
// (sim/tape_lanes.hpp) lays out and binds the lanes and whose every cell
// goes through run_tape, so the paths cannot diverge structurally:
//
//   - double (run): the Compiled_program's IEEE semantics, the classic
//     golden engine;
//   - fixed point (run_fixed): the program is lowered once per run into a
//     Fixed_tape (ir/compiled.hpp), which carries its format's operator
//     parameters, and executed over raw int64 Qm.f row buffers — the
//     initial frames are quantized once and every iteration reads and
//     writes raw words (no per-level re-quantization). The raw words are
//     memcmp-identical to the per-pixel run_fixed_raw sweep
//     run_ir_fixed_reference (oracle/reference.hpp) for every kernel,
//     boundary, format, thread count and tile depth.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "grid/frame_set.hpp"
#include "ir/compiled.hpp"
#include "symexec/stencil_step.hpp"

namespace islhls {

class Thread_pool;

// Cache budgets steering the auto-tiling heuristics. Zero fields resolve
// from the probed cache topology (support/cache_info.hpp): tile_bytes from
// the last-level cache, band_bytes from a quarter of it. When probing fails
// the fallbacks reproduce the engine's historical fixed budgets (32 MiB /
// 8 MiB). Budgets only pick the schedule — results are byte-identical at
// every setting — so tests pin them to make auto decisions deterministic
// across hosts.
struct Exec_budgets {
    std::size_t tile_bytes = 0;   // working set above which auto mode tiles
    std::size_t band_bytes = 0;   // target working set of one band
};

// Execution knobs. The defaults reproduce the classic engine behavior
// (serial, one full-frame sweep per iteration). The positional constructor
// serves brace call sites that set (threads, depth[, band_rows[, pool]])
// without partial-aggregate warnings.
struct Exec_options {
    Exec_options() = default;
    Exec_options(int threads_, int tile_iterations_, int band_rows_ = 0,
                 Thread_pool* pool_ = nullptr)
        : threads(threads_),
          tile_iterations(tile_iterations_),
          band_rows(band_rows_),
          pool(pool_) {}

    // Total parallelism, following resolve_thread_count (0 = all hardware
    // threads). Any thread count produces byte-identical frames.
    int threads = 1;
    // Fused iterations per band sweep: 1 = untiled double-buffered sweeps,
    // n > 1 = carry n iterations through each row band, 0 = auto (tile only
    // when the double-buffered working set overflows the tile budget —
    // Boundary::periodic included, edge bands carry wrapped halos). Every
    // depth produces byte-identical frames.
    int tile_iterations = 1;
    // Output rows per band when tiling; 0 = auto (sized so a band's working
    // set stays cache-resident and the halo recompute overhead stays small).
    int band_rows = 0;
    // Cache budgets for the auto heuristics above; zero fields resolve from
    // the probed topology.
    Exec_budgets budgets;
    // External thread pool to fan row blocks / bands across. When set, the
    // engine reuses it instead of constructing a pool per run() call and
    // the pool's thread count supersedes `threads`; callers batching many
    // runs (DSE validation sweeps, golden checks) share one fan-out this
    // way. The pool must not be running another job concurrently. Results
    // stay byte-identical to a serial run either way.
    Thread_pool* pool = nullptr;
};

// Result of a whole-frame fixed-point run: the raw two's-complement Qm.f
// words of every field after the final iteration, state fields first
// (declaration order) then const fields — the same canonical order as the
// double engine's Frame_set. The raw words are the ground truth the
// architecture-simulator validation compares against; to_frame_set() decodes
// them for callers that want values.
struct Fixed_frame_result {
    int width = 0;
    int height = 0;
    Fixed_format format;
    std::vector<std::string> names;                   // canonical field order
    std::vector<std::vector<std::int64_t>> raw;       // per field, row-major
    Frame_set to_frame_set() const;
};

class Exec_engine {
public:
    // Builds (and compiles) the step's register program once. `step` must
    // outlive the engine.
    explicit Exec_engine(const Stencil_step& step);

    const Stencil_step& step() const { return *step_; }
    const Register_program& program() const { return program_; }
    const Compiled_program& compiled() const { return program_.compiled(); }

    // Per-iteration halo growth of the advancing fields (rows above/below a
    // band that each fused step consumes), derived from the compiled
    // per-field extents.
    int state_halo_up() const { return state_up_; }
    int state_halo_down() const { return state_down_; }

    // Planning introspection for tests: the tallest interim band buffer (in
    // rows) the tiled path would allocate for this geometry. Under
    // Boundary::periodic this stays band-sized (band_rows plus the
    // trapezoid's halo growth) instead of widening toward `height` at the
    // frame edges.
    int planned_interim_rows(int height, int band_rows, int depth, Boundary b) const;

    // Runs `iterations` steps with per-iteration boundary resolution.
    // `initial` must contain every field of the step; the result holds the
    // state fields first (declaration order) and then the const fields,
    // matching the legacy golden runner. With iterations <= 0 the initial
    // set is returned unchanged.
    Frame_set run(const Frame_set& initial, int iterations, Boundary b,
                  const Exec_options& options) const;
    Frame_set run(const Frame_set& initial, int iterations, Boundary b,
                  int threads = 1) const {
        return run(initial, iterations, b, Exec_options{threads, 1, 0});
    }

    // Whole-frame fixed-point run: quantizes `initial` once (Raw_quantizer
    // semantics, like every production caller), lowers the program into a
    // Fixed_tape for `format`, and carries raw int64 words through all
    // iterations — byte-identical to run_ir_fixed_reference at any thread
    // count and tile depth. With iterations <= 0 the result holds the
    // quantized initial frames; to_frame_set() decodes the words.
    Fixed_frame_result run_fixed(const Frame_set& initial, int iterations, Boundary b,
                                 const Fixed_format& format,
                                 const Exec_options& options = {}) const;

private:
    const Stencil_step* step_;
    Register_program program_;
    // Per-iteration band halo growth (state-field reads only; const fields
    // are read from the full frame at every level).
    int state_up_ = 0;
    int state_down_ = 0;
};

}  // namespace islhls
