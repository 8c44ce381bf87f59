#include "sim/exec_engine.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>

#include "sim/tape_lanes.hpp"
#include "support/cache_info.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace islhls {

namespace {

// Everything below (contexts, workspaces, row execution, banding, the
// double-buffered driver) is templated on the tape type, so the double
// (Compiled_program) and fixed-point (Fixed_tape) engines are the same
// machine over different element types and op semantics — they cannot
// diverge structurally. Each lane block is one run_tape call: the whole
// tape in one call into the resolved per-ISA walk (sim/tape_lanes.hpp).

// Everything one step execution needs, fixed before the row loops start.
// The banded path copies this per band and retargets the field bindings at
// every fused level; `field_row_off` / `out_row_off` translate full-frame
// row coordinates into band-buffer rows (zero when a binding points at a
// whole frame).
template <class Tape>
struct Step_context {
    using Value = Lane_word<Tape>;
    const Tape* tape = nullptr;
    const Compiled_program* cp = nullptr;
    int left_margin = 0;
    int right_margin = 0;
    int width = 0;
    int height = 0;
    Boundary boundary = Boundary::clamp;
    std::vector<const Value*> field_base;  // per pool field index
    std::vector<int> field_row_off;        // per pool field index
    // Per pool field: nonzero when row reads index the binding directly at
    // the unclamped row (y + dy - row_off) with no boundary resolution —
    // the wrapped-halo band buffers of Boundary::periodic, whose rows past
    // the frame edge hold the opposite edge's content.
    std::vector<std::uint8_t> field_direct_rows;
    std::vector<Value*> out_base;          // per state field
    // Per state field: nonzero when its slot is an op result no other output
    // shares, written straight into the row; the rest are copied from slots.
    std::vector<std::uint8_t> out_in_place;
    int out_row_off = 0;
    // Banded execution: pool field index of every state field (declaration
    // order), so levels can rebind just the advancing fields.
    std::vector<int> state_pool_field;
};

// Per-thread scratch bound to one frame width: the lane block, and a zero
// row backing Boundary::zero reads of out-of-range rows. The two `band`
// buffers ping-pong the interim levels of temporal tiling; they are sized
// lazily per band (edge bands under Boundary::periodic can need more rows
// than interior bands).
template <class Tape>
struct Workspace {
    using Value = Lane_word<Tape>;
    // kTapeLane samples per tape slot. Its slot table points at each slot's
    // own span, or per interior block at the frame row span of an input
    // slot or an in-place output slot.
    Lane_block<Tape> block;
    // Per tape input: the resolved base of the row the current output row
    // reads; the value at column x is input_row[i][x + inputs[i].dx].
    std::vector<const Value*> input_row;
    std::vector<Value> zero_row;
    std::array<std::vector<Value>, 2> band;
};

template <class Tape>
void bind_workspace(Workspace<Tape>& ws, const Step_context<Tape>& c) {
    using Value = Lane_word<Tape>;
    ws.block.bind(*c.tape);
    ws.input_row.assign(c.cp->inputs().size(), nullptr);
    ws.zero_row.assign(static_cast<std::size_t>(c.width), Value{});
}

// Reusable workspaces for the bands of a run; scratch contents never
// influence results, so which worker gets which workspace is irrelevant to
// the determinism contract.
template <class Tape>
class Workspace_pool {
public:
    explicit Workspace_pool(const Step_context<Tape>& context) : context_(&context) {}

    std::unique_ptr<Workspace<Tape>> acquire() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (!free_.empty()) {
                std::unique_ptr<Workspace<Tape>> ws = std::move(free_.back());
                free_.pop_back();
                return ws;
            }
        }
        auto ws = std::make_unique<Workspace<Tape>>();
        bind_workspace(*ws, *context_);
        return ws;
    }

    void release(std::unique_ptr<Workspace<Tape>> ws) {
        const std::lock_guard<std::mutex> lock(mutex_);
        free_.push_back(std::move(ws));
    }

private:
    const Step_context<Tape>* context_;
    std::mutex mutex_;
    std::vector<std::unique_ptr<Workspace<Tape>>> free_;
};

// Interior columns [x0, x1) of row y, in kTapeLane-wide lane blocks: input
// slots point straight at their row spans input_row[i] + (xb + dx) (inside
// the row for every interior block; the walk never writes them), in-place
// output slots at their destination span, run_tape() walks the whole tape,
// and the other outputs are copied from their slots. The lane kernels match
// apply_op() / apply_op_fixed() case for case — one elementwise operation
// per element — so every value is bit-identical to the reference
// interpreters at every block split (bar the sign and payload of a produced
// NaN, which IEEE leaves open and no op lets reach a non-NaN value). Fixed
// frame words are already wrapped (quantization and every producing op
// wrap), so the inputs need no re-wrap.
template <class Tape>
void exec_interior(const Step_context<Tape>& c, Workspace<Tape>& ws, int y, int x0,
                   int x1) {
    using Value = Lane_word<Tape>;
    const std::vector<Tape_input>& inputs = c.cp->inputs();
    const std::vector<std::int32_t>& out_slots = c.cp->output_slots();
    Value** slot = ws.block.slot();
    const std::size_t out_row =
        static_cast<std::size_t>(y - c.out_row_off) * static_cast<std::size_t>(c.width);
    for (int xb = x0; xb < x1; xb += kTapeLane) {
        const int n = std::min(kTapeLane, x1 - xb);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            slot[inputs[i].slot] = const_cast<Value*>(ws.input_row[i] + (xb + inputs[i].dx));
        }
        for (std::size_t s = 0; s < c.out_base.size(); ++s) {
            if (c.out_in_place[s]) slot[out_slots[s]] = c.out_base[s] + out_row + xb;
        }
        run_tape(*c.tape, slot, n);
        for (std::size_t s = 0; s < c.out_base.size(); ++s) {
            if (c.out_in_place[s]) continue;
            std::memcpy(c.out_base[s] + out_row + xb, slot[out_slots[s]],
                        static_cast<std::size_t>(n) * sizeof(Value));
        }
    }
}

// Border columns [0, x0) and [x1, w) of row y through the same lane walk:
// the border columns are packed kTapeLane to a lane block, every input lane
// is gathered at its boundary-resolved column (raw 0 backs Boundary::zero in
// the fixed domain, like run_fixed_raw's gathered zeros), and the outputs
// are scattered back into the row. As in the interior, frame words are not
// re-wrapped.
template <class Tape>
void exec_border(const Step_context<Tape>& c, Workspace<Tape>& ws, int y, int x0,
                 int x1) {
    using Value = Lane_word<Tape>;
    const int w = c.width;
    const std::vector<Tape_input>& inputs = c.cp->inputs();
    const std::vector<std::int32_t>& out_slots = c.cp->output_slots();
    const std::size_t out_row =
        static_cast<std::size_t>(y - c.out_row_off) * static_cast<std::size_t>(w);
    // exec_interior leaves input and in-place output slots pointing into
    // frame rows; point them back at their own lane spans.
    Value** slot = ws.block.slot();
    for (const Tape_input& in : inputs) slot[in.slot] = ws.block.span(in.slot);
    for (std::int32_t out : out_slots) slot[out] = ws.block.span(out);
    // Border column k is frame column k below x0, k + (x1 - x0) above.
    const int count = x0 + (w - x1);
    for (int kb = 0; kb < count; kb += kTapeLane) {
        const int n = std::min(kTapeLane, count - kb);
        const auto column = [&](int l) { return kb + l < x0 ? kb + l : kb + l + x1 - x0; };
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            Value* dst = slot[inputs[i].slot];
            for (int l = 0; l < n; ++l) {
                const int rx = resolve_coordinate(column(l) + inputs[i].dx, w, c.boundary);
                dst[l] = rx < 0 ? Value{} : ws.input_row[i][rx];
            }
        }
        run_tape(*c.tape, slot, n);
        for (std::size_t s = 0; s < c.out_base.size(); ++s) {
            const Value* src = slot[out_slots[s]];
            for (int l = 0; l < n; ++l) {
                c.out_base[s][out_row + static_cast<std::size_t>(column(l))] = src[l];
            }
        }
    }
}

template <class Tape>
void exec_rows(const Step_context<Tape>& c, Workspace<Tape>& ws, int y0, int y1) {
    using Value = Lane_word<Tape>;
    const int w = c.width;
    const int h = c.height;
    const std::vector<Tape_input>& inputs = c.cp->inputs();
    // Interior columns: [x0, x1) reads in-range for every input offset.
    const int x0 = std::min(c.left_margin, w);
    const int x1 = std::max(x0, w - c.right_margin);

    for (int y = y0; y < y1; ++y) {
        // Resolve the input row bases once per row, for both passes; the
        // column offsets complete the addressing. Direct-row bindings
        // (wrapped-halo band buffers) skip the boundary policy — they hold
        // the unclamped row itself.
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const Tape_input& in = inputs[i];
            const auto f = static_cast<std::size_t>(in.field);
            const Value* base;
            if (c.field_direct_rows[f]) {
                base = c.field_base[f] +
                       static_cast<std::size_t>(y + in.dy - c.field_row_off[f]) * w;
            } else {
                const int ry = resolve_coordinate(y + in.dy, h, c.boundary);
                base = ry < 0 ? ws.zero_row.data()
                              : c.field_base[f] +
                                    static_cast<std::size_t>(ry - c.field_row_off[f]) * w;
            }
            ws.input_row[i] = base;
        }
        exec_interior(c, ws, y, x0, x1);
        if (x0 > 0 || x1 < w) exec_border(c, ws, y, x0, x1);
    }
}

// --- temporal tiling --------------------------------------------------------------

// Rows [lo, hi) at one fused level of a band (frame coordinates).
struct Band_level {
    int lo = 0;
    int hi = 0;
};

// The trapezoid of one band: level[k] holds the rows computed k fused steps
// into the block, for k in [1, depth]; level[depth] is the band's output
// rows, level[0] the rows the band reads from the block's input frame
// (kept for sizing/diagnostics, nothing is computed at level 0).
struct Band_plan {
    std::vector<Band_level> level;
    // Tallest interim level (k in [1, depth)); sizes the band buffers.
    int interim_rows = 0;
};

// Minimal in-frame interval covering every boundary-resolved read of the
// unclamped rows [lo, hi), for the non-periodic boundaries: out-of-range
// overhang rows resolve to edge-adjacent rows (clamp/mirror) or drop out
// entirely (zero). Periodic bands never come here — their interim levels
// keep the unclamped interval itself and carry wrapped halo rows.
Band_level resolve_row_interval(int lo, int hi, int h, Boundary b) {
    int a = std::max(lo, 0);
    int z = std::min(hi, h) - 1;  // inclusive
    check_internal(a <= z, "resolve_row_interval: empty in-range span");
    for (int y = lo; y < 0; ++y) {
        const int ry = resolve_coordinate(y, h, b);
        if (ry >= 0) {
            a = std::min(a, ry);
            z = std::max(z, ry);
        }
    }
    for (int y = h; y < hi; ++y) {
        const int ry = resolve_coordinate(y, h, b);
        if (ry >= 0) {
            a = std::min(a, ry);
            z = std::max(z, ry);
        }
    }
    return {a, z + 1};
}

// Plans the bands of one fused block: output rows are split into bands of
// `band_rows`, and each band's interim levels grow by the per-step state
// halo (up rows above, down rows below). Non-periodic boundaries resolve
// each level into the frame; under Boundary::periodic the levels keep their
// unclamped intervals — on a torus row r and row r mod h are the same row
// at every fused level, so a band buffer can carry its out-of-frame halo
// rows directly (computed like any other row, reading level 1 through the
// wrapping boundary policy) and the interim intervals stay band-sized at
// the frame edges instead of widening toward the whole frame.
std::vector<Band_plan> plan_bands(int h, int band_rows, int depth, int up, int down,
                                  Boundary b) {
    std::vector<Band_plan> plans;
    plans.reserve(static_cast<std::size_t>((h + band_rows - 1) / band_rows));
    for (int b0 = 0; b0 < h; b0 += band_rows) {
        Band_plan plan;
        plan.level.assign(static_cast<std::size_t>(depth) + 1, Band_level{});
        plan.level[static_cast<std::size_t>(depth)] = {b0,
                                                       std::min(b0 + band_rows, h)};
        for (int k = depth - 1; k >= 0; --k) {
            const Band_level& next = plan.level[static_cast<std::size_t>(k) + 1];
            plan.level[static_cast<std::size_t>(k)] =
                b == Boundary::periodic
                    ? Band_level{next.lo - up, next.hi + down}
                    : resolve_row_interval(next.lo - up, next.hi + down, h, b);
        }
        for (int k = 1; k < depth; ++k) {
            const Band_level& lv = plan.level[static_cast<std::size_t>(k)];
            plan.interim_rows = std::max(plan.interim_rows, lv.hi - lv.lo);
        }
        plans.push_back(std::move(plan));
    }
    return plans;
}

// Carries one band through every fused level of its block. The shared
// context `c` holds the block's input-frame and output-frame bindings; the
// local copy retargets the state fields at each level:
//
//   level 1        reads the input frame, writes band buffer 1;
//   level k (1<k<T) reads band buffer (k-1)&1, writes band buffer k&1;
//   level T        reads the last band buffer, writes the output frame
//                  (only the band's own rows — bands never overlap there).
//
// An unfused block is the T = 1 case: its one level reads the input frame
// and writes the output frame, and no band buffer is sized. Const fields
// always read the full input frame, and every level runs the same exec_rows
// code, so each cell value is computed by the identical instruction
// sequence at every depth.
// Under Boundary::periodic the band-buffer bindings are marked direct-row:
// the buffers hold unclamped (wrapped-halo) intervals, so reads between
// interim levels index them at the unclamped row with no boundary
// resolution, while level-1 reads and const-field reads still wrap against
// the frame.
template <class Tape>
void exec_band(const Step_context<Tape>& c, Workspace<Tape>& ws,
               const Band_plan& plan) {
    using Value = Lane_word<Tape>;
    const int depth = static_cast<int>(plan.level.size()) - 1;
    const auto w = static_cast<std::size_t>(c.width);
    const std::size_t stride = static_cast<std::size_t>(plan.interim_rows) * w;
    const std::size_t states = c.state_pool_field.size();
    if (depth > 1) {
        for (std::vector<Value>& buf : ws.band) {
            if (buf.size() < stride * states) buf.resize(stride * states);
        }
    }

    Step_context<Tape> local = c;
    const bool direct = c.boundary == Boundary::periodic;
    for (int k = 1; k <= depth; ++k) {
        const Band_level out = plan.level[static_cast<std::size_t>(k)];
        if (k > 1) {
            const Band_level in = plan.level[static_cast<std::size_t>(k) - 1];
            const Value* base = ws.band[static_cast<std::size_t>((k - 1) & 1)].data();
            for (std::size_t s = 0; s < states; ++s) {
                const auto f = static_cast<std::size_t>(c.state_pool_field[s]);
                local.field_base[f] = base + s * stride;
                local.field_row_off[f] = in.lo;
                if (direct) local.field_direct_rows[f] = 1;
            }
        }
        if (k == depth) {
            local.out_base = c.out_base;
            local.out_row_off = c.out_row_off;
        } else {
            Value* base = ws.band[static_cast<std::size_t>(k & 1)].data();
            for (std::size_t s = 0; s < states; ++s) {
                local.out_base[s] = base + s * stride;
            }
            local.out_row_off = out.lo;
        }
        exec_rows(local, ws, out.lo, out.hi);
    }
}

// Resolved auto-tiling budgets: explicit (pinned) fields win, zero fields
// come from the probed cache topology. The probe's own fallbacks reproduce
// the engine's historical fixed budgets (LLC fallback 32 MiB = the old tile
// constant, /4 = the old 8 MiB band constant).
Exec_budgets resolve_budgets(const Exec_budgets& pinned) {
    const Cache_topology& cache = cache_topology();
    Exec_budgets r;
    r.tile_bytes = pinned.tile_bytes ? pinned.tile_bytes : cache.llc_bytes;
    r.band_bytes = pinned.band_bytes ? pinned.band_bytes : cache.llc_bytes / 4;
    return r;
}

// Auto tile depth: fusing is pure overhead while both frame buffers sit in
// cache, so stay untiled below the tile budget; above it, eight fused steps
// capture most of the traffic reduction (1/8th of the memory round trips)
// while keeping the trapezoid recompute low.
int auto_tile_depth(std::size_t state_bytes, int iterations, std::size_t tile_budget) {
    if (iterations <= 1 || 2 * state_bytes <= tile_budget) return 1;
    return std::min(iterations, 8);
}

// Auto band height: size a band so its working set (two interim buffers of
// every state field) stays inside the band budget, keep the halo recompute
// overhead bounded (band at least 4x the total halo growth), and leave at
// least two bands per thread for load balance.
int auto_band_rows(int width, int h, int depth, int states, int growth, int threads,
                   std::size_t band_budget) {
    const std::size_t level_row_bytes = 2 * static_cast<std::size_t>(states) *
                                        static_cast<std::size_t>(width) *
                                        sizeof(double);
    long rows = static_cast<long>(band_budget / std::max<std::size_t>(level_row_bytes, 1));
    rows -= static_cast<long>(depth - 1) * growth;
    rows = std::max(rows, 4L * (depth - 1) * growth);
    rows = std::max(rows, 16L);
    if (threads > 1) {
        rows = std::min(rows, static_cast<long>((h + 2 * threads - 1) / (2 * threads)));
    }
    return static_cast<int>(std::clamp(rows, 1L, static_cast<long>(h)));
}

// --- double-buffered driver -------------------------------------------------------

// Runs `iterations` steps of the engine's program as `tape` over a pair
// of frame buffers. `buffers[p]` holds the storage of every field of buffer
// parity p in canonical order (state fields in declaration order, then const
// fields); const fields may share storage across parities, since they are
// never written. Returns the parity holding the final frames.
template <class Tape>
int run_buffers(const Exec_engine& engine, const Tape& tape, int w, int h,
                int iterations, Boundary b, const Exec_options& options,
                const std::array<std::vector<Lane_word<Tape>*>, 2>& buffers) {
    using Value = Lane_word<Tape>;
    const Stencil_step& step = engine.step();
    const Expr_pool& pool = step.pool();
    const std::size_t states = step.state_fields().size();

    Step_context<Tape> context;
    const Compiled_program& cp = engine.compiled();
    context.tape = &tape;
    context.cp = &cp;
    context.left_margin = std::max(0, -cp.min_dx());
    context.right_margin = std::max(0, cp.max_dx());
    context.width = w;
    context.height = h;
    context.boundary = b;
    context.field_row_off.assign(static_cast<std::size_t>(pool.field_count()), 0);
    context.field_direct_rows.assign(static_cast<std::size_t>(pool.field_count()), 0);
    std::vector<int> canonical_pool_field;
    for (const std::string& name : step.state_fields()) {
        context.state_pool_field.push_back(pool.find_field(name));
        canonical_pool_field.push_back(pool.find_field(name));
    }
    for (const std::string& name : step.const_fields()) {
        canonical_pool_field.push_back(pool.find_field(name));
    }
    const std::vector<std::int32_t>& out_slots = cp.output_slots();
    for (std::int32_t out : out_slots) {
        const auto made = [&](const Tape_op& op) { return op.dest == out; };
        const bool unique = std::count(out_slots.begin(), out_slots.end(), out) == 1;
        context.out_in_place.push_back(
            unique && std::any_of(cp.ops().begin(), cp.ops().end(), made));
    }
    // Per parity: the pool-field read bindings, and the state-field outputs
    // written while that parity is current (i.e. into the other buffer).
    std::array<std::vector<const Value*>, 2> bases;
    std::array<std::vector<Value*>, 2> outs;
    for (std::size_t p = 0; p < 2; ++p) {
        bases[p].assign(static_cast<std::size_t>(pool.field_count()), nullptr);
        for (std::size_t i = 0; i < canonical_pool_field.size(); ++i) {
            bases[p][static_cast<std::size_t>(canonical_pool_field[i])] = buffers[p][i];
        }
        outs[p].assign(buffers[p ^ 1].begin(),
                       buffers[p ^ 1].begin() + static_cast<std::ptrdiff_t>(states));
    }

    const int total_threads = options.pool ? options.pool->thread_count()
                                           : resolve_thread_count(options.threads);

    // Resolve the tiling: fused depth first, band height second. Budgets
    // come pinned from the options or from the probed cache topology;
    // either way they only pick the schedule — every (depth, band) choice
    // is byte-identical.
    const Exec_budgets budgets = resolve_budgets(options.budgets);
    const std::size_t state_bytes = static_cast<std::size_t>(w) *
                                    static_cast<std::size_t>(h) * sizeof(Value) *
                                    std::max<std::size_t>(states, 1);
    int depth = options.tile_iterations;
    if (depth == 0) {
        depth = auto_tile_depth(state_bytes, iterations, budgets.tile_bytes);
    }
    depth = std::clamp(depth, 1, iterations);
    const int state_up = engine.state_halo_up();
    const int state_down = engine.state_halo_down();
    int band_rows = options.band_rows;
    if (depth > 1) {
        if (band_rows <= 0) {
            band_rows = auto_band_rows(w, h, depth, static_cast<int>(states),
                                       state_up + state_down, total_threads,
                                       budgets.band_bytes);
        }
        band_rows = std::clamp(band_rows, 1, h);
    }

    // A run has at most two distinct fused depths: the full blocks and one
    // shorter tail block. Plan both up front; the plans are reused across
    // every block of that depth. An unfused block is a depth-1 plan over
    // the untiled row split (four blocks per thread for load balance).
    const int untiled_blocks = std::min(h, 4 * total_threads);
    const int untiled_rows = (h + untiled_blocks - 1) / untiled_blocks;
    const auto plan = [&](int d) {
        return plan_bands(h, d > 1 ? band_rows : untiled_rows, d, state_up, state_down,
                          b);
    };
    const int tail_depth = iterations % depth;
    const std::vector<Band_plan> full_plans = plan(depth);
    const std::vector<Band_plan> tail_plans =
        tail_depth > 0 ? plan(tail_depth) : std::vector<Band_plan>{};

    // The band fan-out: an external pool when the caller shares one,
    // otherwise a pool owned by this run (a one-thread pool runs inline).
    std::optional<Thread_pool> own_pool;
    if (!options.pool) own_pool.emplace(h > 1 ? total_threads : 1);
    Thread_pool& thread_pool = options.pool ? *options.pool : *own_pool;
    Workspace_pool<Tape> workspaces(context);

    int cur = 0;
    for (int it = 0; it < iterations; it += depth) {
        const std::vector<Band_plan>& plans =
            iterations - it >= depth ? full_plans : tail_plans;
        context.field_base = bases[static_cast<std::size_t>(cur)];
        context.out_base = outs[static_cast<std::size_t>(cur)];
        thread_pool.for_each_index(plans.size(), [&](std::size_t i) {
            std::unique_ptr<Workspace<Tape>> ws = workspaces.acquire();
            exec_band(context, *ws, plans[i]);
            workspaces.release(std::move(ws));
        });
        cur ^= 1;
    }
    return cur;
}

}  // namespace

Exec_engine::Exec_engine(const Stencil_step& step)
    : step_(&step), program_(build_program(step.pool(), step.updates())) {
    // The per-iteration band halo grows with the advancing fields only:
    // const fields never change, so their reads hit the full frame at every
    // fused level and do not widen the trapezoid.
    const std::vector<Field_extent>& extents = program_.compiled().field_extents();
    for (std::size_t f = 0; f < extents.size(); ++f) {
        if (!extents[f].used || !step.is_state_index(static_cast<int>(f))) continue;
        state_up_ = std::max(state_up_, -extents[f].min_dy);
        state_down_ = std::max(state_down_, extents[f].max_dy);
    }
}

int Exec_engine::planned_interim_rows(int height, int band_rows, int depth,
                                      Boundary b) const {
    check_internal(height > 0 && depth >= 1, "planned_interim_rows: bad geometry");
    band_rows = std::clamp(band_rows, 1, height);
    const std::vector<Band_plan> plans =
        plan_bands(height, band_rows, depth, state_up_, state_down_, b);
    int rows = 0;
    for (const Band_plan& plan : plans) rows = std::max(rows, plan.interim_rows);
    return rows;
}

Frame_set Exec_engine::run(const Frame_set& initial, int iterations, Boundary b,
                           const Exec_options& options) const {
    if (iterations <= 0) return initial;
    const int w = initial.width();
    const int h = initial.height();

    // Double buffers in canonical field order (state first, then const);
    // const fields are copied once and never rewritten.
    Frame_set buf_a(w, h);
    Frame_set buf_b(w, h);
    for (const std::string& name : step_->state_fields()) {
        buf_a.add_field(name, initial.field(name));
        buf_b.add_field(name);
    }
    for (const std::string& name : step_->const_fields()) {
        buf_a.add_field(name, initial.field(name));
        buf_b.add_field(name, initial.field(name));
    }
    if (w == 0 || h == 0) return buf_a;

    std::array<std::vector<double*>, 2> buffers;
    for (std::size_t i = 0; i < buf_a.field_count(); ++i) {
        buffers[0].push_back(buf_a.frame_at(i).data().data());
        buffers[1].push_back(buf_b.frame_at(i).data().data());
    }
    const int final_parity =
        run_buffers(*this, program_.compiled(), w, h, iterations, b, options, buffers);
    return std::move(final_parity == 0 ? buf_a : buf_b);
}

Fixed_frame_result Exec_engine::run_fixed(const Frame_set& initial, int iterations,
                                          Boundary b, const Fixed_format& format,
                                          const Exec_options& options) const {
    const int w = initial.width();
    const int h = initial.height();
    const Raw_quantizer quantize(format);
    const std::size_t elements = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);

    Fixed_frame_result result;
    result.width = w;
    result.height = h;
    result.format = format;

    // Quantize once into raw buffers: state fields double-buffered, const
    // fields shared by both parities (they are never rewritten).
    auto quantize_field = [&](const Frame& frame) {
        std::vector<std::int64_t> raw(elements);
        const std::vector<double>& data = frame.data();
        for (std::size_t i = 0; i < elements; ++i) raw[i] = quantize(data[i]);
        return raw;
    };
    std::vector<std::vector<std::int64_t>> state_a;
    std::vector<std::vector<std::int64_t>> state_b;
    std::vector<std::vector<std::int64_t>> const_raw;
    for (const std::string& name : step_->state_fields()) {
        result.names.push_back(name);
        state_a.push_back(quantize_field(initial.field(name)));
        state_b.emplace_back(elements, 0);
    }
    for (const std::string& name : step_->const_fields()) {
        result.names.push_back(name);
        const_raw.push_back(quantize_field(initial.field(name)));
    }

    auto finish = [&](std::vector<std::vector<std::int64_t>>&& state) {
        result.raw = std::move(state);
        for (std::vector<std::int64_t>& raw : const_raw) {
            result.raw.push_back(std::move(raw));
        }
        return std::move(result);
    };
    if (iterations <= 0 || w == 0 || h == 0) return finish(std::move(state_a));

    std::array<std::vector<std::int64_t*>, 2> buffers;
    for (std::size_t s = 0; s < state_a.size(); ++s) {
        buffers[0].push_back(state_a[s].data());
        buffers[1].push_back(state_b[s].data());
    }
    for (std::vector<std::int64_t>& raw : const_raw) {
        buffers[0].push_back(raw.data());
        buffers[1].push_back(raw.data());
    }
    // One integer lowering per run; every fused level executes it.
    const Fixed_tape tape(program_.compiled(), format);
    const int final_parity = run_buffers(*this, tape, w, h, iterations, b, options, buffers);
    return finish(final_parity == 0 ? std::move(state_a) : std::move(state_b));
}

Frame_set Fixed_frame_result::to_frame_set() const {
    Frame_set frames(width, height);
    for (std::size_t i = 0; i < names.size(); ++i) {
        Frame frame(width, height);
        std::vector<double>& data = frame.data();
        for (std::size_t j = 0; j < raw[i].size(); ++j) {
            data[j] = from_raw(raw[i][j], format);
        }
        frames.add_field(names[i], std::move(frame));
    }
    return frames;
}

}  // namespace islhls
