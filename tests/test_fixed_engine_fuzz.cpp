// Property fuzz for the frame engine in both value domains: random register
// programs (random op mix, offsets, constants — the moral extension of
// test_frontend_fuzz.cpp's random-input robustness to the execution layer)
// must evaluate identically through independent routes. Fixed point: the
// whole-frame integer row engine (Exec_engine::run_fixed) memcmp-identical
// to the reference interpreter (run_fixed_raw) applied per pixel. Double:
// the whole-frame engine (Exec_engine::run) bit for bit against the
// per-pixel reference interpreter (run_ir_reference). Every trial checks a
// narrow frame and a wide one whose interior straddles the kTapeLane lane
// block.
//
// Every trial derives from a printed seed, so a failure is reproducible by
// pinning that seed in a unit test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "fuzz_env.hpp"
#include "grid/frame_ops.hpp"
#include "sim/exec_engine.hpp"
#include "sim/fixed_exec.hpp"
#include "sim/golden.hpp"
#include "sim/tape_lanes.hpp"
#include "support/prng.hpp"
#include "support/text.hpp"

namespace islhls {
namespace {

// Builds a random stencil step: 1-3 state fields (plus sometimes a const
// field — fdtd-style coupled multi-field updates included), each updated by
// a random expression over bounded-offset reads, constants and the full
// operator set (div/sqrt/select corners included). The simplifying
// constructors may fold parts away — that is the point: the surviving
// program shapes are exactly what the frontend can produce.
Stencil_step random_step(Prng& rng) {
    Stencil_step step;
    const int n_state = rng.next_int(1, 3);
    const int n_const = rng.next_int(0, 1);
    std::vector<int> fields;
    for (int s = 0; s < n_state; ++s) {
        fields.push_back(step.add_state_field(cat("s", s)));
    }
    for (int c = 0; c < n_const; ++c) {
        fields.push_back(step.add_const_field(cat("g", c)));
    }
    Expr_pool& pool = step.pool();

    std::function<Expr_id(int)> gen = [&](int depth) -> Expr_id {
        if (depth <= 0 || rng.next_int(0, 9) < 3) {
            if (rng.next_int(0, 3) == 0) {
                // Coarse constants keep folding interesting without making
                // every trial saturate instantly; whole-number constants
                // stress the integer-native program shapes (conway-style
                // compare/select tapes over exact small integers).
                if (rng.next_int(0, 1)) {
                    return pool.constant(
                        static_cast<double>(rng.next_int(-8, 8)));
                }
                return pool.constant(rng.next_in(-8.0, 8.0));
            }
            const int f = fields[static_cast<std::size_t>(
                rng.next_int(0, static_cast<int>(fields.size()) - 1))];
            // Offsets up to ±3 cover the zoo's widest (radius-2) windows
            // with one extra step of slack.
            return pool.input(f, rng.next_int(-3, 3), rng.next_int(-3, 3));
        }
        switch (rng.next_int(0, 12)) {
            case 0: return pool.add(gen(depth - 1), gen(depth - 1));
            case 1: return pool.sub(gen(depth - 1), gen(depth - 1));
            case 2: return pool.mul(gen(depth - 1), gen(depth - 1));
            case 3: return pool.div(gen(depth - 1), gen(depth - 1));
            case 4: return pool.min_of(gen(depth - 1), gen(depth - 1));
            case 5: return pool.max_of(gen(depth - 1), gen(depth - 1));
            case 6: return pool.neg(gen(depth - 1));
            case 7: return pool.abs_of(gen(depth - 1));
            case 8: return pool.sqrt_of(gen(depth - 1));
            case 9: return pool.less(gen(depth - 1), gen(depth - 1));
            case 10: return pool.less_equal(gen(depth - 1), gen(depth - 1));
            case 11: return pool.equal(gen(depth - 1), gen(depth - 1));
            default:
                return pool.select(gen(depth - 1), gen(depth - 1), gen(depth - 1));
        }
    };
    for (int s = 0; s < n_state; ++s) {
        step.set_update(cat("s", s), gen(rng.next_int(2, 4)));
    }
    return step;
}

// Q31.30 pushes |a << frac| past 2^52 (and shifts past int64), so the
// lane kernels' integer fallback for div and sqrt runs beside their exact
// double fast path; the narrow formats never leave the fast path.
const std::vector<Fixed_format>& fuzz_formats() {
    static const std::vector<Fixed_format> formats = {
        {10, 6}, {3, 2}, {5, 3}, {12, 4}, {31, 30}};
    return formats;
}

constexpr Boundary kBoundaries[] = {Boundary::clamp, Boundary::zero,
                                    Boundary::mirror, Boundary::periodic};

// Fills every field of `step` with seeded noise (canonical field order).
Frame_set random_frames(const Stencil_step& step, int w, int h, Prng& rng) {
    Frame_set initial(w, h);
    for (const std::string& name : step.state_fields()) {
        initial.add_field(name, make_noise(w, h, rng.next_u64(), -40.0, 296.0));
    }
    for (const std::string& name : step.const_fields()) {
        initial.add_field(name, make_noise(w, h, rng.next_u64(), -40.0, 296.0));
    }
    return initial;
}

// Bit-exact double comparison in which every NaN equals every other NaN.
// IEEE leaves the sign and payload of a produced NaN open, and the compiler
// may commute the operands of add and mul, so the vector and the scalar
// route can disagree on them; no tape op lets a NaN's sign or payload reach
// a non-NaN value.
bool same_double(double a, double b) {
    return (std::isnan(a) && std::isnan(b)) || std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Runs one frame geometry through every route of both domains and asserts
// they agree bit for bit.
void check_all_paths(const Exec_engine& engine, const Frame_set& initial, int iterations,
                     Boundary b, const Fixed_format& fmt, const Exec_options& options,
                     std::uint64_t seed) {
    const Stencil_step& step = engine.step();
    const Register_program& program = engine.program();
    const int w = initial.width();
    const int h = initial.height();
    const std::string schedule =
        cat(" (", w, "x", h, " ", to_string(fmt), " ", to_string(b), " threads ",
            options.threads, " depth ", options.tile_iterations, ")");

    const Frame_set double_ref = run_ir_reference(step, initial, iterations, b);
    const Frame_set double_out = engine.run(initial, iterations, b, options);
    ASSERT_EQ(double_ref.names(), double_out.names());
    for (std::size_t i = 0; i < double_ref.field_count(); ++i) {
        const std::vector<double>& ref = double_ref.frame_at(i).data();
        const std::vector<double>& out = double_out.frame_at(i).data();
        for (std::size_t j = 0; j < ref.size(); ++j) {
            ASSERT_TRUE(same_double(ref[j], out[j]))
                << "double engine vs reference diverged: seed=" << seed << " field "
                << double_ref.names()[i] << " at (" << j % static_cast<std::size_t>(w)
                << ", " << j / static_cast<std::size_t>(w) << ")" << schedule;
        }
    }

    const Fixed_frame_result engine_out =
        engine.run_fixed(initial, iterations, b, fmt, options);
    // Per-pixel reference: quantize once, then iterate pixel by pixel
    // through run_fixed_raw.
    const Raw_quantizer quantize(fmt);
    const auto& ports = program.input_ports();
    std::vector<std::int64_t> inputs(ports.size());

    const std::size_t states = step.state_fields().size();
    std::vector<std::vector<std::int64_t>> raw;  // canonical field order
    std::vector<int> field_index(static_cast<std::size_t>(step.pool().field_count()), -1);
    {
        std::size_t i = 0;
        for (const std::string& name : step.state_fields()) {
            const Frame& f = initial.field(name);
            std::vector<std::int64_t> q(f.element_count());
            for (std::size_t j = 0; j < q.size(); ++j) q[j] = quantize(f.data()[j]);
            raw.push_back(std::move(q));
            field_index[static_cast<std::size_t>(step.pool().find_field(name))] =
                static_cast<int>(i++);
        }
        for (const std::string& name : step.const_fields()) {
            const Frame& f = initial.field(name);
            std::vector<std::int64_t> q(f.element_count());
            for (std::size_t j = 0; j < q.size(); ++j) q[j] = quantize(f.data()[j]);
            raw.push_back(std::move(q));
            field_index[static_cast<std::size_t>(step.pool().find_field(name))] =
                static_cast<int>(i++);
        }
    }

    for (int it = 0; it < iterations; ++it) {
        std::vector<std::vector<std::int64_t>> next(states);
        for (std::size_t s = 0; s < states; ++s) {
            next[s].assign(static_cast<std::size_t>(w) * h, 0);
        }
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                for (std::size_t i = 0; i < ports.size(); ++i) {
                    const int rx = resolve_coordinate(x + ports[i].dx, w, b);
                    const int ry = resolve_coordinate(y + ports[i].dy, h, b);
                    const int fi = field_index[static_cast<std::size_t>(ports[i].field)];
                    inputs[i] =
                        (rx < 0 || ry < 0)
                            ? 0
                            : raw[static_cast<std::size_t>(fi)]
                                 [static_cast<std::size_t>(ry) * w + rx];
                }
                const std::vector<std::int64_t> out = run_fixed_raw(program, inputs, fmt);
                for (std::size_t s = 0; s < states; ++s) {
                    next[s][static_cast<std::size_t>(y) * w + x] = out[s];
                }
            }
        }
        for (std::size_t s = 0; s < states; ++s) raw[s] = std::move(next[s]);
    }

    for (std::size_t i = 0; i < engine_out.names.size(); ++i) {
        ASSERT_EQ(0, std::memcmp(raw[i].data(), engine_out.raw[i].data(),
                                 raw[i].size() * sizeof(std::int64_t)))
            << "row engine vs interpreter diverged: seed=" << seed << " field "
            << engine_out.names[i] << schedule;
    }
}

TEST(Fixed_engine_fuzz, random_programs_agree_across_all_paths_in_both_domains) {
    const int trials = 220 * fuzz::scale();
    const std::uint64_t base = fuzz::seed_base(0xF1C5ED00ULL);
    for (int trial = 0; trial < trials; ++trial) {
        const std::uint64_t seed = base + static_cast<std::uint64_t>(trial);
        Prng rng(seed);
        const Stencil_step step = random_step(rng);
        const Exec_engine engine(step);

        const int w = rng.next_int(1, 9);
        const int h = rng.next_int(1, 7);
        const Boundary b = kBoundaries[rng.next_int(0, 3)];
        const Fixed_format fmt =
            fuzz_formats()[static_cast<std::size_t>(
                rng.next_int(0, static_cast<int>(fuzz_formats().size()) - 1))];
        const int iterations = rng.next_int(1, 3);
        const Frame_set initial = random_frames(step, w, h, rng);

        Exec_options options;
        options.threads = rng.next_int(0, 1) ? 2 : 1;
        options.tile_iterations = rng.next_int(0, 1) ? 2 : 1;
        options.band_rows = rng.next_int(1, 3);
        // Pinned budgets only reshape the schedule; no value may notice.
        if (rng.next_int(0, 1)) {
            options.budgets.tile_bytes = 1;
            options.budgets.band_bytes = 1u << 10;
        }
        ASSERT_NO_FATAL_FAILURE(
            check_all_paths(engine, initial, iterations, b, fmt, options, seed));

        // Wide draw (appended, so every earlier draw is unchanged): an
        // interior just around one lane block or two full blocks plus a
        // short tail, so the lane split and the tail chunk both run.
        const int wide = rng.next_int(0, 1) ? rng.next_int(kTapeLane - 4, kTapeLane + 6)
                                            : rng.next_int(2 * kTapeLane + 1,
                                                           2 * kTapeLane + 3);
        ASSERT_NO_FATAL_FAILURE(check_all_paths(engine, random_frames(step, wide, h, rng),
                                                iterations, b, fmt, options, seed));
    }
}

}  // namespace
}  // namespace islhls
