// Record-parser robustness: cache payloads are untrusted input (a checksum
// only proves the bytes are the ones some writer stored, not that the
// writer agreed on the schema). Seeded mutations of real serialized entries,
// format grids and synthesis reports — byte flips, truncation, dropped,
// swapped or duplicated lines, inserted and random bytes — must never make
// a parser throw or crash, and any text a parser accepts must re-serialize
// byte for byte: the codec admits exactly one spelling of every record.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/sweep_records.hpp"
#include "fuzz_env.hpp"
#include "support/prng.hpp"
#include "support/text.hpp"

namespace islhls {
namespace {

Sweep_entry paper_entry() {
    Sweep_entry e;
    e.kernel = "igf";
    e.device = "xc6vlx760";
    e.iterations = 10;
    e.fits = true;
    e.best.instance.window = 3;
    e.best.instance.level_depths = {4, 4, 2};
    e.best.instance.cores_per_depth = {{2, 1}, {4, 12}};
    e.best.estimated_area_luts = 1.0 / 3.0;
    e.best.actual_area_luts = -0.0;
    e.best.f_max_mhz = 212.5;
    e.best.windows_per_frame = 87381;
    e.best.throughput.bottleneck = "core compute";
    e.best.throughput.fps = 61.25;
    e.best.throughput.class_cycles = {{2, 0.5}, {4, 1e300}};
    e.best.memory.saving_factor = std::numeric_limits<double>::infinity();
    e.pareto_points = 120;
    e.pareto_front_size = 2;
    e.front_points = {{"w=3 levels=[4 4 2] cores={2:1 4:12}", 9000.5, 0.016, 61.25},
                      {"", 1.0, 2.0, 3.0}};
    e.validated = true;
    e.format_searched = true;
    e.format_satisfiable = true;
    e.fixed_format = {12, 9};
    e.format_psnr_db = 51.5;
    e.searched_area_luts = 8000.0;
    e.validated_fixed = true;
    return e;
}

Sweep_entry streaming_entry() {
    Sweep_entry e;
    e.kernel = "heat";
    e.device = "xc7vx485t";
    e.iterations = 4;
    e.backend = "streaming";
    e.fits = true;
    e.streaming_best.config = {2, 8, 4, 2};
    e.streaming_best.area_luts = 265129.4;
    e.streaming_best.passes = 2;
    e.streaming_best.bottleneck = "channel";
    e.streaming_best.fps = 182.5;
    e.front_points = {{"stream(d=2,v=8,pe=4,ch=2)", 265129.4, 0.005, 182.5}};
    return e;
}

Sweep_entry unfit_entry() {
    Sweep_entry e;
    e.kernel = "conway";
    e.device = "generic_small";
    e.iterations = 1;
    return e;
}

Format_grid grid() {
    Format_grid g;
    for (int w = 1; w <= 2; ++w) {
        for (int d = 1; d <= 2; ++d) {
            Format_cell c;
            c.window = w;
            c.depth = d;
            c.result.format = {8 + w, 4 + d};
            c.result.psnr_db = 50.0 + 1.0 / (w + d);
            c.result.exact = w == d;
            c.result.max_abs_value = 255.5 * w;
            c.result.range_integer_bits = 10;
            c.result.formats_tried = 7 * d;
            c.result.satisfiable = w + d < 4;
            c.evaluated = c.result.satisfiable;
            c.area_luts = 1000.0 * w;
            c.f_max_mhz = 180.0 + d;
            c.fps = 30.0 / w;
            g.cells.push_back(c);
        }
    }
    return g;
}

Synthesis_report report() {
    Synthesis_report r;
    r.design_name = "igf cone w3 d2";
    r.lut_count = 1234.5;
    r.raw_lut_count = 1300.0;
    r.dsp_count = 12;
    r.latency_cycles = 17;
    r.register_count = -1;
    r.synthesis_cpu_seconds = 3600.25;
    return r;
}

// Parses `text` as T; when accepted, the re-serialization must equal it.
template <class T>
void expect_exact_or_rejected(const std::string& text, const std::string& context) {
    T value;
    std::string error;
    bool accepted = false;
    try {
        accepted = parse_record(text, &value, &error);
    } catch (const std::exception& e) {
        ADD_FAILURE() << context << ": parser threw " << e.what();
        return;
    }
    if (accepted && serialize_record(value) != text) {
        ADD_FAILURE() << context << ": accepted a non-canonical record:\n" << text;
    }
}

void expect_all_parsers_clean(const std::string& text, const std::string& context) {
    expect_exact_or_rejected<Sweep_entry>(text, context);
    expect_exact_or_rejected<Format_grid>(text, context);
    expect_exact_or_rejected<Synthesis_report>(text, context);
}

std::vector<std::string> seed_records() {
    return {serialize_record(paper_entry()), serialize_record(streaming_entry()),
            serialize_record(unfit_entry()), serialize_record(grid()),
            serialize_record(report())};
}

// Characters that steer mutations toward the near misses a lax scalar
// reader accepts: signs, blanks, leading zeros, case and separators.
constexpr char kNearMiss[] = "+- 0019aAfF:.\n\t\rx";

std::size_t pick(Prng& rng, std::size_t size) {
    return static_cast<std::size_t>(rng.next_u64() % size);
}

std::string mutate(std::string text, Prng& rng) {
    std::vector<std::string> lines = split(text, '\n');
    const auto rejoin = [&lines] { return join(lines, "\n"); };
    switch (rng.next_u64() % 8) {
        case 0:  // flip one bit
            if (!text.empty()) {
                text[pick(rng, text.size())] ^= static_cast<char>(1 << pick(rng, 8));
            }
            return text;
        case 1:  // truncate
            return text.substr(0, pick(rng, text.size() + 1));
        case 2:  // drop a line
            lines.erase(lines.begin() +
                        static_cast<std::ptrdiff_t>(pick(rng, lines.size())));
            return rejoin();
        case 3:  // swap two lines
            std::swap(lines[pick(rng, lines.size())], lines[pick(rng, lines.size())]);
            return rejoin();
        case 4: {  // duplicate a line
            const std::size_t at = pick(rng, lines.size());
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
            return rejoin();
        }
        case 5:  // insert a near-miss character
            text.insert(pick(rng, text.size() + 1), 1,
                        kNearMiss[pick(rng, sizeof kNearMiss - 1)]);
            return text;
        case 6:  // overwrite a character with a near miss
            if (!text.empty()) {
                text[pick(rng, text.size())] = kNearMiss[pick(rng, sizeof kNearMiss - 1)];
            }
            return text;
        default: {  // overwrite a short span with random bytes
            const std::size_t at = pick(rng, text.size() + 1);
            const std::size_t span = 1 + pick(rng, 8);
            for (std::size_t i = at; i < std::min(text.size(), at + span); ++i) {
                text[i] = static_cast<char>(rng.next_u64() & 0xFF);
            }
            return text;
        }
    }
}

TEST(Records_fuzz, mutated_records_are_rejected_or_reserialize_exactly) {
    // The seeds must be accepted, or rejecting every mutation of them would
    // prove nothing.
    const std::vector<std::string> seeds = seed_records();
    Sweep_entry entry;
    Format_grid format_grid;
    Synthesis_report synthesis;
    std::string error;
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(parse_record(seeds[i], &entry, &error)) << error;
    }
    ASSERT_TRUE(parse_record(seeds[3], &format_grid, &error)) << error;
    ASSERT_TRUE(parse_record(seeds[4], &synthesis, &error)) << error;

    const std::uint64_t base = fuzz::seed_base(0x5eedc0dec0de4ULL);
    const int trials = 3000 * fuzz::scale();
    for (int trial = 0; trial < trials; ++trial) {
        const std::uint64_t seed = base + static_cast<std::uint64_t>(trial);
        Prng rng(seed);
        std::string text = seeds[pick(rng, seeds.size())];
        const int edits = 1 + static_cast<int>(pick(rng, 3));
        for (int e = 0; e < edits; ++e) text = mutate(std::move(text), rng);
        expect_all_parsers_clean(text, cat("seed=", seed));
        if (HasFailure()) return;  // one reproducer is enough
    }
}

}  // namespace
}  // namespace islhls
