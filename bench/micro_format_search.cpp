// Fixed-point format search: batched tape execution vs the per-sample
// interpreter.
//
// The automatic Qm.f search (estimate/format_search.hpp) evaluates every
// candidate format over many sample windows. Before the fixed-point tape
// engine, each (format, sample) pair ran through run_fixed — a fresh
// register file allocated per call, one branchy dispatch per instruction.
// The batched path lowers the tape once per format (Fixed_tape) and
// advances kTapeLane samples per tape operation out of one reusable lane
// block (run_raw_batch).
//
// This bench measures the like-for-like PSNR evaluation of a fixed list of
// candidate formats over the same sample set both ways, and checks the
// engine's contracts:
//
//   1. correctness — batched raw outputs are byte-identical (memcmp) to
//      run_fixed_raw on every sample, and the batched MSE equals the
//      interpreter MSE exactly (MSE, not PSNR: an exact format has mse 0
//      and no finite PSNR — exactness is a state, never a sentinel dB);
//   2. speed — the batched single-thread evaluation is >= 5x the
//      per-sample interpreter, and the full per-format evaluation (area +
//      f_max + fps at each candidate width, the format grid's warm path)
//      stays cheap next to the bare area re-price it replaced.
//
// With --json <path> the measurements are written as a BENCH_fixed.json
// record (temp file + rename); tools/run_benches.sh wires this into the
// repo's perf trajectory and tools/check_bench.py gates CI on the ratio
// recorded under "gated_metrics".
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cone/cone.hpp"
#include "dse/cone_library.hpp"
#include "dse/evaluator.hpp"
#include "estimate/format_search.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "oracle/reference.hpp"
#include "sim/fixed_exec.hpp"
#include "support/prng.hpp"
#include "support/text.hpp"
#include "symexec/executor.hpp"
#include "synth/device.hpp"

namespace {

using namespace islhls;

constexpr int kFrameW = 64, kFrameH = 48;
constexpr int kSamples = 512;
constexpr std::uint64_t kSeed = 99;
constexpr const char* kKernel = "igf";
const Cone_spec kConeSpec{3, 3, 2};

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

template <typename Fn>
double min_seconds(int reps, const Fn& body) {
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        body();
        best = std::min(best, seconds_since(t0));
    }
    return best;
}

// The sample set the search evaluates formats over: flat inputs, double
// references, and the integer bits fixed by the range analysis (the same
// gathering search_fixed_format performs).
struct Sample_set {
    std::vector<std::vector<double>> inputs;   // per sample, port order
    std::vector<double> flat_inputs;           // row-major samples x ports
    std::vector<std::vector<double>> references;
    int integer_bits = 0;
    std::size_t in_count = 0;
    std::size_t out_count = 0;
};

Sample_set gather_samples(const Register_program& program, const Stencil_step& step,
                          const Frame_set& content, Boundary boundary) {
    Sample_set set;
    const std::vector<Instruction> ports = input_instructions(program);
    set.in_count = ports.size();
    set.out_count = program.outputs().size();
    Prng rng(kSeed);
    std::vector<double> trace;
    double max_abs = 0.0;
    for (int s = 0; s < kSamples; ++s) {
        const int ox = rng.next_int(0, content.width() - 1);
        const int oy = rng.next_int(0, content.height() - 1);
        std::vector<double> inputs;
        inputs.reserve(set.in_count);
        for (const Instruction& port : ports) {
            const Frame& f = content.field(step.pool().field_name(port.field));
            inputs.push_back(f.sample(ox + port.dx, oy + port.dy, boundary));
        }
        run_trace_into(program, inputs, trace);
        for (double v : trace) max_abs = std::max(max_abs, std::fabs(v));
        std::vector<double> reference;
        for (std::int32_t r : program.outputs()) {
            reference.push_back(trace[static_cast<std::size_t>(r)]);
        }
        set.flat_inputs.insert(set.flat_inputs.end(), inputs.begin(), inputs.end());
        set.references.push_back(std::move(reference));
        set.inputs.push_back(std::move(inputs));
    }
    set.integer_bits =
        2 + static_cast<int>(std::ceil(std::log2(std::max(1.0, max_abs))));
    return set;
}

// The pre-batching search inner loop: one interpreter run per sample, a
// fresh register file allocated inside every run_fixed call. Returns the
// MSE against the double references; 0.0 means the format is exact.
double mse_interpreter(const Register_program& program, const Sample_set& set,
                       const Fixed_format& fmt) {
    double se = 0.0;
    long long count = 0;
    for (std::size_t s = 0; s < set.inputs.size(); ++s) {
        const std::vector<double> fixed = run_fixed(program, set.inputs[s], fmt);
        for (std::size_t o = 0; o < fixed.size(); ++o) {
            const double d = fixed[o] - set.references[s][o];
            se += d * d;
            count += 1;
        }
    }
    return se / static_cast<double>(count);
}

// The batched evaluation: quantize the flat inputs, one tape pass over all
// samples, MSE folded in the same order as the interpreter loop.
double mse_batched(const Register_program& program, const Sample_set& set,
                   const Fixed_format& fmt,
                   std::vector<std::int64_t>& raw_inputs,
                   std::vector<std::int64_t>& raw_outputs,
                   Lane_block<Fixed_tape>& block) {
    const Fixed_tape tape(program.compiled(), fmt);
    const Raw_quantizer quantize(fmt);
    for (std::size_t k = 0; k < set.flat_inputs.size(); ++k) {
        raw_inputs[k] = quantize(set.flat_inputs[k]);
    }
    run_raw_batch(tape, raw_inputs.data(), set.inputs.size(), raw_outputs.data(), block);
    double se = 0.0;
    long long count = 0;
    for (std::size_t k = 0; k < set.inputs.size() * set.out_count; ++k) {
        const double d =
            from_raw(raw_outputs[k], fmt) -
            set.references[k / set.out_count][k % set.out_count];
        se += d * d;
        count += 1;
    }
    return se / static_cast<double>(count);
}

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        }
    }

    std::cout << "micro_format_search — batched fixed-point tape vs per-sample "
                 "interpreter\n\n";

    const Kernel_def& kernel = kernel_by_name(kKernel);
    Stencil_step step = extract_stencil(kernel.c_source);
    Cone_library library(step, kernel.name);
    const Cone& cone = library.cone(kConeSpec.window_width, kConeSpec.depth);
    const Register_program program = cone.lower();
    Frame_set content(kFrameW, kFrameH);
    content.add_field("u", make_synthetic_scene(kFrameW, kFrameH, 8));

    const Sample_set set = gather_samples(program, step, content, kernel.boundary);
    // The candidate list a real search walks: every fraction width from 1 up
    // to the 32-bit budget at the range-fixed integer bits.
    std::vector<Fixed_format> formats;
    for (int frac = 1; set.integer_bits + frac <= 32; ++frac) {
        formats.push_back(Fixed_format{set.integer_bits, frac});
    }
    std::cout << "[INFO] " << kKernel << " cone " << to_string(kConeSpec) << ": "
              << program.register_count() << " registers, " << set.in_count
              << " inputs, " << kSamples << " sample windows, " << formats.size()
              << " candidate formats (Q" << set.integer_bits << ".1..)\n";

    // --- correctness: batched raw outputs byte-identical to run_fixed_raw ----
    std::vector<std::int64_t> raw_inputs(set.flat_inputs.size());
    std::vector<std::int64_t> raw_outputs(kSamples * set.out_count);
    Lane_block<Fixed_tape> block;
    bool raw_identical = true;
    for (const Fixed_format& fmt :
         {formats.front(), formats[formats.size() / 2], formats.back()}) {
        const Fixed_tape tape(program.compiled(), fmt);
        for (std::size_t k = 0; k < set.flat_inputs.size(); ++k) {
            raw_inputs[k] = to_raw(set.flat_inputs[k], fmt);
        }
        run_raw_batch(tape, raw_inputs.data(), kSamples, raw_outputs.data(), block);
        for (std::size_t s = 0; s < kSamples && raw_identical; ++s) {
            std::vector<std::int64_t> one(raw_inputs.begin() + s * set.in_count,
                                          raw_inputs.begin() + (s + 1) * set.in_count);
            const std::vector<std::int64_t> ref = run_fixed_raw(program, one, fmt);
            raw_identical =
                std::memcmp(ref.data(), raw_outputs.data() + s * set.out_count,
                            set.out_count * sizeof(std::int64_t)) == 0;
        }
    }

    // --- like-for-like MSE evaluation over the full candidate list -----------
    std::vector<double> interp_mse(formats.size());
    std::vector<double> batched_mse(formats.size());
    const double interp_s = min_seconds(3, [&] {
        for (std::size_t f = 0; f < formats.size(); ++f) {
            interp_mse[f] = mse_interpreter(program, set, formats[f]);
        }
    });
    const double batched_s = min_seconds(3, [&] {
        for (std::size_t f = 0; f < formats.size(); ++f) {
            batched_mse[f] = mse_batched(program, set, formats[f], raw_inputs,
                                         raw_outputs, block);
        }
    });
    const bool mse_identical = interp_mse == batched_mse;
    const double speedup = batched_s > 0.0 ? interp_s / batched_s : 0.0;
    std::cout << "[INFO] MSE evaluation, " << formats.size() << " formats x "
              << kSamples << " windows: interpreter "
              << format_fixed(interp_s * 1e3, 2) << " ms, batched 1t "
              << format_fixed(batched_s * 1e3, 2) << " ms ("
              << format_fixed(speedup, 1) << "x)\n";

    // --- full per-format evaluation vs bare area re-price (warm path) --------
    // The format grid now fully evaluates every cell's canonical design
    // point at its searched width (area + f_max + fps through a calibrated
    // Arch_evaluator) where it used to re-price area alone. Both legs run
    // warm — the first rep populates the library's memoized syntheses — and
    // the inner repeat lifts the cheap leg out of timer granularity.
    const Fpga_device& device = device_by_name("xc6vlx760");
    Arch_instance instance;
    instance.window = kConeSpec.window_width;
    instance.level_depths = {kConeSpec.depth};
    instance.cores_per_depth[kConeSpec.depth] = 1;
    constexpr int kPriceReps = 50;
    double fps_sink = 0.0;
    const double full_eval_s = min_seconds(3, [&] {
        for (int r = 0; r < kPriceReps; ++r) {
            for (const Fixed_format& fmt : formats) {
                Evaluator_options priced;
                priced.format = fmt;
                priced.synth.format = fmt;
                const Arch_evaluator evaluator(library, device, priced);
                fps_sink += evaluator.evaluate(instance).throughput.fps;
            }
        }
    });
    const double area_only_s = min_seconds(3, [&] {
        for (int r = 0; r < kPriceReps; ++r) {
            for (const Fixed_format& fmt : formats) {
                Synth_options synth;
                synth.format = fmt;
                fps_sink += library
                                .synthesis(kConeSpec.window_width, kConeSpec.depth,
                                           device, synth)
                                .lut_count;
            }
        }
    });
    // Inverted so bigger is better for the CI gate: how much of the full
    // evaluation's cost the bare area lookup already was.
    const double full_eval_overhead =
        full_eval_s > 0.0 ? area_only_s / full_eval_s : 0.0;
    std::cout << "[INFO] warm per-format pricing, " << formats.size()
              << " formats x " << kPriceReps << " reps: full eval "
              << format_fixed(full_eval_s * 1e3, 2) << " ms, area-only "
              << format_fixed(area_only_s * 1e3, 2) << " ms (ratio "
              << format_fixed(full_eval_overhead, 3) << ", sink "
              << format_fixed(fps_sink, 0) << ")\n";

    // --- end-to-end search ---------------------------------------------------
    Format_search_options options;
    options.sample_windows = kSamples;
    options.seed = kSeed;
    const auto t0 = std::chrono::steady_clock::now();
    const Format_search_result search_1t =
        search_fixed_format(cone, content, kernel.boundary, options);
    const double search_1t_s = seconds_since(t0);
    std::cout << "[INFO] search_fixed_format: " << to_string(search_1t.format)
              << " at "
              << (search_1t.exact ? std::string("exact")
                                  : cat(format_fixed(search_1t.psnr_db, 1), " dB"))
              << " after "
              << search_1t.formats_tried << " formats; wall 1t "
              << format_fixed(search_1t_s * 1e3, 2) << " ms\n\n";

    int deviations = 0;
    deviations += islhls_bench::report_claim(
        "batched raw outputs byte-identical to run_fixed_raw on every sample",
        raw_identical);
    deviations += islhls_bench::report_claim(
        "batched MSE equals the interpreter MSE exactly on every format",
        mse_identical);
    deviations += islhls_bench::report_claim(
        "batched format evaluation >= 5x the per-sample interpreter",
        speedup >= 5.0);
    deviations += islhls_bench::report_claim(
        "warm full per-format evaluation within 100x the bare area re-price",
        full_eval_overhead >= 0.01);

    if (!json_path.empty()) {
        const bool ok = islhls_bench::write_json_record(json_path, [&](std::ostream& out) {
            out << "{\n";
            out << "  \"bench\": \"micro_format_search\",\n";
            out << "  \"kernel\": \"" << kKernel << "\",\n";
            out << "  \"cone\": \"" << to_string(kConeSpec) << "\",\n";
            out << "  \"sample_windows\": " << kSamples << ",\n";
            out << "  \"candidate_formats\": " << formats.size() << ",\n";
            out << "  \"interpreter_ms\": " << format_fixed(interp_s * 1e3, 3) << ",\n";
            out << "  \"batched_1t_ms\": " << format_fixed(batched_s * 1e3, 3) << ",\n";
            out << "  \"search_1t_ms\": " << format_fixed(search_1t_s * 1e3, 3) << ",\n";
            out << "  \"chosen_format\": \"" << to_string(search_1t.format) << "\",\n";
            out << "  \"full_eval_ms\": " << format_fixed(full_eval_s * 1e3, 3)
                << ",\n";
            out << "  \"area_only_ms\": " << format_fixed(area_only_s * 1e3, 3)
                << ",\n";
            out << "  \"byte_identical\": "
                << (raw_identical && mse_identical ? "true" : "false")
                << ",\n";
            out << "  \"gated_metrics\": {\n";
            out << "    \"format_eval_batched_speedup_1t\": "
                << format_fixed(speedup, 2) << ",\n";
            out << "    \"format_full_eval_overhead\": "
                << format_fixed(full_eval_overhead, 4) << "\n";
            out << "  }\n}\n";
        });
        if (ok) {
            std::cout << "\nwrote " << json_path << "\n";
        } else {
            deviations += 1;
        }
    }
    return deviations == 0 ? 0 : 1;
}
